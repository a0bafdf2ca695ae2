// Package binenc is the little-endian codec behind the repo's persisted
// state: the predictors' MarshalBinary blobs and the serve checkpoint's
// payload. Floats travel as their raw IEEE-754 bits, so a decoded value is
// bit-identical to the encoded one. Strings, float slices and blobs carry a
// u64 length prefix.
//
// A Decoder latches its first error: after a failed read every later read
// returns the zero value, so a caller decodes a whole record and checks
// Err (or Finish) once. Every length is checked against the bytes left
// before anything is allocated, so a corrupt length fails instead of
// turning into a huge allocation. Errors carry no package prefix; callers
// wrap them with their own context.
package binenc

import (
	"encoding/binary"
	"fmt"
	"math"
)

// Encoder appends encoded values to B.
type Encoder struct{ B []byte }

// U32 appends v.
func (e *Encoder) U32(v uint32) { e.B = binary.LittleEndian.AppendUint32(e.B, v) }

// U64 appends v.
func (e *Encoder) U64(v uint64) { e.B = binary.LittleEndian.AppendUint64(e.B, v) }

// I64 appends v as its two's-complement u64.
func (e *Encoder) I64(v int64) { e.U64(uint64(v)) }

// F64 appends v's raw bits.
func (e *Encoder) F64(v float64) { e.U64(math.Float64bits(v)) }

// Bool appends v as one byte, 1 or 0.
func (e *Encoder) Bool(v bool) {
	if v {
		e.B = append(e.B, 1)
	} else {
		e.B = append(e.B, 0)
	}
}

// Str appends s's length, then its bytes.
func (e *Encoder) Str(s string) {
	e.U64(uint64(len(s)))
	e.B = append(e.B, s...)
}

// Floats appends the number of values, then each value's bits.
func (e *Encoder) Floats(vs []float64) {
	e.U64(uint64(len(vs)))
	for _, v := range vs {
		e.F64(v)
	}
}

// Blob appends b's length, then b.
func (e *Encoder) Blob(b []byte) {
	e.U64(uint64(len(b)))
	e.B = append(e.B, b...)
}

// Decoder consumes what an Encoder wrote, in the same order.
type Decoder struct {
	b   []byte
	err error
}

// NewDecoder returns a decoder over data.
func NewDecoder(data []byte) Decoder { return Decoder{b: data} }

// Err reports the first failure, or nil.
func (d *Decoder) Err() error { return d.err }

// Fail records err as the decoder's failure unless one is already latched;
// callers use it for their own consistency checks.
func (d *Decoder) Fail(err error) {
	if d.err == nil {
		d.err = err
	}
}

// Finish reports the first failure, or an error if any bytes are left.
func (d *Decoder) Finish() error {
	if d.err == nil && len(d.b) != 0 {
		return fmt.Errorf("%d trailing bytes", len(d.b))
	}
	return d.err
}

// take consumes the next n bytes, or fails and returns nil.
func (d *Decoder) take(n uint64) []byte {
	if d.err != nil {
		return nil
	}
	if n > uint64(len(d.b)) {
		d.err = fmt.Errorf("truncated: want %d bytes, %d left", n, len(d.b))
		return nil
	}
	v := d.b[:n:n]
	d.b = d.b[n:]
	return v
}

// U32 reads a u32.
func (d *Decoder) U32() uint32 {
	if b := d.take(4); b != nil {
		return binary.LittleEndian.Uint32(b)
	}
	return 0
}

// U64 reads a u64.
func (d *Decoder) U64() uint64 {
	if b := d.take(8); b != nil {
		return binary.LittleEndian.Uint64(b)
	}
	return 0
}

// I64 reads an i64.
func (d *Decoder) I64() int64 { return int64(d.U64()) }

// F64 reads a float's bits.
func (d *Decoder) F64() float64 { return math.Float64frombits(d.U64()) }

// Bool reads one byte; any nonzero byte is true.
func (d *Decoder) Bool() bool {
	if b := d.take(1); b != nil {
		return b[0] != 0
	}
	return false
}

// Count reads a u64 element count for elements of at least elemSize bytes
// each, failing when the bytes left cannot hold that many.
func (d *Decoder) Count(elemSize int) int {
	n := d.U64()
	if d.err == nil && n > uint64(len(d.b)/elemSize) {
		d.err = fmt.Errorf("count %d exceeds the %d bytes left", n, len(d.b))
		return 0
	}
	return int(n)
}

// Str reads a length-prefixed string.
func (d *Decoder) Str() string { return string(d.take(d.U64())) }

// Floats reads a counted float slice; an empty one decodes as nil.
func (d *Decoder) Floats() []float64 {
	n := d.Count(8)
	if n == 0 {
		return nil
	}
	out := make([]float64, n)
	for i := range out {
		out[i] = d.F64()
	}
	return out
}

// Blob reads a length-prefixed byte string. The result aliases the
// decoder's input.
func (d *Decoder) Blob() []byte { return d.take(d.U64()) }
