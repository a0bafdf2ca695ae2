package binenc

import (
	"math"
	"reflect"
	"testing"
)

func sample() []byte {
	var e Encoder
	e.U32(0xdeadbeef)
	e.U64(1 << 40)
	e.I64(-7)
	e.F64(math.Copysign(0, -1))
	e.Bool(true)
	e.Str("C6S0(i)")
	e.Floats([]float64{0.1, math.Inf(1)})
	e.Floats(nil)
	e.Blob([]byte{1, 2, 3})
	return e.B
}

// TestRoundTrip pins the codec: every value decodes to what was encoded,
// floats bit for bit, and Finish is clean exactly at the end.
func TestRoundTrip(t *testing.T) {
	d := NewDecoder(sample())
	if v := d.U32(); v != 0xdeadbeef {
		t.Fatalf("U32 = %#x", v)
	}
	if v := d.U64(); v != 1<<40 {
		t.Fatalf("U64 = %d", v)
	}
	if v := d.I64(); v != -7 {
		t.Fatalf("I64 = %d", v)
	}
	if v := d.F64(); math.Float64bits(v) != math.Float64bits(math.Copysign(0, -1)) {
		t.Fatalf("F64 = %v, want -0", v)
	}
	if !d.Bool() {
		t.Fatal("Bool = false")
	}
	if v := d.Str(); v != "C6S0(i)" {
		t.Fatalf("Str = %q", v)
	}
	if v := d.Floats(); !reflect.DeepEqual(v, []float64{0.1, math.Inf(1)}) {
		t.Fatalf("Floats = %v", v)
	}
	if v := d.Floats(); v != nil {
		t.Fatalf("empty Floats = %v, want nil", v)
	}
	if v := d.Blob(); !reflect.DeepEqual(v, []byte{1, 2, 3}) {
		t.Fatalf("Blob = %v", v)
	}
	if err := d.Finish(); err != nil {
		t.Fatal(err)
	}
}

// TestDecoderFailures pins the hardening: every truncation fails, trailing
// bytes fail, a count the bytes left cannot hold fails before allocating,
// and the first failure latches.
func TestDecoderFailures(t *testing.T) {
	full := sample()
	read := func(d *Decoder) {
		d.U32()
		d.U64()
		d.I64()
		d.F64()
		d.Bool()
		d.Str()
		d.Floats()
		d.Floats()
		d.Blob()
	}
	for cut := 0; cut < len(full); cut++ {
		d := NewDecoder(full[:cut])
		read(&d)
		if d.Finish() == nil {
			t.Fatalf("truncation to %d bytes decoded cleanly", cut)
		}
	}
	d := NewDecoder(append(full[:len(full):len(full)], 0))
	read(&d)
	if d.Err() != nil || d.Finish() == nil {
		t.Fatalf("trailing byte: Err %v, Finish %v", d.Err(), d.Finish())
	}

	var e Encoder
	e.U64(math.MaxUint64)
	e.F64(1)
	d = NewDecoder(e.B)
	if v := d.Floats(); v != nil || d.Err() == nil {
		t.Fatalf("absurd count: %v, %v", v, d.Err())
	}
	first := d.Err()
	d.Fail(nil)
	if d.F64() != 0 || d.Err() != first {
		t.Fatal("a read after a failure did not return zero, or the failure did not latch")
	}
}
