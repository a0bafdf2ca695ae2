package predict

// Checkpoint support: every predictor implements encoding.BinaryMarshaler
// and encoding.BinaryUnmarshaler over its full mutable state, so a
// long-running serve loop can persist its predictor mid-stream and restore
// it bit-identically — the restored predictor's every future Predict agrees
// with the uninterrupted one's exactly (state is carried as raw float64
// bits, never reformatted). UnmarshalBinary restores *state only*: it is
// called on a predictor constructed with the same configuration (depth,
// step, period, …) as the one that was marshaled, and fails loudly on a
// type-tag mismatch, a configuration the blob does not match (compared bit
// for bit) or a malformed blob rather than guessing.

import (
	"encoding"
	"fmt"
	"math"

	"sleepscale/internal/binenc"
)

// Type tags keep a blob from being restored into the wrong predictor.
const (
	tagNaive    = uint32(0x5053_4e50) // "PSNP"
	tagMovAvg   = uint32(0x5053_4d41) // "PSMA"
	tagLMS      = uint32(0x5053_4c53) // "PSLS"
	tagLMSCUSUM = uint32(0x5053_4c43) // "PSLC"
	tagSeasonal = uint32(0x5053_5345) // "PSSE"
	tagOffline  = uint32(0x5053_4f46) // "PSOF"
)

// openState returns a decoder over a state blob positioned past its
// type tag, already failed if the tag is not want.
func openState(data []byte, want uint32) binenc.Decoder {
	d := binenc.NewDecoder(data)
	if got := d.U32(); d.Err() == nil && got != want {
		d.Fail(fmt.Errorf("state tag %#x, want %#x", got, want))
	}
	return d
}

// sameBits reports whether a and b are the same float64, bit for bit.
func sameBits(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

// finish reports d's first failure, or trailing bytes, as who's error.
func finish(d *binenc.Decoder, who string) error {
	if err := d.Finish(); err != nil {
		return fmt.Errorf("predict: %s: %w", who, err)
	}
	return nil
}

// MarshalBinary implements encoding.BinaryMarshaler.
func (n *NaivePrevious) MarshalBinary() ([]byte, error) {
	var e binenc.Encoder
	e.U32(tagNaive)
	e.F64(n.last)
	e.Bool(n.seen)
	return e.B, nil
}

// UnmarshalBinary implements encoding.BinaryUnmarshaler.
func (n *NaivePrevious) UnmarshalBinary(data []byte) error {
	d := openState(data, tagNaive)
	last, seen := d.F64(), d.Bool()
	if err := finish(&d, "NP"); err != nil {
		return err
	}
	n.last, n.seen = last, seen
	return nil
}

// MarshalBinary implements encoding.BinaryMarshaler.
func (m *MovingAverage) MarshalBinary() ([]byte, error) {
	var e binenc.Encoder
	e.U32(tagMovAvg)
	e.U64(uint64(m.p))
	e.Floats(m.window)
	return e.B, nil
}

// UnmarshalBinary implements encoding.BinaryUnmarshaler.
func (m *MovingAverage) UnmarshalBinary(data []byte) error {
	d := openState(data, tagMovAvg)
	p := int(d.U64())
	window := d.Floats()
	if err := finish(&d, "MA"); err != nil {
		return err
	}
	if p != m.p {
		return fmt.Errorf("predict: MA: state window %d, predictor configured for %d", p, m.p)
	}
	if len(window) > p {
		return fmt.Errorf("predict: MA: state holds %d observations, window is %d", len(window), p)
	}
	m.window = window
	return nil
}

// MarshalBinary implements encoding.BinaryMarshaler.
func (l *LMS) MarshalBinary() ([]byte, error) {
	var e binenc.Encoder
	e.U32(tagLMS)
	e.U64(uint64(l.hist))
	e.U64(uint64(l.p))
	e.F64(l.step)
	e.Floats(l.weights)
	e.Floats(l.history)
	return e.B, nil
}

// UnmarshalBinary implements encoding.BinaryUnmarshaler.
func (l *LMS) UnmarshalBinary(data []byte) error {
	d := openState(data, tagLMS)
	hist, p := int(d.U64()), int(d.U64())
	step := d.F64()
	weights := d.Floats()
	history := d.Floats()
	if err := finish(&d, "LMS"); err != nil {
		return err
	}
	if hist != l.hist {
		return fmt.Errorf("predict: LMS: state depth %d, predictor configured for %d", hist, l.hist)
	}
	if !sameBits(step, l.step) {
		return fmt.Errorf("predict: LMS: state step %g, predictor configured for %g", step, l.step)
	}
	if p < 1 || p > hist {
		return fmt.Errorf("predict: LMS: active depth %d outside [1,%d]", p, hist)
	}
	if len(weights) != hist {
		return fmt.Errorf("predict: LMS: %d weights, want %d", len(weights), hist)
	}
	if len(history) > hist {
		return fmt.Errorf("predict: LMS: history %d deeper than %d", len(history), hist)
	}
	l.p = p
	l.weights = weights
	l.history = history
	return nil
}

// MarshalBinary implements encoding.BinaryMarshaler.
func (c *LMSCUSUM) MarshalBinary() ([]byte, error) {
	inner, err := c.lms.MarshalBinary()
	if err != nil {
		return nil, err
	}
	var e binenc.Encoder
	e.U32(tagLMSCUSUM)
	e.Blob(inner)
	e.F64(c.ewmaAbs)
	e.F64(c.ewmaSq)
	e.U64(uint64(c.warm))
	e.F64(c.K)
	e.F64(c.Floor)
	e.U64(uint64(c.alarms))
	return e.B, nil
}

// UnmarshalBinary implements encoding.BinaryUnmarshaler.
func (c *LMSCUSUM) UnmarshalBinary(data []byte) error {
	d := openState(data, tagLMSCUSUM)
	inner := d.Blob()
	ewmaAbs, ewmaSq := d.F64(), d.F64()
	warm := int(d.U64())
	k, floor := d.F64(), d.F64()
	alarms := int(d.U64())
	if err := finish(&d, "LC"); err != nil {
		return err
	}
	if !sameBits(k, c.K) || !sameBits(floor, c.Floor) {
		return fmt.Errorf("predict: LC: state K %g, floor %g, predictor configured for K %g, floor %g",
			k, floor, c.K, c.Floor)
	}
	if err := c.lms.UnmarshalBinary(inner); err != nil {
		return err
	}
	c.ewmaAbs, c.ewmaSq = ewmaAbs, ewmaSq
	c.warm = warm
	c.alarms = alarms
	return nil
}

// MarshalBinary implements encoding.BinaryMarshaler; the base predictor must
// itself be a BinaryMarshaler.
func (s *Seasonal) MarshalBinary() ([]byte, error) {
	bm, ok := s.base.(encoding.BinaryMarshaler)
	if !ok {
		return nil, fmt.Errorf("predict: seasonal base %s is not checkpointable", s.base.Name())
	}
	inner, err := bm.MarshalBinary()
	if err != nil {
		return nil, err
	}
	var e binenc.Encoder
	e.U32(tagSeasonal)
	e.Blob(inner)
	e.U64(uint64(s.period))
	e.Floats(s.history)
	e.F64(s.baseErr)
	e.F64(s.seasonErr)
	e.Bool(s.warm)
	return e.B, nil
}

// UnmarshalBinary implements encoding.BinaryUnmarshaler; the base predictor
// must itself be a BinaryUnmarshaler.
func (s *Seasonal) UnmarshalBinary(data []byte) error {
	bu, ok := s.base.(encoding.BinaryUnmarshaler)
	if !ok {
		return fmt.Errorf("predict: seasonal base %s is not checkpointable", s.base.Name())
	}
	d := openState(data, tagSeasonal)
	inner := d.Blob()
	period := int(d.U64())
	history := d.Floats()
	baseErr, seasonErr := d.F64(), d.F64()
	warm := d.Bool()
	if err := finish(&d, "seasonal"); err != nil {
		return err
	}
	if period != s.period {
		return fmt.Errorf("predict: seasonal: state period %d, predictor configured for %d", period, s.period)
	}
	if err := bu.UnmarshalBinary(inner); err != nil {
		return err
	}
	s.history = history
	s.baseErr, s.seasonErr = baseErr, seasonErr
	s.warm = warm
	return nil
}

// MarshalBinary implements encoding.BinaryMarshaler. Only the cursor is
// state; the true sequence is construction configuration.
func (o *Offline) MarshalBinary() ([]byte, error) {
	var e binenc.Encoder
	e.U32(tagOffline)
	e.U64(uint64(o.idx))
	return e.B, nil
}

// UnmarshalBinary implements encoding.BinaryUnmarshaler.
func (o *Offline) UnmarshalBinary(data []byte) error {
	d := openState(data, tagOffline)
	idx := int(d.U64())
	if err := finish(&d, "offline"); err != nil {
		return err
	}
	if idx < 0 {
		return fmt.Errorf("predict: offline: cursor %d < 0", idx)
	}
	o.idx = idx
	return nil
}
