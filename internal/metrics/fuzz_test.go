package metrics

import (
	"encoding/binary"
	"math"
	"testing"
)

// FuzzSamplePercentile drives one Sample through arbitrary sequences of Add,
// TrimFront, TrimBack, Reset and queries, and requires every order statistic
// to equal, bit for bit, the sorted lookup that selection replaced. Each op
// byte below 0xE0 adds a small value (heavy ties); 0xE0–0xEF adds the raw
// float64 in the next 8 bytes, infinities and NaN included; 0xF0–0xF7 trims
// the front and 0xF8–0xFD the back by the low bits; 0xFE resets; 0xFF
// queries. A zero is added as +0 and a NaN as math.NaN(): those are the only
// values that compare equal without sharing their bits, so the sort's
// arbitrary order among them cannot show up as a difference.
func FuzzSamplePercentile(f *testing.F) {
	f.Add([]byte{120, 121, 122, 121, 120, 0xff, 119}, 95.0)
	f.Add([]byte{112, 112, 112, 0xff, 0xf1, 0xff}, 50.0)
	f.Add([]byte{200, 7, 7, 0xfa, 7, 0xfe, 9, 1, 0xff}, 99.9)
	f.Add([]byte{0xe0, 0, 0, 0, 0, 0, 0, 0xf0, 0x7f, 3, 4, 0xff}, 0.5)
	f.Fuzz(func(t *testing.T, ops []byte, p float64) {
		if p != p {
			p = 50 // a NaN percentile has no rank
		}
		s, ref := NewSample(0), &sortRef{}
		add := func(x float64) {
			if x == 0 {
				x = 0
			}
			if x != x {
				x = math.NaN()
			}
			s.Add(x)
			ref.add(x)
		}
		check := func() {
			ps := []float64{p, 0, 50, 95, 99, 100}
			xs := []float64{p / 8, 0, math.Inf(1), math.NaN()}
			requireRefBits(t, s, ref, ps, xs)
		}
		for i := 0; i < len(ops); i++ {
			switch b := ops[i]; {
			case b < 0xe0:
				add(float64(int(b)-112) / 8)
			case b < 0xf0:
				if i+8 < len(ops) {
					add(math.Float64frombits(binary.LittleEndian.Uint64(ops[i+1:])))
					i += 8
				}
			case b < 0xf8:
				s.TrimFront(int(b & 7))
				ref.trimFront(int(b & 7))
			case b < 0xfe:
				s.TrimBack(int(b - 0xf8))
				ref.trimBack(int(b - 0xf8))
			case b == 0xfe:
				s.Reset()
				ref.xs = ref.xs[:0]
			default:
				check()
			}
		}
		check()
	})
}
