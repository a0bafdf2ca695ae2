package farm

import (
	"encoding/binary"
	"math"
	"testing"

	"sleepscale/internal/queue"
)

// fuzzInput reads a fuzz input front to back; reads past its end yield zero
// bytes, so every input decodes to a complete case.
type fuzzInput []byte

func (in *fuzzInput) byte() byte {
	if len(*in) == 0 {
		return 0
	}
	b := (*in)[0]
	*in = (*in)[1:]
	return b
}

// value decodes one non-negative finite float64 from a tag byte t, relative
// to prev (non-negative and finite):
//
//   - t%4 == 0: the raw pattern in the next 8 bytes (little endian), sign
//     cleared and reduced below +Inf, so denormals and huge keys occur;
//   - t%4 == 1: the dyadic (t>>2)/8;
//   - t%4 == 2: prev moved up by t>>2 ulps (t == 6: the adjacent float);
//   - t%4 == 3: prev moved down by t>>2 ulps, floored at 0.
func (in *fuzzInput) value(prev float64) float64 {
	t := in.byte()
	n := int64(t >> 2)
	switch t & 3 {
	case 0:
		var raw [8]byte
		for i := range raw {
			raw[i] = in.byte()
		}
		u := binary.LittleEndian.Uint64(raw[:]) &^ (1 << 63)
		return math.Float64frombits(u % math.Float64bits(math.Inf(1)))
	case 1:
		return float64(n) / 8
	case 2:
		return fromOrdered(min(ordered(prev)+n, ordered(math.MaxFloat64)))
	default:
		return fromOrdered(max(ordered(prev)-n, 0))
	}
}

// fuzzConfigs is the fuzz target's configuration set: a plain f = 1, β = 1
// server with no sleep phases, then the fleet's shapes (fleetMix).
func fuzzConfigs() []queue.Config {
	plain := queue.Config{Frequency: 1, FreqExponent: 1, ActivePower: 100, IdlePower: 50}
	return append([]queue.Config{plain}, fleetMix()...)
}

// fuzzRepro encodes a k = 16 case of fuzzConfigs()[pick] on every server
// with servers 0 and 1 at free0 and free1, every other server busy until 100,
// and one job: the shape of TestRoutingIndexTiesAfterRounding's cases.
func fuzzRepro(pick byte, free0, free1, arrival float64, size byte) []byte {
	raw := func(x float64) []byte {
		return binary.LittleEndian.AppendUint64([]byte{0}, math.Float64bits(x))
	}
	in := []byte{15, 1, pick} // k = 16, uniform
	in = append(in, make([]byte, 15)...)
	for s := 0; s < 16; s++ {
		free := 100.0
		switch s {
		case 0:
			free = free0
		case 1:
			free = free1
		}
		in = append(in, raw(free)...)
		in = append(in, 1) // anchor = max(freeAt, 0) = freeAt
	}
	in = append(in, raw(arrival)...)
	return append(in, size)
}

// FuzzRouteIndex checks the routing indexes against routeLinearReference, the
// scan the serve loop's linear arm runs, decision by decision and the final
// shadow bit for bit: JSQ over any configuration mix, least-work-left over
// uniform ones (its index must refuse every other mix). It follows the
// big-integer differential check of a fast multiply: the reference is the
// plain definition, the subject the fast structure.
//
// An input decodes as: k = 1 + byte%64; a flags byte whose bit 0 gives every
// server server 0's configuration; one configuration pick per server from
// fuzzConfigs; per server, freeAt = value(previous server's freeAt) and
// anchor = max(freeAt, value(freeAt)); then jobs until the input runs out,
// each with arrival = max(previous arrival, value(previous arrival)) and size
// byte/16. The seeds include every repro of
// TestRoutingIndexTiesAfterRounding.
func FuzzRouteIndex(f *testing.F) {
	u := math.Ldexp(1, -50)
	boundary := 3 + 0.05
	f.Add(fuzzRepro(0, 4+3*u, 4+2*u, u/2, 16))
	f.Add(fuzzRepro(0, 1+math.Ldexp(1, -52), 1, 0.5, 16))
	f.Add(fuzzRepro(1, 3, boundary+0.5e-3, boundary, 16))
	f.Add([]byte{6, 0, 1, 2, 3, 4, 0, 1, 9, 1, 6, 10, 6, 1, 17, 1, 6, 2, 3, 5, 8, 9, 1, 40, 6, 3, 14, 7, 6, 9, 30, 1, 100, 2})
	f.Add([]byte{39, 1, 2, 5, 1, 9, 6, 21, 1, 13, 1, 6, 0, 5, 6, 7, 6, 8, 5, 9})
	f.Fuzz(func(t *testing.T, data []byte) {
		in := fuzzInput(data)
		k := 1 + int(in.byte()%64)
		uniform := in.byte()&1 != 0
		set := fuzzConfigs()
		cfgs := make([]queue.Config, k)
		same := true // the set's entries are pairwise distinct
		first := int(in.byte()) % len(set)
		for s := range cfgs {
			pick := first
			if s > 0 {
				if pick = int(in.byte()) % len(set); uniform {
					pick = first
				}
			}
			cfgs[s] = set[pick]
			same = same && pick == first
		}
		freeAt := make([]float64, k)
		anchor := make([]float64, k)
		prev := 0.0
		for s := range freeAt {
			freeAt[s] = in.value(prev)
			anchor[s] = max(freeAt[s], in.value(freeAt[s]))
			prev = freeAt[s]
		}
		var jobs []queue.Job
		for arrival := 0.0; len(in) > 0; {
			arrival = max(arrival, in.value(arrival))
			jobs = append(jobs, queue.Job{Arrival: arrival, Size: float64(in.byte()) / 16})
		}

		for _, disp := range []Dispatcher{JSQ{}, &LeastWorkLeft{}} {
			idxFree := append([]float64(nil), freeAt...)
			idxAnchor := append([]float64(nil), anchor...)
			linFree := append([]float64(nil), freeAt...)
			linAnchor := append([]float64(nil), anchor...)
			idx := newRouteIndexFor(disp, idxFree, idxAnchor)
			_, isJSQ := disp.(JSQ)
			if got := idx.reset(cfgs); got != (isJSQ || same) {
				t.Fatalf("%s: reset accepted=%v over a snapshot with uniform=%v", disp.Name(), got, same)
			}
			if !isJSQ && !same {
				continue
			}
			for i, j := range jobs {
				want := routeLinearReference(disp, cfgs, linFree, linAnchor, j)
				if got := idx.route(j); got != want {
					t.Fatalf("%s k=%d job %d (arrival %v, size %v): indexed route %d, linear route %d",
						disp.Name(), k, i, j.Arrival, j.Size, got, want)
				}
			}
			requireShadowEqual(t, disp.Name(), idxFree, idxAnchor, linFree, linAnchor)
		}
	})
}
