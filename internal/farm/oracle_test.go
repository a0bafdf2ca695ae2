package farm

import (
	"hash/fnv"
	"math"
	"math/rand"
	"testing"

	"sleepscale/internal/queue"
)

// refPick is the test-only routing oracle: every dispatcher's rule stated
// against live engines (Backlog, NextFreeAt) instead of the freeAt/anchor
// shadow the serve loop routes by. It consumes dispatcher state draw for
// draw as RouteVirtual does, so a reference run and a served run started
// from equal dispatcher states route the same stream identically. Wrappers
// that hide a dispatcher's routing index (scanOnly) route by the wrapped
// rule. Nothing outside the tests routes by reading engines, so this is the
// one independent check of the shadow arithmetic.
func refPick(f *Farm, disp Dispatcher, j queue.Job) int {
	k := len(f.engines)
	switch d := disp.(type) {
	case scanOnly:
		return refPick(f, d.Dispatcher, j)
	case *RoundRobin:
		i := d.next % k
		d.next++
		return i
	case *Random:
		return d.Rng.Intn(k)
	case JSQ:
		best, bestWork := 0, f.engines[0].Backlog(j.Arrival)
		for i := 1; i < k; i++ {
			if w := f.engines[i].Backlog(j.Arrival); w < bestWork {
				best, bestWork = i, w
			}
		}
		return best
	case *PowerOfD:
		best, bestWork := -1, 0.0
		for c := 0; c < d.D; c++ {
			i := d.Rng.Intn(k)
			w := f.engines[i].Backlog(j.Arrival)
			if best < 0 || w < bestWork || (w == bestWork && i < best) {
				best, bestWork = i, w
			}
		}
		return best
	case *LeastWorkLeft:
		best, bestDone := 0, 0.0
		for i, eng := range f.engines {
			done := eng.NextFreeAt(j)
			if i == 0 || done < bestDone {
				best, bestDone = i, done
			}
		}
		return best
	}
	panic("refPick: unsupported dispatcher " + disp.Name())
}

// refServe serves jobs on f's engines one by one, routed by the oracle,
// returning each job's response time and server.
func refServe(t *testing.T, f *Farm, disp Dispatcher, jobs []queue.Job) (resp []float64, srv []int) {
	t.Helper()
	resp = make([]float64, len(jobs))
	srv = make([]int, len(jobs))
	for i, j := range jobs {
		s := refPick(f, disp, j)
		r, err := f.engines[s].Process(j)
		if err != nil {
			t.Fatalf("%s oracle job %d: %v", disp.Name(), i, err)
		}
		resp[i], srv[i] = r, s
	}
	return resp, srv
}

// refRun is the oracle's farm.Run: a fresh uniform farm served by refServe
// and finished at the last departure.
func refRun(t *testing.T, k int, cfg queue.Config, disp Dispatcher, jobs []queue.Job) Result {
	t.Helper()
	f, err := New(k, cfg, disp)
	if err != nil {
		t.Fatal(err)
	}
	refServe(t, f, disp, jobs)
	res, err := f.Finish(f.LastFree())
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// refHet is refRun over hetFarm's per-server configurations.
func refHet(t *testing.T, k int, disp Dispatcher, jobs []queue.Job) Result {
	t.Helper()
	f := hetFarm(t, k, disp)
	refServe(t, f, disp, jobs)
	res, err := f.Finish(f.LastFree())
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// requireServeMatches compares a served farm with the oracle's reference farm
// job by job (response and server) and engine by engine (Snapshot).
func requireServeMatches(t *testing.T, name string, got *Farm, gotResp []float64, gotSrv []int, ref *Farm, refResp []float64, refSrv []int) {
	t.Helper()
	for i := range refResp {
		if gotSrv[i] != refSrv[i] || gotResp[i] != refResp[i] {
			t.Fatalf("%s job %d: served (%.17g, server %d), oracle (%.17g, server %d)",
				name, i, gotResp[i], gotSrv[i], refResp[i], refSrv[i])
		}
	}
	for s := range ref.engines {
		if g, w := got.engines[s].Snapshot(), ref.engines[s].Snapshot(); g != w {
			t.Fatalf("%s server %d: totals %+v, oracle %+v", name, s, g, w)
		}
	}
}

// TestServeSourceMatchesOracle pins the one serve loop to the oracle job by
// job: every dispatcher, on both routing arms (the dispatcher as built,
// which takes the index on a farm of at least indexFrom servers whose
// configurations the index accepts — JSQ's any, least-work-left's uniform
// ones — and wrapped in scanOnly, which always scans), over uniform and
// heterogeneous farms at k ∈ {1, 4, 7, 64, 300, 1000}.
func TestServeSourceMatchesOracle(t *testing.T) {
	for _, k := range []int{1, 4, 7, 64, 300, 1000} {
		n := 6000
		if k >= 300 {
			n = 2000 // the O(k)-per-job oracle and linear arm dominate the cost
		}
		jobs := expJobs(n, 2*float64(k), 5, int64(k))
		for _, het := range []bool{false, true} {
			for _, d := range dispatchers() {
				for _, linear := range []bool{false, true} {
					build := func(disp Dispatcher) *Farm {
						if het {
							return hetFarm(t, k, disp)
						}
						f, err := New(k, deepCfg(), disp)
						if err != nil {
							t.Fatal(err)
						}
						return f
					}
					refDisp := d.mk()
					ref := build(refDisp)
					refResp, refSrv := refServe(t, ref, refDisp, jobs)

					disp := d.mk()
					if linear {
						disp = scanOnly{disp}
					}
					f := build(disp)
					resp := make([]float64, len(jobs))
					srv := make([]int, len(jobs))
					f.RecordServe(resp, srv)
					served, err := f.ServeSource(&sliceSource{jobs: jobs})
					name := d.name
					if linear {
						name += " linear"
					}
					if het {
						name += " het"
					}
					if err != nil {
						t.Fatalf("k=%d %s: %v", k, name, err)
					}
					if served != len(jobs) {
						t.Fatalf("k=%d %s served %d of %d", k, name, served, len(jobs))
					}
					requireServeMatches(t, name, f, resp, srv, ref, refResp, refSrv)
				}
			}
		}
	}
}

// pinFNV folds a farm Result into one FNV-64a digest through
// math.Float64bits: the aggregates, then each server's jobs, energy, P95
// response, wakes and job share.
func pinFNV(res Result) uint64 {
	h := fnv.New64a()
	var b [8]byte
	put := func(u uint64) {
		for i := range b {
			b[i] = byte(u >> (8 * i))
		}
		h.Write(b[:])
	}
	put(uint64(res.Jobs))
	put(math.Float64bits(res.MeanResponse))
	put(math.Float64bits(res.TotalAvgPower))
	put(math.Float64bits(res.Energy))
	for i, s := range res.PerServer {
		put(uint64(s.Jobs))
		put(math.Float64bits(s.Energy))
		put(math.Float64bits(s.ResponseP95))
		put(uint64(s.Wakes))
		put(math.Float64bits(res.JobShare[i]))
	}
	return h.Sum64()
}

// TestDispatchSourceParentPins pins DispatchSource to digests recorded from
// the job-by-job dispatch loop that read live engines, before the shadow
// loop replaced it: every dispatcher at k ∈ {1, 4, 64, 1000} and seeds 1
// and 2 on deepCfg. The oracle suite checks the loop against refPick; these
// pins catch an oracle that shares a bug with the loop.
func TestDispatchSourceParentPins(t *testing.T) {
	mk := map[string]func() Dispatcher{
		"rr":     func() Dispatcher { return &RoundRobin{} },
		"random": func() Dispatcher { return &Random{Rng: rand.New(rand.NewSource(77))} },
		"jsq":    func() Dispatcher { return JSQ{} },
		"pd2":    func() Dispatcher { return &PowerOfD{D: 2, Rng: rand.New(rand.NewSource(55))} },
		"lwl":    func() Dispatcher { return &LeastWorkLeft{} },
	}
	for _, tc := range []struct {
		k    int
		disp string
		pins [2]uint64
	}{
		{1, "rr", [2]uint64{0x40e4daf25ea303a6, 0x8deaa4e394c2a069}},
		{1, "random", [2]uint64{0x40e4daf25ea303a6, 0x8deaa4e394c2a069}},
		{1, "jsq", [2]uint64{0x40e4daf25ea303a6, 0x8deaa4e394c2a069}},
		{1, "pd2", [2]uint64{0x40e4daf25ea303a6, 0x8deaa4e394c2a069}},
		{1, "lwl", [2]uint64{0x40e4daf25ea303a6, 0x8deaa4e394c2a069}},
		{4, "rr", [2]uint64{0x435edcfb65b1659f, 0xba761b98f2ef3dc1}},
		{4, "random", [2]uint64{0x49a55ece97530eac, 0xfb56262b10aaf1f3}},
		{4, "jsq", [2]uint64{0xd9d187de7d4d140b, 0x11a8434c3fa1aed6}},
		{4, "pd2", [2]uint64{0xad06166b8ed643af, 0x0bfadbf7d6cef9e7}},
		{4, "lwl", [2]uint64{0x89e118a493d9891a, 0x9603a85630e819f6}},
		{64, "rr", [2]uint64{0x0276c1ba6e58b0dd, 0x304a0ea8e077d7fb}},
		{64, "random", [2]uint64{0x480e6366c135f0c8, 0x2698b1d446d749e5}},
		{64, "jsq", [2]uint64{0x80b0cd8ee9c5395e, 0x5efe7931d1854396}},
		{64, "pd2", [2]uint64{0x693b60dbbedf9751, 0x8739e45f87429d08}},
		{64, "lwl", [2]uint64{0x1650a22d814bc1d3, 0x5584c4a423487517}},
		{1000, "rr", [2]uint64{0x59c9a2a0b2623285, 0x405c59e8a6174b46}},
		{1000, "random", [2]uint64{0x7854a5e88f64d657, 0x03ff7557cd9178bb}},
		{1000, "jsq", [2]uint64{0x583cdbc3d3eeb799, 0xe0fbdff88fac9ca0}},
		{1000, "pd2", [2]uint64{0x3c4e37e096962167, 0x0f88eeeb0e183a01}},
		{1000, "lwl", [2]uint64{0xf358c3c209cad227, 0x8f5e4875bc90bd7d}},
	} {
		n := 20000
		if tc.k >= 1000 {
			n = 8000
		}
		for si, seed := range []int64{1, 2} {
			jobs := expJobs(n, 2*float64(tc.k), 5, seed)
			res, err := DispatchSource(tc.k, deepCfg(), mk[tc.disp](), &sliceSource{jobs: jobs})
			if err != nil {
				t.Fatal(err)
			}
			if got := pinFNV(res); got != tc.pins[si] {
				t.Errorf("k=%d %s seed %d: FNV-64a %#016x, want %#016x", tc.k, tc.disp, seed, got, tc.pins[si])
			}
		}
	}
}
