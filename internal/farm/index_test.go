package farm

import (
	"math/rand"
	"testing"

	"sleepscale/internal/par"
	"sleepscale/internal/queue"
)

// deepCfg is a three-phase sleep ladder whose boundaries (0.05 s, 0.5 s, 2 s)
// fall inside the test streams' idle gaps, so the least-work-left index
// exercises every bucket and bucket crossing, not just the pre-sleep window.
func deepCfg() queue.Config {
	return queue.Config{
		Frequency: 1, FreqExponent: 1, ActivePower: 250, IdlePower: 120,
		Phases: []queue.SleepPhase{
			{Name: "c1", Power: 60, WakeLatency: 1e-3, EnterAfter: 0.05},
			{Name: "c3", Power: 30, WakeLatency: 0.01, EnterAfter: 0.5},
			{Name: "c6", Power: 8, WakeLatency: 0.05, EnterAfter: 2},
		},
	}
}

// indexedDispatchers returns fresh constructors for the disciplines that have
// an O(log k) routing index.
func indexedDispatchers() []struct {
	name string
	mk   func() Dispatcher
} {
	return []struct {
		name string
		mk   func() Dispatcher
	}{
		{"jsq", func() Dispatcher { return JSQ{} }},
		{"lwl", func() Dispatcher { return &LeastWorkLeft{} }},
	}
}

// scanOnly hides a VirtualRouter's routing index: the wrapper is not one of
// the exact types newRouteIndexFor recognizes, so the sliced driver routes
// it on the linear arm with the wrapped dispatcher's own RouteVirtual — the
// reference scan the index must match. Pick and Name are the wrapped
// dispatcher's.
type scanOnly struct{ Dispatcher }

func (s scanOnly) RouteVirtual(cfgs []queue.Config, freeAt, anchor []float64, j queue.Job) int {
	return s.Dispatcher.(VirtualRouter).RouteVirtual(cfgs, freeAt, anchor, j)
}

// linearOnly forces a VirtualRouter onto the linear routing arm; other
// dispatchers (the Preassigners) have only one sliced arm and pass through.
func linearOnly(d Dispatcher) Dispatcher {
	if _, ok := d.(VirtualRouter); ok {
		return scanOnly{d}
	}
	return d
}

// TestRoutingIndexEquivalenceFullDispatch pins indexed routing to the linear
// scans through complete simulations: for every dispatcher, seed and fleet
// size, the sequential Pick dispatch, the sliced dispatch on the linear arm
// (the dispatcher wrapped by linearOnly) and the sliced dispatch through the
// index must produce bit-identical results. k = 1 degenerates the tree to a
// single leaf; 7 is a non-power of two (padded leaves in play); 1000 runs the
// descent ten levels deep.
func TestRoutingIndexEquivalenceFullDispatch(t *testing.T) {
	for _, k := range []int{1, 7, 1000} {
		jobs := 20000
		if k >= 1000 {
			jobs = 4000 // the O(k)-per-job reference paths dominate the cost
		}
		// Every dispatch path — Pick, the index and the linear arm — prices
		// least-work-left from the engines' live configuration.
		disps := []struct {
			name string
			mk   func() Dispatcher
		}{
			{"round-robin", func() Dispatcher { return &RoundRobin{} }},
			{"random", func() Dispatcher { return &Random{Rng: rand.New(rand.NewSource(77))} }},
			{"jsq", func() Dispatcher { return JSQ{} }},
			{"pd2", func() Dispatcher { return &PowerOfD{D: 2, Rng: rand.New(rand.NewSource(55))} }},
			{"pd3", func() Dispatcher { return &PowerOfD{D: 3, Rng: rand.New(rand.NewSource(56))} }},
			{"lwl", func() Dispatcher { return &LeastWorkLeft{} }},
		}
		for _, seed := range []int64{1, 2, 3} {
			stream := expJobs(jobs, 10*float64(k), 5, seed)
			for _, d := range disps {
				want, err := DispatchSource(k, deepCfg(), d.mk(), &sliceSource{jobs: stream}, DispatchOptions{})
				if err != nil {
					t.Fatalf("k=%d seed=%d %s sequential: %v", k, seed, d.name, err)
				}
				indexed, err := DispatchSource(k, deepCfg(), d.mk(), &sliceSource{jobs: stream},
					DispatchOptions{Parallel: true, SliceJobs: 777})
				if err != nil {
					t.Fatalf("k=%d seed=%d %s indexed: %v", k, seed, d.name, err)
				}
				requireResultsEqual(t, indexed, want)
				linear, err := DispatchSource(k, deepCfg(), linearOnly(d.mk()), &sliceSource{jobs: stream},
					DispatchOptions{Parallel: true, SliceJobs: 777})
				if err != nil {
					t.Fatalf("k=%d seed=%d %s linear: %v", k, seed, d.name, err)
				}
				requireResultsEqual(t, linear, want)
			}
		}
	}
}

// shadowState builds a randomized freeAt/anchor shadow: freeAt scattered
// around the stream's opening arrivals (so servers straddle the busy/idle
// boundary), with a quarter of the anchors pushed past freeAt — the state a
// SetConfigAt during an idle period leaves behind.
func shadowState(k int, seed int64) (freeAt, anchor []float64) {
	rng := rand.New(rand.NewSource(seed))
	freeAt = make([]float64, k)
	anchor = make([]float64, k)
	for i := range freeAt {
		freeAt[i] = rng.Float64() * 3
		anchor[i] = freeAt[i]
		if rng.Intn(4) == 0 {
			anchor[i] += rng.Float64() * 2
		}
	}
	return freeAt, anchor
}

// routeLinearReference advances one job through the linear-scan reference
// path exactly as the sliced driver's linear arm does: RouteVirtual over the
// per-server configuration snapshot, then the shadow commit under the picked
// server's configuration.
func routeLinearReference(disp Dispatcher, cfgs []queue.Config, freeAt, anchor []float64, j queue.Job) int {
	s := disp.(VirtualRouter).RouteVirtual(cfgs, freeAt, anchor, j)
	nf := cfgs[s].NextFreeAtAnchored(freeAt[s], anchor[s], j)
	freeAt[s], anchor[s] = nf, nf
	return s
}

// TestRoutingIndexEquivalence10k drives the indexes decision by decision
// against the linear scans at fleet scale — k = 10,000, where a full farm
// comparison would be dominated by engine accounting — asserting every routing
// decision and the final shadow agree bitwise. The least-work-left cases
// price two different engine configurations, both from the configuration
// the index was reset with, exactly as the linear arm prices from its
// snapshot. One index instance is reused across all seeds of a case via
// reset, which is the rebuild path the sliced driver exercises per call.
func TestRoutingIndexEquivalence10k(t *testing.T) {
	const k = 10000
	slowEng := deepCfg()
	slowEng.Frequency = 0.8
	cases := []struct {
		name   string
		mk     func() Dispatcher
		engCfg queue.Config
	}{
		{"jsq", func() Dispatcher { return JSQ{} }, deepCfg()},
		{"lwl", func() Dispatcher { return &LeastWorkLeft{} }, deepCfg()},
		{"lwl-slow", func() Dispatcher { return &LeastWorkLeft{} }, slowEng},
	}
	for _, tc := range cases {
		disp := tc.mk()
		cfgs := make([]queue.Config, k)
		for s := range cfgs {
			cfgs[s] = tc.engCfg
		}
		var idx routeIndex
		var idxFree, idxAnchor []float64
		for _, seed := range []int64{1, 2, 3} {
			stream := expJobs(2000, 300, 5, seed)
			linFree, linAnchor := shadowState(k, seed*101)
			if idx == nil {
				idxFree = make([]float64, k)
				idxAnchor = make([]float64, k)
				idx = newRouteIndexFor(disp, idxFree, idxAnchor)
				if idx == nil {
					t.Fatalf("%s: no route index", tc.name)
				}
			}
			copy(idxFree, linFree)
			copy(idxAnchor, linAnchor)
			idx.reset(tc.engCfg)
			for i, j := range stream {
				want := routeLinearReference(disp, cfgs, linFree, linAnchor, j)
				got := idx.route(j)
				if got != want {
					t.Fatalf("%s seed=%d job %d (t=%g): indexed route %d, linear route %d",
						tc.name, seed, i, j.Arrival, got, want)
				}
			}
			for s := range linFree {
				if idxFree[s] != linFree[s] || idxAnchor[s] != linAnchor[s] {
					t.Fatalf("%s seed=%d: shadow diverges at server %d: indexed (%.17g, %.17g) linear (%.17g, %.17g)",
						tc.name, seed, s, idxFree[s], idxAnchor[s], linFree[s], linAnchor[s])
				}
			}
		}
	}
}

// TestRoutingIndexRebuildAfterReset is the index lifecycle property: a warm
// farm Reset and re-served — same stream or a different one — must match a
// fresh farm bit for bit, which forces the cached index (and the anchored
// shadow) to rebuild correctly instead of leaking state across runs.
func TestRoutingIndexRebuildAfterReset(t *testing.T) {
	const k = 64
	streamA := expJobs(8000, 400, 5, 7)
	streamB := expJobs(5000, 250, 4, 8)
	for _, d := range indexedDispatchers() {
		f, err := New(k, deepCfg(), d.mk())
		if err != nil {
			t.Fatal(err)
		}
		serve := func(stream []queue.Job) Summary {
			t.Helper()
			if err := f.Reset(deepCfg()); err != nil {
				t.Fatal(err)
			}
			if _, err := f.ServeSourceSliced(&sliceSource{jobs: stream}, DispatchOptions{Parallel: true, SliceJobs: 333}); err != nil {
				t.Fatalf("%s: %v", d.name, err)
			}
			return f.FinishSummary(f.LastFree())
		}
		fresh := func(stream []queue.Job) Summary {
			t.Helper()
			res, err := DispatchSource(k, deepCfg(), d.mk(), &sliceSource{jobs: stream}, DispatchOptions{})
			if err != nil {
				t.Fatal(err)
			}
			return Summary{Jobs: res.Jobs, MeanResponse: res.MeanResponse, TotalAvgPower: res.TotalAvgPower, Energy: res.Energy}
		}
		wantA, wantB := fresh(streamA), fresh(streamB)
		// Warm runs: A, then B (different stream through the same index),
		// then A again (rebuild after serving something else).
		for i, c := range []struct {
			stream []queue.Job
			want   Summary
		}{{streamA, wantA}, {streamB, wantB}, {streamA, wantA}} {
			if got := serve(c.stream); got != c.want {
				t.Fatalf("%s run %d: warm farm %+v, fresh farm %+v", d.name, i, got, c.want)
			}
		}
	}
}

// TestSlicedDispatchAgreesAcrossIdleSwitch pins the anchored shadow: after a
// SetConfigAt lands during an idle period (the idle anchor moves past
// freeAt), the sliced dispatch — indexed and linear — must still route
// exactly as the sequential Pick path. Before the anchor shadow both virtual
// paths assumed anchor == freeAt and diverged here.
func TestSlicedDispatchAgreesAcrossIdleSwitch(t *testing.T) {
	const k = 8
	warm := expJobs(600, 40, 5, 3)
	tail := expJobs(600, 40, 5, 4)
	switchAt := warm[len(warm)-1].Arrival + 1.5 // inside the idle gap for most servers
	for i := range tail {
		tail[i].Arrival += switchAt + 0.5
	}
	for _, d := range indexedDispatchers() {
		serve := func(disp Dispatcher, opts DispatchOptions) Summary {
			t.Helper()
			f, err := New(k, deepCfg(), disp)
			if err != nil {
				t.Fatal(err)
			}
			run := func(stream []queue.Job) {
				t.Helper()
				if opts.Parallel {
					if _, err := f.ServeSourceSliced(&sliceSource{jobs: stream}, opts); err != nil {
						t.Fatalf("%s: %v", d.name, err)
					}
				} else if _, err := f.ServeSource(&sliceSource{jobs: stream}); err != nil {
					t.Fatalf("%s: %v", d.name, err)
				}
			}
			run(warm)
			for s := 0; s < k; s++ {
				if err := f.Server(s).SetConfigAt(switchAt, deepCfg()); err != nil {
					t.Fatal(err)
				}
			}
			run(tail)
			return f.FinishSummary(f.LastFree())
		}
		want := serve(d.mk(), DispatchOptions{})
		if got := serve(d.mk(), DispatchOptions{Parallel: true, SliceJobs: 97}); got != want {
			t.Fatalf("%s indexed diverges across idle switch:\n got %+v\nwant %+v", d.name, got, want)
		}
		if got := serve(linearOnly(d.mk()), DispatchOptions{Parallel: true, SliceJobs: 97}); got != want {
			t.Fatalf("%s linear diverges across idle switch:\n got %+v\nwant %+v", d.name, got, want)
		}
	}
}

// TestSlicedDispatchStaysPooled fails if the sliced parallel mode's per-slice
// fan-out ran inline serial on a multi-executor pool — the silent degradation
// the run-queue pool redesign removed. On a single-executor default pool the
// parallel path is structurally serial, so there is nothing to assert.
func TestSlicedDispatchStaysPooled(t *testing.T) {
	pool := par.Default()
	if pool.Size() < 2 {
		t.Skipf("default pool has %d executor(s); parallel path is structurally serial here", pool.Size())
	}
	before := pool.Stats()
	jobs := expJobs(20000, 40, 5, 9)
	if _, err := DispatchSource(16, deepCfg(), JSQ{}, &sliceSource{jobs: jobs},
		DispatchOptions{Parallel: true, SliceJobs: 512}); err != nil {
		t.Fatal(err)
	}
	after := pool.Stats()
	if after.Inline != before.Inline {
		t.Errorf("sliced dispatch ran %d slice barriers inline serial on a %d-executor pool",
			after.Inline-before.Inline, pool.Size())
	}
	if after.Pooled == before.Pooled {
		t.Error("sliced dispatch never reached the worker pool")
	}
}
