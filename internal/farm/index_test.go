package farm

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

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

// scanOnly hides a dispatcher's routing index: the wrapper is not one of the
// exact types newRouteIndexFor recognizes, so the serve loop routes it on
// the linear arm with the wrapped dispatcher's own (promoted) RouteVirtual —
// the reference scan the index must match.
type scanOnly struct{ Dispatcher }

// TestRoutingIndexEquivalenceFullDispatch pins indexed routing to the linear
// scans through complete simulations: for every dispatcher, seed and fleet
// size, the oracle, DispatchSource on the linear arm (the dispatcher wrapped
// in scanOnly) and DispatchSource as built must produce bit-identical
// results. Below indexFrom both dispatches scan; at k = 64 and k = 1000 the
// built dispatch routes through the index, at k = 1000 its descent ten
// levels deep.
func TestRoutingIndexEquivalenceFullDispatch(t *testing.T) {
	for _, k := range []int{1, 7, 64, 1000} {
		jobs := 20000
		if k >= 1000 {
			jobs = 4000 // the O(k)-per-job reference paths dominate the cost
		}
		for _, seed := range []int64{1, 2, 3} {
			stream := expJobs(jobs, 10*float64(k), 5, seed)
			for _, d := range dispatchers() {
				want := refRun(t, k, deepCfg(), d.mk(), stream)
				indexed, err := DispatchSource(k, deepCfg(), d.mk(), &sliceSource{jobs: stream})
				if err != nil {
					t.Fatalf("k=%d seed=%d %s indexed: %v", k, seed, d.name, err)
				}
				requireResultsEqual(t, indexed, want)
				linear, err := DispatchSource(k, deepCfg(), scanOnly{d.mk()}, &sliceSource{jobs: stream})
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
// path: RouteVirtual over the per-server configuration snapshot, then the
// shadow commit under the picked server's configuration, the
// NextFreeAtAnchored advance the picked engine's Process mirrors.
func routeLinearReference(disp Dispatcher, cfgs []queue.Config, freeAt, anchor []float64, j queue.Job) int {
	s := disp.RouteVirtual(cfgs, freeAt, anchor, j)
	nf := cfgs[s].NextFreeAtAnchored(freeAt[s], anchor[s], j)
	freeAt[s], anchor[s] = nf, nf
	return s
}

// TestRoutingIndexEquivalence10k drives the indexes decision by decision
// against the linear scans at fleet scale — k = 10,000, where a full farm
// comparison would be dominated by engine accounting — asserting every routing
// decision and the final shadow agree bitwise.
func TestRoutingIndexEquivalence10k(t *testing.T) {
	requireIndexMatchesScan(t, 10000, 2000, 300)
}

// TestRoutingIndexEquivalence1k drives the indexes decision by decision at
// k = 1,000 under load heavy enough (ρ ≈ 0.8) that most picks take the busy
// branch, on uniform farms and on the fleet's configuration mixes.
func TestRoutingIndexEquivalence1k(t *testing.T) {
	requireIndexMatchesScan(t, 1000, 4000, 4000)
}

// TestRoutingIndexEquivalenceBelowThreshold drives the indexes decision by
// decision at k ∈ {1, 7}: below indexFrom full dispatch never reaches them,
// but a one-leaf tree and padded leaves must still route exactly.
func TestRoutingIndexEquivalenceBelowThreshold(t *testing.T) {
	for _, k := range []int{1, 7} {
		requireIndexMatchesScan(t, k, 4000, 2*float64(k))
	}
}

// fleetMix returns the configuration shapes a fleet runs side by side: the
// deep ladder at f = 1, its ≤C1 cap (a quorum member's plan), an
// immediate-halt plan (the cap of a plan that starts deep), and the ladder at
// f = 0.8.
func fleetMix() []queue.Config {
	capped := deepCfg()
	capped.Phases = capped.Phases[:1]
	halt := deepCfg()
	halt.Phases = []queue.SleepPhase{{Name: "halt", Power: 90, WakeLatency: 1e-5}}
	slow := deepCfg()
	slow.Frequency = 0.8
	return []queue.Config{deepCfg(), capped, halt, slow}
}

// requireIndexMatchesScan routes n-job streams at rate lambda through each
// index and through routeLinearReference over a randomized shadow of k
// servers, failing on the first differing decision or final shadow. Each
// case draws every server's configuration from its mix with a seeded
// permutation, so a mix of m shapes puts every shape on a farm of k ≥ m
// servers. JSQ's index must accept every snapshot and advance each server
// under its own entry; least-work-left's must accept exactly the uniform
// snapshots and price them from their one configuration, as the linear arm
// does from its snapshot. One index instance is reused across all seeds of a
// case via reset, which is the rebuild path the serve loop exercises per
// call.
func requireIndexMatchesScan(t *testing.T, k, n int, lambda float64) {
	t.Helper()
	mix := fleetMix()
	cases := []struct {
		name string
		mk   func() Dispatcher
		mix  []queue.Config
	}{
		{"jsq", func() Dispatcher { return JSQ{} }, mix[:1]},
		{"jsq-mix", func() Dispatcher { return JSQ{} }, mix},
		{"lwl", func() Dispatcher { return &LeastWorkLeft{} }, mix[:1]},
		{"lwl-slow", func() Dispatcher { return &LeastWorkLeft{} }, mix[3:]},
		{"lwl-mix", func() Dispatcher { return &LeastWorkLeft{} }, mix},
	}
	for _, tc := range cases {
		disp := tc.mk()
		_, isJSQ := disp.(JSQ)
		var idx routeIndex
		var idxFree, idxAnchor []float64
		for _, seed := range []int64{1, 2, 3} {
			stream := expJobs(n, lambda, 5, seed)
			linFree, linAnchor := shadowState(k, seed*101)
			perm := rand.New(rand.NewSource(seed * 103)).Perm(k)
			cfgs := make([]queue.Config, k)
			uniform := true
			for s := range cfgs {
				cfgs[s] = tc.mix[perm[s]%len(tc.mix)]
				uniform = uniform && perm[s]%len(tc.mix) == perm[0]%len(tc.mix)
			}
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
			if got, want := idx.reset(cfgs), isJSQ || uniform; got != want {
				t.Fatalf("k=%d %s seed=%d: reset accepted=%v, want %v", k, tc.name, seed, got, want)
			}
			if !isJSQ && !uniform {
				continue // the serve loop routes this snapshot on the linear arm
			}
			for i, j := range stream {
				want := routeLinearReference(disp, cfgs, linFree, linAnchor, j)
				got := idx.route(j)
				if got != want {
					t.Fatalf("k=%d %s seed=%d job %d (t=%g): indexed route %d, linear route %d",
						k, tc.name, seed, i, j.Arrival, got, want)
				}
			}
			requireShadowEqual(t, fmt.Sprintf("k=%d %s seed=%d", k, tc.name, seed), idxFree, idxAnchor, linFree, linAnchor)
		}
	}
}

// requireShadowEqual fails unless the indexed and linear shadows agree bit
// for bit.
func requireShadowEqual(t testing.TB, name string, idxFree, idxAnchor, linFree, linAnchor []float64) {
	t.Helper()
	for s := range linFree {
		if math.Float64bits(idxFree[s]) != math.Float64bits(linFree[s]) ||
			math.Float64bits(idxAnchor[s]) != math.Float64bits(linAnchor[s]) {
			t.Fatalf("%s: shadow diverges at server %d: indexed (%.17g, %.17g) linear (%.17g, %.17g)",
				name, s, idxFree[s], idxAnchor[s], linFree[s], linAnchor[s])
		}
	}
}

// TestRoutingIndexTiesAfterRounding pins the indexes to the scans where
// rounding, not the exact values, decides. Every case runs k = 16 servers of
// one configuration with every server but 0 and 1 busy until 100, and the
// scan routes each to server 0:
//
//   - JSQ, f = 1, β = 1, no phases: freeAt 4+3u and 4+2u (u = 2⁻⁵⁰, the ulp
//     at 4), arrival u/2. Both backlogs round to 4+2u, and the scan keeps
//     the lower index, where a bare tree minimum takes the smaller freeAt.
//   - Least-work-left, same configuration: freeAt 1+2⁻⁵² and 1, arrival 0.5,
//     size 1. Both completions round to 2.
//   - Least-work-left, deep ladder: server 0 idle since 3, server 1 busy
//     until t + 0.5 ms, arrival t = 3 + 0.05 as rounded. The rounded offset
//     t − 3 falls short of c1's EnterAfter 0.05, so the scan prices server 0
//     awake; a crossing scheduled at the rounded sum 3 + 0.05 would already
//     have fired and charged c1's 1 ms wake.
func TestRoutingIndexTiesAfterRounding(t *testing.T) {
	u := math.Ldexp(1, -50)
	plain := queue.Config{Frequency: 1, FreqExponent: 1, ActivePower: 100, IdlePower: 50}
	boundary := 3 + 0.05
	for _, tc := range []struct {
		name         string
		disp         Dispatcher
		cfg          queue.Config
		free0, free1 float64
		job          queue.Job
	}{
		{"jsq", JSQ{}, plain, 4 + 3*u, 4 + 2*u, queue.Job{Arrival: u / 2, Size: 1}},
		{"lwl", &LeastWorkLeft{}, plain, 1 + math.Ldexp(1, -52), 1, queue.Job{Arrival: 0.5, Size: 1}},
		{"lwl-phase-entry", &LeastWorkLeft{}, deepCfg(), 3, boundary + 0.5e-3, queue.Job{Arrival: boundary, Size: 1}},
	} {
		const k = 16
		cfgs := make([]queue.Config, k)
		linFree := make([]float64, k)
		for s := range cfgs {
			cfgs[s] = tc.cfg
			linFree[s] = 100
		}
		linFree[0], linFree[1] = tc.free0, tc.free1
		linAnchor := append([]float64(nil), linFree...)
		idxFree := append([]float64(nil), linFree...)
		idxAnchor := append([]float64(nil), linFree...)
		idx := newRouteIndexFor(tc.disp, idxFree, idxAnchor)
		if !idx.reset(cfgs) {
			t.Fatalf("%s: index refused a uniform farm", tc.name)
		}
		if want := routeLinearReference(tc.disp, cfgs, linFree, linAnchor, tc.job); want != 0 {
			t.Fatalf("%s: scan routes to %d; the repro needs it at 0", tc.name, want)
		}
		if got := idx.route(tc.job); got != 0 {
			t.Fatalf("%s: indexed route %d, linear route 0", tc.name, got)
		}
		requireShadowEqual(t, tc.name, idxFree, idxAnchor, linFree, linAnchor)
	}
}

// TestNonUniformJSQRoutesThroughIndex is the white-box guard on the routing
// arm: a JSQ farm of at least indexFrom servers running mixed configurations
// routes every job through its index. Only the index's own commits move its
// tree keys, so after a served stream they hold every engine's availability;
// router hands the index back for the next call. The same farm behind
// least-work-left, whose index prices one configuration, gets no index from
// router.
func TestNonUniformJSQRoutesThroughIndex(t *testing.T) {
	for _, k := range []int{indexFrom, 300} {
		jobs := expJobs(3000, 2*float64(k), 5, 11)
		f := hetFarm(t, k, JSQ{})
		if _, err := f.ServeSource(&sliceSource{jobs: jobs}); err != nil {
			t.Fatal(err)
		}
		x, ok := f.sc.idx.(*jsqIndex)
		if !ok {
			t.Fatalf("k=%d: no JSQ index built", k)
		}
		for s, eng := range f.engines {
			if x.tree.key[s] != eng.FreeAt() {
				t.Fatalf("k=%d: server %d has tree key %g but engine freeAt %g: the index did not route its jobs",
					k, s, x.tree.key[s], eng.FreeAt())
			}
		}
		if f.router() == nil {
			t.Fatalf("k=%d: router gives a non-uniform JSQ farm no index", k)
		}
		lwl := hetFarm(t, k, &LeastWorkLeft{})
		if _, err := lwl.ServeSource(&sliceSource{jobs: jobs}); err != nil {
			t.Fatal(err)
		}
		if lwl.router() != nil {
			t.Fatalf("k=%d: router gives a non-uniform least-work-left farm its index", k)
		}
	}
}

// TestRoutingIndexRebuildAfterReset is the index lifecycle property: a warm
// farm Reset and re-served — same stream or a different one — must match a
// fresh farm bit for bit, which forces the cached index (and the anchored
// shadow) to rebuild correctly instead of leaking state across runs, at
// k = 64 and k = 300.
func TestRoutingIndexRebuildAfterReset(t *testing.T) {
	for _, k := range []int{64, 300} {
		streamA := expJobs(8000, 6*float64(k), 5, 7)
		streamB := expJobs(5000, 4*float64(k), 4, 8)
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
				if _, err := f.ServeSource(&sliceSource{jobs: stream}); err != nil {
					t.Fatalf("%s: %v", d.name, err)
				}
				return f.FinishSummary(f.LastFree())
			}
			fresh := func(stream []queue.Job) Summary {
				t.Helper()
				res, err := DispatchSource(k, deepCfg(), d.mk(), &sliceSource{jobs: stream})
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
					t.Fatalf("k=%d %s run %d: warm farm %+v, fresh farm %+v", k, d.name, i, got, c.want)
				}
			}
		}
	}
}

// TestSlicedDispatchAgreesAcrossIdleSwitch pins the anchored shadow: after a
// SetConfigAt lands during an idle period (the idle anchor moves past
// freeAt), the serve loop — indexed and linear — must still route exactly as
// the oracle reading live engines. Before the anchor shadow both virtual
// paths assumed anchor == freeAt and diverged here.
func TestSlicedDispatchAgreesAcrossIdleSwitch(t *testing.T) {
	for _, k := range []int{8, 64, 300} {
		warm := expJobs(600, 5*float64(k), 5, 3)
		tail := expJobs(600, 5*float64(k), 5, 4)
		switchAt := warm[len(warm)-1].Arrival + 1.5 // inside the idle gap for most servers
		for i := range tail {
			tail[i].Arrival += switchAt + 0.5
		}
		for _, d := range indexedDispatchers() {
			serve := func(disp Dispatcher, oracle bool) Summary {
				t.Helper()
				f, err := New(k, deepCfg(), disp)
				if err != nil {
					t.Fatal(err)
				}
				run := func(stream []queue.Job) {
					t.Helper()
					if oracle {
						refServe(t, f, disp, stream)
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
			want := serve(d.mk(), true)
			if got := serve(d.mk(), false); got != want {
				t.Fatalf("k=%d %s diverges across idle switch:\n got %+v\nwant %+v", k, d.name, got, want)
			}
			if got := serve(scanOnly{d.mk()}, false); got != want {
				t.Fatalf("k=%d %s linear diverges across idle switch:\n got %+v\nwant %+v", k, d.name, got, want)
			}
		}
	}
}
