package farm

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"sleepscale/internal/queue"
)

// dispatchers lists every discipline with fresh-state constructors, so each
// equivalence case routes from the same dispatcher state.
func dispatchers() []struct {
	name string
	mk   func() Dispatcher
} {
	return []struct {
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
}

// TestDispatchSourceMatchesRun pins the streamed dispatch (DispatchSource)
// and the materialized one (Run) to the oracle bit for bit, across every
// dispatcher (power-of-d and least-work-left included), three seeds and
// k ∈ {4, 300}: chunked pulls and in-place serving must never change a
// single routing decision or metric.
func TestDispatchSourceMatchesRun(t *testing.T) {
	for _, k := range []int{4, 300} {
		for _, seed := range []int64{1, 2, 3} {
			jobs := expJobs(6000, 2*float64(k), 5, seed)
			for _, d := range dispatchers() {
				want := refRun(t, k, testCfg(), d.mk(), jobs)

				got, err := DispatchSource(k, testCfg(), d.mk(), &sliceSource{jobs: jobs})
				if err != nil {
					t.Fatalf("k=%d seed %d %s: %v", k, seed, d.name, err)
				}
				requireResultsEqual(t, got, want)
				if got, err = Run(k, testCfg(), d.mk(), jobs); err != nil {
					t.Fatalf("k=%d seed %d %s run: %v", k, seed, d.name, err)
				}
				requireResultsEqual(t, got, want)
			}
		}
	}
}

// TestJSQVirtualRouterMatchesPick: JSQ's shadow routing must replicate the
// oracle's pick against live engines decision for decision, and the shadow
// recursion must track the engines' FreeAt exactly.
func TestJSQVirtualRouterMatchesPick(t *testing.T) {
	jobs := expJobs(5000, 12, 5, 13)
	const k = 4
	f, err := New(k, testCfg(), JSQ{})
	if err != nil {
		t.Fatal(err)
	}
	cfg := testCfg()
	freeAt := make([]float64, k)
	for i, j := range jobs {
		virtual := (JSQ{}).RouteVirtual(nil, freeAt, nil, j)
		if picked := refPick(f, JSQ{}, j); virtual != picked {
			t.Fatalf("job %d: virtual route %d, engine pick %d", i, virtual, picked)
		}
		if _, err := f.Server(virtual).Process(j); err != nil {
			t.Fatal(err)
		}
		freeAt[virtual] = cfg.NextFreeAt(freeAt[virtual], j)
		if got := f.Server(virtual).FreeAt(); got != freeAt[virtual] {
			t.Fatalf("job %d: shadow freeAt %.17g, engine %.17g", i, freeAt[virtual], got)
		}
	}
}

// TestDispatchParallelJSQGolden is the checked-in determinism snapshot for
// JSQ dispatch, first recorded from the time-sliced parallel merge: a
// fixed-seed stream across 5 servers must reproduce these exact aggregates.
// Regenerate deliberately with go test ./internal/farm -run
// ParallelJSQGolden -v and copy the logged values in.
func TestDispatchParallelJSQGolden(t *testing.T) {
	jobs := expJobs(30000, 18, 5, 2014)
	const k = 5
	res, err := DispatchSource(k, testCfg(), JSQ{}, &sliceSource{jobs: jobs})
	if err != nil {
		t.Fatal(err)
	}
	got := map[string]float64{
		"Jobs":          float64(res.Jobs),
		"MeanResponse":  res.MeanResponse,
		"TotalAvgPower": res.TotalAvgPower,
		"Energy":        res.Energy,
	}
	for s, sr := range res.PerServer {
		got["Server"+string(rune('0'+s))+".Jobs"] = float64(sr.Jobs)
		got["Server"+string(rune('0'+s))+".Energy"] = sr.Energy
	}
	for name, v := range got {
		t.Logf("golden %-16s %.17g", name, v)
	}
	golden := map[string]float64{
		"Jobs":           30000,
		"MeanResponse":   0.26498774294068933,
		"TotalAvgPower":  1010.7663743765854,
		"Energy":         1669046.4047101764,
		"Server0.Jobs":   7086,
		"Server0.Energy": 368790.54688545776,
		"Server1.Jobs":   6592,
		"Server1.Energy": 356102.64139828162,
		"Server2.Jobs":   6035,
		"Server2.Energy": 338186.79709980777,
		"Server3.Jobs":   5490,
		"Server3.Energy": 315473.36903038726,
		"Server4.Jobs":   4797,
		"Server4.Energy": 290493.050296242,
	}
	for name, want := range golden {
		tol := 1e-9 * math.Max(1, math.Abs(want))
		if math.Abs(got[name]-want) > tol {
			t.Errorf("%s = %.17g, want %.17g", name, got[name], want)
		}
	}
}

func TestDispatchSourceValidation(t *testing.T) {
	src := func() queue.JobSource { return &sliceSource{jobs: expJobs(10, 8, 5, 1)} }
	if _, err := DispatchSource(0, testCfg(), JSQ{}, src()); err == nil {
		t.Error("k=0 accepted")
	}
	if _, err := DispatchSource(2, testCfg(), nil, src()); err == nil {
		t.Error("nil dispatcher accepted")
	}
	if _, err := DispatchSource(2, testCfg(), JSQ{}, nil); err == nil {
		t.Error("nil source accepted")
	}
	if _, err := DispatchSource(2, queue.Config{}, JSQ{}, src()); err == nil {
		t.Error("invalid config accepted")
	}
}

// badRouter routes every job out of range.
type badRouter struct{ JSQ }

func (badRouter) RouteVirtual(_ []queue.Config, freeAt, _ []float64, _ queue.Job) int {
	return len(freeAt)
}

// TestDispatchParallelRejectsBadRoute: an out-of-range route is an error,
// on a small farm and a large one.
func TestDispatchParallelRejectsBadRoute(t *testing.T) {
	for _, k := range []int{3, 300} {
		f, err := New(k, testCfg(), badRouter{})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := f.ServeSource(&sliceSource{jobs: expJobs(100, 8, 5, 5)}); err == nil {
			t.Fatalf("k=%d: out-of-range route accepted", k)
		}
	}
}

func TestDispatchSourceSurfacesSourceError(t *testing.T) {
	for _, k := range []int{2, 300} {
		src := &failingFarmSource{sliceSource{jobs: expJobs(10, 8, 5, 2)}}
		if _, err := DispatchSource(k, testCfg(), JSQ{}, src); err == nil {
			t.Errorf("k=%d: source error not surfaced", k)
		}
	}
}

// TestServeSourceSlicedWarmReuse: a persistent farm driving Reset +
// ServeSource over a rewound stream — the steady-state pattern the farm
// benchmarks measure — must reproduce the one-shot DispatchSource result
// exactly, run after run, on a small farm and an indexed one.
func TestServeSourceSlicedWarmReuse(t *testing.T) {
	for _, k := range []int{4, 300} {
		jobs := expJobs(20000, 3*float64(k), 5, 41)
		want, err := DispatchSource(k, testCfg(), JSQ{}, &sliceSource{jobs: jobs})
		if err != nil {
			t.Fatal(err)
		}
		f, err := New(k, testCfg(), JSQ{})
		if err != nil {
			t.Fatal(err)
		}
		for run := 0; run < 3; run++ {
			if err := f.Reset(testCfg()); err != nil {
				t.Fatal(err)
			}
			served, err := f.ServeSource(&sliceSource{jobs: jobs})
			if err != nil {
				t.Fatal(err)
			}
			if served != len(jobs) {
				t.Fatalf("k=%d run %d served %d jobs, want %d", k, run, served, len(jobs))
			}
			sum := f.FinishSummary(f.LastFree())
			if sum.Jobs != want.Jobs || sum.MeanResponse != want.MeanResponse ||
				sum.TotalAvgPower != want.TotalAvgPower || sum.Energy != want.Energy {
				t.Fatalf("k=%d run %d summary diverged from one-shot dispatch:\n got %+v\nwant Jobs=%d Mean=%.17g Power=%.17g Energy=%.17g",
					k, run, sum, want.Jobs, want.MeanResponse, want.TotalAvgPower, want.Energy)
			}
		}
	}
}

// TestServeSourceSlicedZeroAllocSteadyState pins the serve loop's allocation
// contract on a small farm and an indexed one: once the farm's scratch is
// warm, Reset + ServeSource + FinishSummary allocates nothing. Skipped under
// -race, which instruments allocations (the non-race CI bench gate enforces
// the same contract via BENCH_farm.json).
func TestServeSourceSlicedZeroAllocSteadyState(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	for _, k := range []int{4, 300} {
		jobs := expJobs(8000, 3*float64(k), 5, 43)
		f, err := New(k, testCfg(), JSQ{})
		if err != nil {
			t.Fatal(err)
		}
		src := &sliceSource{jobs: jobs}
		if _, err := f.ServeSource(src); err != nil { // warm scratch
			t.Fatal(err)
		}
		cfg := testCfg()
		avg := testing.AllocsPerRun(3, func() {
			if err := f.Reset(cfg); err != nil {
				t.Fatal(err)
			}
			src.pos = 0
			if _, err := f.ServeSource(src); err != nil {
				t.Fatal(err)
			}
			_ = f.FinishSummary(f.LastFree())
		})
		if avg != 0 {
			t.Errorf("k=%d: steady-state dispatch allocates %.1f/run, want 0", k, avg)
		}
	}
}

// TestServeSourceSlicedPartialFailureConsistency: when an engine fails mid
// stream (a poisoned job), the count ServeSource returns must equal the jobs
// the engines actually served, on a small farm and an indexed one — a
// retained Farm stays internally consistent after an error return.
func TestServeSourceSlicedPartialFailureConsistency(t *testing.T) {
	for _, k := range []int{3, 300} {
		jobs := expJobs(3000, 3*float64(k), 5, 71)
		jobs[1500].Size = -1 // poison one job mid-stream
		f, err := New(k, testCfg(), JSQ{})
		if err != nil {
			t.Fatal(err)
		}
		served, err := f.ServeSource(&sliceSource{jobs: jobs})
		if err == nil {
			t.Fatalf("k=%d: poisoned stream accepted", k)
		}
		total := 0
		for s := 0; s < k; s++ {
			total += f.Server(s).Snapshot().Jobs
		}
		if served != total || served < 1000 {
			t.Errorf("k=%d: served %d, engines hold %d", k, served, total)
		}
	}
}

// TestFinishSummaryMatchesFinish: the scalar fleet aggregate must equal the
// corresponding fields of the full Finish result bit for bit.
func TestFinishSummaryMatchesFinish(t *testing.T) {
	jobs := expJobs(10000, 10, 5, 47)
	f, err := New(3, testCfg(), JSQ{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.ServeSource(&sliceSource{jobs: jobs}); err != nil {
		t.Fatal(err)
	}
	at := f.LastFree()
	sum := f.FinishSummary(at)
	res, err := f.Finish(at)
	if err != nil {
		t.Fatal(err)
	}
	if sum.Jobs != res.Jobs || sum.MeanResponse != res.MeanResponse ||
		sum.TotalAvgPower != res.TotalAvgPower || sum.Energy != res.Energy {
		t.Fatalf("FinishSummary %+v diverges from Finish (Jobs=%d Mean=%.17g Power=%.17g Energy=%.17g)",
			sum, res.Jobs, res.MeanResponse, res.TotalAvgPower, res.Energy)
	}
}

// TestPowerOfDProperties: pd1 is random dispatch with PowerOfD's comparator,
// pdK with a huge sample approximates JSQ's routing (ties may differ from
// index order under sampling, so compare response quality, not decisions),
// and dispatcher names identify the sample size.
func TestPowerOfDProperties(t *testing.T) {
	jobs := expJobs(30000, 12, 5, 59)
	const k = 4
	pd1, err := Run(k, testCfg(), &PowerOfD{D: 1, Rng: rand.New(rand.NewSource(7))}, jobs)
	if err != nil {
		t.Fatal(err)
	}
	pd2, err := Run(k, testCfg(), &PowerOfD{D: 2, Rng: rand.New(rand.NewSource(7))}, jobs)
	if err != nil {
		t.Fatal(err)
	}
	jsq, err := Run(k, testCfg(), JSQ{}, jobs)
	if err != nil {
		t.Fatal(err)
	}
	// The two-choices literature's claim, at this load a comfortable margin:
	// d=2 beats random (d=1), and full JSQ beats d=2.
	if pd2.MeanResponse >= pd1.MeanResponse {
		t.Errorf("pd2 response %v not below pd1 (random) %v", pd2.MeanResponse, pd1.MeanResponse)
	}
	if jsq.MeanResponse > pd2.MeanResponse {
		t.Errorf("jsq response %v above pd2 %v", jsq.MeanResponse, pd2.MeanResponse)
	}
	if (&PowerOfD{D: 2}).Name() != "pd2" || (&PowerOfD{D: 3}).Name() != "pd3" {
		t.Error("PowerOfD name")
	}
	if (&LeastWorkLeft{}).Name() != "least-work-left" {
		t.Error("LeastWorkLeft name")
	}
}

// shadowOf reads f's engines into the per-server shadow RouteVirtual takes:
// live configurations, availability and idle anchors.
func shadowOf(f *Farm) (cfgs []queue.Config, freeAt, anchor []float64) {
	cfgs = make([]queue.Config, f.Size())
	freeAt = make([]float64, f.Size())
	anchor = make([]float64, f.Size())
	for s := range cfgs {
		cfgs[s] = f.Server(s).Config()
		freeAt[s] = f.Server(s).FreeAt()
		anchor[s] = f.Server(s).IdleAnchor()
	}
	return cfgs, freeAt, anchor
}

// TestLeastWorkLeftPricesFirstWakeAfterIdleSwitch is the regression test for
// the mispriced idle anchor: a SetConfigAt during an idle period restarts the
// sleep-entry clock at the switch instant while freeAt stays at the last
// departure. Pricing the first wake from freeAt instead of the moved anchor
// charges a wake latency the engine will never pay — and here that made the
// rule route to the busier server.
func TestLeastWorkLeftPricesFirstWakeAfterIdleSwitch(t *testing.T) {
	cfg := testCfg()
	cfg.Phases[0].EnterAfter = 3 // sleep entered 3 s after the queue empties
	cfg.Phases[0].WakeLatency = 5
	lwl := &LeastWorkLeft{}
	f, err := New(2, cfg, lwl)
	if err != nil {
		t.Fatal(err)
	}
	// Server 0 departs at 10 and idles; server 1 is busy until 16.
	if _, err := f.Server(0).Process(queue.Job{Arrival: 0, Size: 10}); err != nil {
		t.Fatal(err)
	}
	if _, err := f.Server(1).Process(queue.Job{Arrival: 0, Size: 16}); err != nil {
		t.Fatal(err)
	}
	// The switch lands at t = 12, mid-idle on server 0: its sleep-entry clock
	// restarts there, so at t = 13 it is still in the pre-sleep window
	// (offset 1 < 3) and wakes for free.
	if err := f.Server(0).SetConfigAt(12, cfg); err != nil {
		t.Fatal(err)
	}
	j := queue.Job{Arrival: 13, Size: 1}
	// True completions: server 0 starts at 13 with no wake → done 14;
	// server 1 finishes its backlog at 16 → done 17. The old freeAt-anchored
	// pricing charged server 0 the 5 s wake (offset 13−10 = 3 ≥ 3) → 19, and
	// picked server 1.
	if done := f.Server(0).NextFreeAt(j); done != 14 {
		t.Fatalf("server 0 priced at %g, want 14 (no wake inside the restarted pre-sleep window)", done)
	}
	cfgs, freeAt, anchor := shadowOf(f)
	if got := lwl.RouteVirtual(cfgs, freeAt, anchor, j); got != 0 {
		t.Fatalf("RouteVirtual routed to server %d, want 0: the first wake after the idle switch is mispriced", got)
	}
	// The serve loop confirms the pricing: it routes to server 0, which
	// starts at arrival with no wake.
	if resp, srv := serveOne(t, f, j); srv != 0 || resp != 1 {
		t.Fatalf("served on server %d with response %g, want server 0 and 1 (start at arrival, no wake)", srv, resp)
	}
}

// TestLeastWorkLeftPricesWakeups: with one server mid-job and the others
// deep asleep behind a long wake latency, least-work-left routes a new
// arrival to the nearly-free busy server — the decision JSQ (backlog only)
// gets wrong — and its shadow routing agrees with the oracle's engine read.
func TestLeastWorkLeftPricesWakeups(t *testing.T) {
	cfg := testCfg()
	cfg.Phases[0].WakeLatency = 5 // sleeping servers pay 5 s to wake
	lwl := &LeastWorkLeft{}
	f, err := New(3, cfg, lwl)
	if err != nil {
		t.Fatal(err)
	}
	// Server 0 takes a 1 s job at t=1: one idle second of sleep, a 5 s
	// wake, service from t=6, free at t=7.
	if _, srv := serveOne(t, f, queue.Job{Arrival: 1, Size: 1}); srv != 0 {
		t.Fatalf("first job: srv=%d", srv)
	}
	// At t=6.9 server 0 is still busy (free at 7) but finishing within
	// 0.1 s; servers 1 and 2 are asleep and would pay 5 s of wake. JSQ
	// would route to an idle server (backlog 0); LWL must keep it on 0.
	j := queue.Job{Arrival: 6.9, Size: 1}
	cfgs, freeAt, anchor := shadowOf(f)
	if got := (JSQ{}).RouteVirtual(cfgs, freeAt, anchor, j); got == 0 {
		t.Fatalf("JSQ picked the busy server, the scenario is not discriminating")
	}
	if got := lwl.RouteVirtual(cfgs, freeAt, anchor, j); got != 0 {
		t.Errorf("LWL virtual route %d, want the nearly-free busy server 0", got)
	}
	if got := refPick(f, lwl, j); got != 0 {
		t.Errorf("LWL oracle picked server %d, want 0", got)
	}
}

// TestFarmResetReuse: a Reset farm re-serving the same stream must
// reproduce the first run exactly, with no state leaking across runs.
func TestFarmResetReuse(t *testing.T) {
	jobs := expJobs(10000, 10, 5, 17)
	f, err := New(3, testCfg(), JSQ{})
	if err != nil {
		t.Fatal(err)
	}
	run := func() Result {
		t.Helper()
		if err := f.Reset(testCfg()); err != nil {
			t.Fatal(err)
		}
		if _, err := f.ServeSource(&sliceSource{jobs: jobs}); err != nil {
			t.Fatal(err)
		}
		res, err := f.Finish(f.Server(0).FreeAt())
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	first := run()
	again := run()
	if first.Jobs != again.Jobs || first.MeanResponse != again.MeanResponse ||
		first.Energy != again.Energy || first.TotalAvgPower != again.TotalAvgPower {
		t.Fatalf("reset farm diverged:\nfirst %+v\nagain %+v", first, again)
	}
}

// TestServeSourceZeroAllocSteadyState pins the streamed dispatch loop's
// allocation contract at the package level (the root-level benchmark gates
// it in CI): after warm-up, Reset + ServeSource allocates nothing.
func TestServeSourceZeroAllocSteadyState(t *testing.T) {
	jobs := expJobs(5000, 10, 5, 23)
	f, err := New(4, testCfg(), JSQ{})
	if err != nil {
		t.Fatal(err)
	}
	src := &sliceSource{jobs: jobs}
	if _, err := f.ServeSource(src); err != nil { // warm buffers
		t.Fatal(err)
	}
	cfg := testCfg()
	avg := testing.AllocsPerRun(3, func() {
		if err := f.Reset(cfg); err != nil {
			t.Fatal(err)
		}
		src.pos = 0
		if _, err := f.ServeSource(src); err != nil {
			t.Fatal(err)
		}
	})
	if avg != 0 {
		t.Errorf("steady-state Reset+ServeSource allocates %.1f/run, want 0", avg)
	}
}

// hetConfigs returns three mutually distinct server configurations for the
// heterogeneous routing tests: different frequencies, powers and sleep
// schedules, as a per-server fleet policy would install.
func hetConfigs() []queue.Config {
	a := testCfg()
	b := testCfg()
	b.Frequency = 0.7
	b.ActivePower = 180
	b.IdlePower = 180
	b.Phases = []queue.SleepPhase{
		{Name: "sleep", Power: 40, WakeLatency: 5e-3, EnterAfter: 0.2},
	}
	c := testCfg()
	c.Frequency = 0.5
	c.Phases = nil // never sleeps
	return []queue.Config{a, b, c}
}

// hetFarm builds a k-server farm whose servers cycle through hetConfigs.
func hetFarm(t *testing.T, k int, disp Dispatcher) *Farm {
	t.Helper()
	cfgs := hetConfigs()
	f, err := New(k, cfgs[0], disp)
	if err != nil {
		t.Fatal(err)
	}
	for s := 1; s < k; s++ {
		if err := f.Server(s).SetConfigAt(0, cfgs[s%len(cfgs)]); err != nil {
			t.Fatal(err)
		}
	}
	return f
}

// TestServeSourceSlicedHeterogeneousMatchesSequential pins the per-server
// configuration routing paths — the linear arm's RouteVirtual over the
// configuration snapshot, which least-work-left prices from and power-of-d
// ignores, and at k = 300 JSQ's index, which advances each server under its
// own snapshot entry — to the oracle over live engines, bit for bit.
func TestServeSourceSlicedHeterogeneousMatchesSequential(t *testing.T) {
	disps := []struct {
		name string
		mk   func() Dispatcher
	}{
		{"jsq", func() Dispatcher { return JSQ{} }},
		{"pd2", func() Dispatcher { return &PowerOfD{D: 2, Rng: rand.New(rand.NewSource(42))} }},
		{"lwl", func() Dispatcher { return &LeastWorkLeft{} }},
	}
	for _, k := range []int{3, 300} {
		n := 20000
		if k >= 300 {
			n = 5000 // the O(k)-per-job oracle dominates the cost
		}
		for _, seed := range []int64{1, 2} {
			jobs := expJobs(n, 2*float64(k), 5, seed)
			for _, d := range disps {
				want := refHet(t, k, d.mk(), jobs)
				got := hetFarm(t, k, d.mk())
				if _, err := got.ServeSource(&sliceSource{jobs: jobs}); err != nil {
					t.Fatalf("%s k=%d seed %d: %v", d.name, k, seed, err)
				}
				res, err := got.Finish(got.LastFree())
				if err != nil {
					t.Fatal(err)
				}
				requireResultsEqual(t, res, want)
			}
		}
	}
}

// TestServeSourceSlicedHeterogeneousServesWrappedRouter: a wrapped
// dispatcher gets no routing index, so the loop routes it on the linear arm —
// which hands every RouteVirtual the per-server configuration snapshot. Over
// a heterogeneous farm the wrapped JSQ and least-work-left must therefore
// serve exactly as the oracle does.
func TestServeSourceSlicedHeterogeneousServesWrappedRouter(t *testing.T) {
	jobs := expJobs(5000, 6, 5, 3)
	for _, d := range []struct {
		name string
		mk   func() Dispatcher
	}{
		{"jsq", func() Dispatcher { return scanOnly{JSQ{}} }},
		{"lwl", func() Dispatcher { return scanOnly{&LeastWorkLeft{}} }},
	} {
		want := refHet(t, 3, d.mk(), jobs)
		got := hetFarm(t, 3, d.mk())
		if _, err := got.ServeSource(&sliceSource{jobs: jobs}); err != nil {
			t.Fatalf("%s: heterogeneous farm rejected a wrapped router: %v", d.name, err)
		}
		res, err := got.Finish(got.LastFree())
		if err != nil {
			t.Fatal(err)
		}
		requireResultsEqual(t, res, want)
	}
}

// TestRecordServeStreamOrder: RecordServe must land every response and
// server pick at the job's stream position, across pull chunks.
func TestRecordServeStreamOrder(t *testing.T) {
	for _, k := range []int{3, 300} {
		jobs := expJobs(5000, 2.5*float64(k), 5, 17)
		ref := hetFarm(t, k, JSQ{})
		wantResp, wantSrv := refServe(t, ref, JSQ{}, jobs)
		f := hetFarm(t, k, JSQ{})
		resp := make([]float64, len(jobs))
		srv := make([]int, len(jobs))
		f.RecordServe(resp, srv)
		if _, err := f.ServeSource(&sliceSource{jobs: jobs}); err != nil {
			t.Fatal(err)
		}
		requireServeMatches(t, fmt.Sprintf("k=%d", k), f, resp, srv, ref, wantResp, wantSrv)
	}
}
