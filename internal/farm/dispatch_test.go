package farm

import (
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

// TestDispatchSourceMatchesRun pins the streamed dispatch loop — sequential
// and time-sliced parallel — to the materialized farm.Run reference bit for
// bit, across every dispatcher (power-of-d and least-work-left included),
// three seeds, and pool sizes 1, 2 and GOMAXPROCS (via DispatchOptions.
// Workers). This is the determinism contract of the pooled parallel mode:
// slicing, the persistent worker pool and its interleaving must never change
// a single routing decision or metric.
func TestDispatchSourceMatchesRun(t *testing.T) {
	const k = 4
	for _, seed := range []int64{1, 2, 3} {
		jobs := expJobs(20000, 10, 5, seed)
		for _, d := range dispatchers() {
			want := sequentialRun(t, k, testCfg(), d.mk(), jobs)

			seq, err := DispatchSource(k, testCfg(), d.mk(), &sliceSource{jobs: jobs}, DispatchOptions{})
			if err != nil {
				t.Fatalf("seed %d %s sequential: %v", seed, d.name, err)
			}
			requireResultsEqual(t, seq, want)

			// 0 = the whole process-wide pool (GOMAXPROCS executors).
			for _, workers := range []int{1, 2, 0} {
				// Odd slice size straddles chunk boundaries on purpose.
				par, err := DispatchSource(k, testCfg(), d.mk(), &sliceSource{jobs: jobs},
					DispatchOptions{Parallel: true, SliceJobs: 777, Workers: workers})
				if err != nil {
					t.Fatalf("seed %d %s parallel workers=%d: %v", seed, d.name, workers, err)
				}
				requireResultsEqual(t, par, want)
			}
		}
	}
}

// TestDispatchParallelSliceSizeInvariance: the slice size tunes barrier
// frequency only — results must be identical for any choice, including
// slices smaller than the pull chunk.
func TestDispatchParallelSliceSizeInvariance(t *testing.T) {
	jobs := expJobs(12000, 10, 5, 8)
	const k = 3
	want, err := DispatchSource(k, testCfg(), JSQ{}, &sliceSource{jobs: jobs}, DispatchOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for _, sliceJobs := range []int{0, 1, 100, 12000, 50000} {
		got, err := DispatchSource(k, testCfg(), JSQ{}, &sliceSource{jobs: jobs},
			DispatchOptions{Parallel: true, SliceJobs: sliceJobs})
		if err != nil {
			t.Fatalf("slice %d: %v", sliceJobs, err)
		}
		requireResultsEqual(t, got, want)
	}
}

// TestJSQVirtualRouterMatchesPick: the freeAt-shadow routing must replicate
// Pick against live engines decision for decision, and the shadow recursion
// must track the engines' FreeAt exactly.
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
		_, picked, err := f.Process(j)
		if err != nil {
			t.Fatal(err)
		}
		if virtual != picked {
			t.Fatalf("job %d: virtual route %d, engine pick %d", i, virtual, picked)
		}
		freeAt[virtual] = cfg.NextFreeAt(freeAt[virtual], j)
		if got := f.Server(virtual).FreeAt(); got != freeAt[virtual] {
			t.Fatalf("job %d: shadow freeAt %.17g, engine %.17g", i, freeAt[virtual], got)
		}
	}
}

// TestDispatchParallelJSQGolden is the checked-in determinism snapshot for
// the parallel JSQ merge: a fixed-seed stream across 5 servers must
// reproduce these exact aggregates. Regenerate deliberately with
// go test ./internal/farm -run ParallelJSQGolden -v and copy the logged
// values in.
func TestDispatchParallelJSQGolden(t *testing.T) {
	jobs := expJobs(30000, 18, 5, 2014)
	const k = 5
	res, err := DispatchSource(k, testCfg(), JSQ{}, &sliceSource{jobs: jobs},
		DispatchOptions{Parallel: true, SliceJobs: 1000})
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
	if _, err := DispatchSource(0, testCfg(), JSQ{}, src(), DispatchOptions{}); err == nil {
		t.Error("k=0 accepted")
	}
	if _, err := DispatchSource(2, testCfg(), nil, src(), DispatchOptions{}); err == nil {
		t.Error("nil dispatcher accepted")
	}
	if _, err := DispatchSource(2, testCfg(), JSQ{}, nil, DispatchOptions{}); err == nil {
		t.Error("nil source accepted")
	}
	if _, err := DispatchSource(2, queue.Config{}, JSQ{}, src(), DispatchOptions{}); err == nil {
		t.Error("invalid config accepted")
	}
	if _, err := DispatchSource(2, queue.Config{}, JSQ{}, src(), DispatchOptions{Parallel: true}); err == nil {
		t.Error("invalid config accepted in parallel mode")
	}
}

// pickOnly is a dispatcher with neither Preassign nor RouteVirtual: the
// parallel mode must reject it rather than silently serialize.
type pickOnly struct{}

func (pickOnly) Pick(f *Farm, _ queue.Job) int { return 0 }
func (pickOnly) Name() string                  { return "pick-only" }

func TestDispatchParallelRejectsPlainDispatcher(t *testing.T) {
	src := &sliceSource{jobs: expJobs(10, 8, 5, 1)}
	if _, err := DispatchSource(2, testCfg(), pickOnly{}, src, DispatchOptions{Parallel: true}); err == nil {
		t.Fatal("plain Pick dispatcher accepted in parallel mode")
	}
	// Sequentially it is fine.
	if _, err := DispatchSource(2, testCfg(), pickOnly{}, &sliceSource{jobs: expJobs(10, 8, 5, 1)}, DispatchOptions{}); err != nil {
		t.Fatal(err)
	}
}

// badRouter routes out of range through the virtual path.
type badRouter struct{ JSQ }

func (badRouter) RouteVirtual(_ []queue.Config, freeAt, _ []float64, _ queue.Job) int {
	return len(freeAt)
}

func TestDispatchParallelRejectsBadRoute(t *testing.T) {
	src := &sliceSource{jobs: expJobs(100, 8, 5, 5)}
	if _, err := DispatchSource(3, testCfg(), badRouter{}, src, DispatchOptions{Parallel: true}); err == nil {
		t.Fatal("out-of-range virtual route accepted")
	}
}

func TestDispatchSourceSurfacesSourceError(t *testing.T) {
	for _, parallel := range []bool{false, true} {
		src := &failingFarmSource{sliceSource{jobs: expJobs(10, 8, 5, 2)}}
		if _, err := DispatchSource(2, testCfg(), JSQ{}, src, DispatchOptions{Parallel: parallel}); err == nil {
			t.Errorf("parallel=%v: source error not surfaced", parallel)
		}
	}
}

// TestServeSourceSlicedWarmReuse: a persistent farm driving Reset +
// ServeSourceSliced over a rewound stream — the steady-state pattern the
// pooled parallel benchmark measures — must reproduce the one-shot
// DispatchSource result exactly, run after run.
func TestServeSourceSlicedWarmReuse(t *testing.T) {
	jobs := expJobs(20000, 12, 5, 41)
	const k = 4
	want, err := DispatchSource(k, testCfg(), JSQ{}, &sliceSource{jobs: jobs},
		DispatchOptions{Parallel: true, SliceJobs: 1000})
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
		served, err := f.ServeSourceSliced(&sliceSource{jobs: jobs},
			DispatchOptions{Parallel: true, SliceJobs: 1000})
		if err != nil {
			t.Fatal(err)
		}
		if served != len(jobs) {
			t.Fatalf("run %d served %d jobs, want %d", run, served, len(jobs))
		}
		sum := f.FinishSummary(f.LastFree())
		if sum.Jobs != want.Jobs || sum.MeanResponse != want.MeanResponse ||
			sum.TotalAvgPower != want.TotalAvgPower || sum.Energy != want.Energy {
			t.Fatalf("run %d summary diverged from one-shot dispatch:\n got %+v\nwant Jobs=%d Mean=%.17g Power=%.17g Energy=%.17g",
				run, sum, want.Jobs, want.MeanResponse, want.TotalAvgPower, want.Energy)
		}
	}
}

// TestServeSourceSlicedZeroAllocSteadyState pins the pooled parallel mode's
// allocation contract: once the farm's sliced scratch and the worker pool
// are warm, Reset + ServeSourceSliced + FinishSummary allocates nothing.
// Skipped under -race: the instrumented scheduler makes pool-side
// allocation counts meaningless (the non-race CI bench gate enforces the
// same contract via BENCH_farm.json).
func TestServeSourceSlicedZeroAllocSteadyState(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	jobs := expJobs(8000, 12, 5, 43)
	f, err := New(4, testCfg(), JSQ{})
	if err != nil {
		t.Fatal(err)
	}
	src := &sliceSource{jobs: jobs}
	opts := DispatchOptions{Parallel: true, SliceJobs: 1000}
	if _, err := f.ServeSourceSliced(src, opts); err != nil { // warm scratch + pool
		t.Fatal(err)
	}
	cfg := testCfg()
	avg := testing.AllocsPerRun(3, func() {
		if err := f.Reset(cfg); err != nil {
			t.Fatal(err)
		}
		src.pos = 0
		if _, err := f.ServeSourceSliced(src, opts); err != nil {
			t.Fatal(err)
		}
		_ = f.FinishSummary(f.LastFree())
	})
	if avg != 0 {
		t.Errorf("steady-state sliced dispatch allocates %.1f/run, want 0", avg)
	}
}

// TestServeSourceSlicedPartialFailureConsistency: when an engine fails mid
// substream (a poisoned job), the farm's per-server counters must still
// agree with what each engine actually processed — a retained Farm stays
// internally consistent after an error return, like the sequential path.
func TestServeSourceSlicedPartialFailureConsistency(t *testing.T) {
	jobs := expJobs(3000, 10, 5, 71)
	jobs[1500].Size = -1 // poison one job mid-stream
	const k = 3
	f, err := New(k, testCfg(), JSQ{})
	if err != nil {
		t.Fatal(err)
	}
	served, err := f.ServeSourceSliced(&sliceSource{jobs: jobs},
		DispatchOptions{Parallel: true, SliceJobs: 500})
	if err == nil {
		t.Fatal("poisoned stream accepted")
	}
	total := 0
	for s := 0; s < k; s++ {
		if got, want := f.perSrv[s], f.Server(s).Snapshot().Jobs; got != want {
			t.Errorf("server %d: perSrv %d != engine jobs %d after failure", s, got, want)
		}
		total += f.perSrv[s]
	}
	if served != total {
		t.Errorf("served %d != per-server total %d", served, total)
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

// TestLeastWorkLeftPricesFirstWakeAfterIdleSwitch is the regression test for
// the mispriced idle anchor: a SetConfigAt during an idle period restarts the
// sleep-entry clock at the switch instant while freeAt stays at the last
// departure. Pricing the first wake from freeAt instead of the moved anchor
// charges a wake latency the engine will never pay — and here that made Pick
// route to the busier server.
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
	if got := lwl.Pick(f, j); got != 0 {
		t.Fatalf("Pick routed to server %d, want 0: the first wake after the idle switch is mispriced", got)
	}
	// The engine confirms the pricing: serving on server 0 departs at 14.
	resp, err := f.Server(0).Process(j)
	if err != nil {
		t.Fatal(err)
	}
	if resp != 1 {
		t.Fatalf("response %g, want 1 (start at arrival, no wake)", resp)
	}
}

// TestLeastWorkLeftPricesWakeups: with one server mid-job and the others
// deep asleep behind a long wake latency, least-work-left routes a new
// arrival to the nearly-free busy server — the decision JSQ (backlog only)
// gets wrong — and its virtual routing mirrors Pick.
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
	if _, srv, err := f.Process(queue.Job{Arrival: 1, Size: 1}); err != nil || srv != 0 {
		t.Fatalf("first job: srv=%d err=%v", srv, err)
	}
	// At t=6.9 server 0 is still busy (free at 7) but finishing within
	// 0.1 s; servers 1 and 2 are asleep and would pay 5 s of wake. JSQ
	// would route to an idle server (backlog 0); LWL must keep it on 0.
	j := queue.Job{Arrival: 6.9, Size: 1}
	if got := (JSQ{}).Pick(f, j); got == 0 {
		t.Fatalf("JSQ picked the busy server, the scenario is not discriminating")
	}
	if got := lwl.Pick(f, j); got != 0 {
		t.Errorf("LWL picked server %d, want the nearly-free busy server 0", got)
	}
	cfgs := make([]queue.Config, 3)
	freeAt := make([]float64, 3)
	anchor := make([]float64, 3)
	for s := range cfgs {
		cfgs[s] = f.Server(s).Config()
		freeAt[s] = f.Server(s).FreeAt()
		anchor[s] = f.Server(s).IdleAnchor()
	}
	if got := lwl.RouteVirtual(cfgs, freeAt, anchor, j); got != 0 {
		t.Errorf("LWL virtual route %d, want 0", got)
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

// hetFarm builds a 3-server farm with per-server configurations.
func hetFarm(t *testing.T, disp Dispatcher) *Farm {
	t.Helper()
	cfgs := hetConfigs()
	f, err := New(len(cfgs), cfgs[0], disp)
	if err != nil {
		t.Fatal(err)
	}
	for s := 1; s < len(cfgs); s++ {
		if err := f.Server(s).SetConfigAt(0, cfgs[s]); err != nil {
			t.Fatal(err)
		}
	}
	return f
}

// TestServeSourceSlicedHeterogeneousMatchesSequential pins the per-server
// configuration routing path — the linear arm's RouteVirtual over the
// configuration snapshot, which least-work-left prices from and JSQ and
// power-of-d ignore — to the sequential Pick dispatch over live engines, bit
// for bit.
func TestServeSourceSlicedHeterogeneousMatchesSequential(t *testing.T) {
	disps := []struct {
		name string
		mk   func() Dispatcher
	}{
		{"jsq", func() Dispatcher { return JSQ{} }},
		{"pd2", func() Dispatcher { return &PowerOfD{D: 2, Rng: rand.New(rand.NewSource(42))} }},
		{"lwl", func() Dispatcher { return &LeastWorkLeft{} }},
	}
	for _, seed := range []int64{1, 2} {
		jobs := expJobs(20000, 6, 5, seed)
		for _, d := range disps {
			// Sequential reference: Pick consults each engine's live config.
			want := sequentialHet(t, d.mk(), jobs)
			got := hetFarm(t, d.mk())
			// Odd slice size straddles slice boundaries on purpose.
			if _, err := got.ServeSourceSliced(&sliceSource{jobs: jobs}, DispatchOptions{SliceJobs: 777}); err != nil {
				t.Fatalf("%s seed %d sliced: %v", d.name, seed, err)
			}
			res, err := got.Finish(got.LastFree())
			if err != nil {
				t.Fatal(err)
			}
			requireResultsEqual(t, res, want)
		}
	}
}

// TestServeSourceSlicedHeterogeneousServesWrappedRouter: a VirtualRouter
// wrapper gets no routing index, so the driver routes it on the linear arm —
// which hands every RouteVirtual the per-server configuration snapshot. Over
// a heterogeneous farm the wrapped JSQ and least-work-left must therefore
// serve exactly as the sequential Pick dispatch does.
func TestServeSourceSlicedHeterogeneousServesWrappedRouter(t *testing.T) {
	jobs := expJobs(5000, 6, 5, 3)
	for _, d := range []struct {
		name string
		mk   func() Dispatcher
	}{
		{"jsq", func() Dispatcher { return scanOnly{JSQ{}} }},
		{"lwl", func() Dispatcher { return scanOnly{&LeastWorkLeft{}} }},
	} {
		want := sequentialHet(t, d.mk(), jobs)
		got := hetFarm(t, d.mk())
		if _, err := got.ServeSourceSliced(&sliceSource{jobs: jobs}, DispatchOptions{SliceJobs: 333}); err != nil {
			t.Fatalf("%s: heterogeneous farm rejected a wrapped router: %v", d.name, err)
		}
		res, err := got.Finish(got.LastFree())
		if err != nil {
			t.Fatal(err)
		}
		requireResultsEqual(t, res, want)
	}
}

// sequentialHet serves jobs through Pick over a fresh heterogeneous farm:
// the reference the sliced heterogeneous paths must reproduce.
func sequentialHet(t *testing.T, disp Dispatcher, jobs []queue.Job) Result {
	t.Helper()
	ref := hetFarm(t, disp)
	for i, j := range jobs {
		if _, _, err := ref.Process(j); err != nil {
			t.Fatalf("%s job %d: %v", disp.Name(), i, err)
		}
	}
	res, err := ref.Finish(ref.LastFree())
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestRecordServeStreamOrder: RecordServe must land every response and
// server pick at the job's stream position, across slices.
func TestRecordServeStreamOrder(t *testing.T) {
	jobs := expJobs(5000, 8, 5, 17)
	ref := hetFarm(t, JSQ{})
	wantResp := make([]float64, len(jobs))
	wantSrv := make([]int, len(jobs))
	for i, j := range jobs {
		r, s, err := ref.Process(j)
		if err != nil {
			t.Fatal(err)
		}
		wantResp[i], wantSrv[i] = r, s
	}

	f := hetFarm(t, JSQ{})
	resp := make([]float64, len(jobs))
	srv := make([]int, len(jobs))
	f.RecordServe(resp, srv)
	if _, err := f.ServeSourceSliced(&sliceSource{jobs: jobs}, DispatchOptions{SliceJobs: 333}); err != nil {
		t.Fatal(err)
	}
	for i := range jobs {
		if resp[i] != wantResp[i] || srv[i] != wantSrv[i] {
			t.Fatalf("job %d: got (%.17g, %d), want (%.17g, %d)", i, resp[i], srv[i], wantResp[i], wantSrv[i])
		}
	}
}
