package sleepscale_test

// Benchmark harness: one benchmark per table and figure of the paper's
// evaluation (regenerating the corresponding result each iteration at
// QuickConfig resolution), plus micro-benchmarks for the pieces whose cost
// the paper reports — most importantly the single-policy evaluation that
// §4.1 measures at 6.3 ms on an i5/Matlab, which bounds the runtime policy
// manager's overhead.
//
// Run everything with:
//
//	go test -bench=. -benchmem ./...

import (
	"bytes"
	"encoding/binary"
	"io"
	"math"
	"math/rand"
	"path/filepath"
	"testing"

	"sleepscale"
	"sleepscale/internal/core"
	"sleepscale/internal/experiments"
	"sleepscale/internal/farm"
	"sleepscale/internal/queue"
	"sleepscale/internal/serve"
	"sleepscale/internal/trace"
)

// ---------------------------------------------------------------------------
// Micro-benchmarks: the §4.1/§5.1.1 overhead claims.

// BenchmarkPolicyEvaluation measures one Algorithm 1 run over N = 10,000
// jobs — the quantity the paper reports as 6.3 ms per policy.
func BenchmarkPolicyEvaluation(b *testing.B) {
	spec := sleepscale.DNS()
	stats, err := sleepscale.NewIdealizedStats(spec)
	if err != nil {
		b.Fatal(err)
	}
	stats, err = stats.AtUtilization(0.3)
	if err != nil {
		b.Fatal(err)
	}
	jobs := stats.Jobs(10000, rand.New(rand.NewSource(1)))
	pol := sleepscale.Policy{Frequency: 0.6, Plan: sleepscale.SingleState(sleepscale.DeepSleep)}
	cfg, err := pol.Config(sleepscale.Xeon(), spec.FreqExponent)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sleepscale.Simulate(jobs, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPolicySelection measures a full §5.1.1 policy-manager decision:
// every (state, frequency) candidate evaluated over the same stream.
func BenchmarkPolicySelection(b *testing.B) {
	spec := sleepscale.DNS()
	qos, err := sleepscale.NewMeanResponseQoS(0.8, spec.MaxServiceRate())
	if err != nil {
		b.Fatal(err)
	}
	mgr := sleepscale.NewManager(sleepscale.Xeon(), spec, qos)
	mgr.Space.FreqStep = 0.02 // ~35 frequencies × 5 states
	stats, err := sleepscale.NewIdealizedStats(spec)
	if err != nil {
		b.Fatal(err)
	}
	stats, err = stats.AtUtilization(0.3)
	if err != nil {
		b.Fatal(err)
	}
	jobs := stats.Jobs(2000, rand.New(rand.NewSource(1)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := mgr.Select(jobs, 0.3); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEvaluatorSteadyState measures the zero-allocation kernel itself:
// one reused Evaluator scoring one candidate per op over a 10,000-job stream
// — the §5.1.1 inner loop with the per-call setup amortized away. allocs/op
// must stay at 0; CI enforces a budget on it.
func BenchmarkEvaluatorSteadyState(b *testing.B) {
	spec := sleepscale.DNS()
	stats, err := sleepscale.NewIdealizedStats(spec)
	if err != nil {
		b.Fatal(err)
	}
	stats, err = stats.AtUtilization(0.3)
	if err != nil {
		b.Fatal(err)
	}
	jobs := stats.Jobs(10000, rand.New(rand.NewSource(1)))
	pol := sleepscale.Policy{Frequency: 0.6, Plan: sleepscale.SingleState(sleepscale.DeepSleep)}
	cfg, err := pol.Config(sleepscale.Xeon(), spec.FreqExponent)
	if err != nil {
		b.Fatal(err)
	}
	ev := queue.GetEvaluator(jobs)
	defer ev.Release()
	if _, err := ev.Evaluate(cfg); err != nil { // warm the buffers
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ev.Evaluate(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkIdealizedSelection measures the closed-form alternative the
// paper's §5.1.2 observation 3 suggests for runtime use.
func BenchmarkIdealizedSelection(b *testing.B) {
	spec := sleepscale.DNS()
	mu := spec.MaxServiceRate()
	qos, err := sleepscale.NewMeanResponseQoS(0.8, mu)
	if err != nil {
		b.Fatal(err)
	}
	mgr := sleepscale.NewManager(sleepscale.Xeon(), spec, qos)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := mgr.SelectIdealized(0.3*mu, mu); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRefinedIdealizedSelection measures the §5.1.2-observation-3
// path: grid selection plus continuous frequency refinement, entirely from
// closed forms — the microsecond-class alternative to per-policy simulation.
func BenchmarkRefinedIdealizedSelection(b *testing.B) {
	spec := sleepscale.DNS()
	mu := spec.MaxServiceRate()
	qos, err := sleepscale.NewMeanResponseQoS(0.8, mu)
	if err != nil {
		b.Fatal(err)
	}
	mgr := sleepscale.NewManager(sleepscale.Xeon(), spec, qos)
	mgr.Space.FreqStep = 0.05
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := mgr.SelectIdealizedRefined(0.3*mu, mu); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEngineThroughput measures raw simulator speed in jobs/op on a
// reused (Reset) engine — the steady-state evaluation path, which must not
// allocate.
func BenchmarkEngineThroughput(b *testing.B) {
	spec := sleepscale.DNS()
	stats, err := sleepscale.NewIdealizedStats(spec)
	if err != nil {
		b.Fatal(err)
	}
	jobs := stats.Jobs(100000, rand.New(rand.NewSource(1)))
	pol := sleepscale.Policy{Frequency: 1, Plan: sleepscale.SingleState(sleepscale.DeepSleep)}
	cfg, err := pol.Config(sleepscale.Xeon(), 1)
	if err != nil {
		b.Fatal(err)
	}
	eng, err := queue.NewEngine(cfg, 0)
	if err != nil {
		b.Fatal(err)
	}
	for _, j := range jobs { // warm the engine's buffers
		if _, err := eng.Process(j); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := eng.Reset(cfg, 0); err != nil {
			b.Fatal(err)
		}
		for _, j := range jobs {
			if _, err := eng.Process(j); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// ---------------------------------------------------------------------------
// Streaming workload subsystem benchmarks.

// weekTrace is the streaming benchmarks' fixture: a full 7-day (10080-slot)
// synthetic file-server week.
func weekTrace(b *testing.B) *sleepscale.Trace {
	b.Helper()
	tr := sleepscale.FileServerTrace(7, 1)
	if tr.Len() != 10080 {
		b.Fatalf("week trace has %d slots, want 10080", tr.Len())
	}
	return tr
}

// BenchmarkStreamRunWeekTrace runs the full §6 evaluation loop over a 7-day
// trace with the streaming job loop: B/op is the whole run's footprint and
// stays independent of trace length (the job stream — hundreds of thousands
// of jobs — is never materialized; only chunk and epoch buffers live).
func BenchmarkStreamRunWeekTrace(b *testing.B) {
	spec := sleepscale.DNS()
	stats, err := sleepscale.NewFittedStats(spec)
	if err != nil {
		b.Fatal(err)
	}
	tr := weekTrace(b)
	pol := sleepscale.Policy{Frequency: 1, Plan: sleepscale.SingleState(sleepscale.DeepSleep)}
	var jobs int
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rep, err := sleepscale.Run(sleepscale.RunnerConfig{
			Stats:        stats,
			FreqExponent: spec.FreqExponent,
			Profile:      sleepscale.Xeon(),
			Trace:        tr,
			EpochSlots:   15,
			Predictor:    sleepscale.NewNaivePredictor(),
			Strategy:     sleepscale.NewStaticStrategy(pol, "static"),
			Seed:         1,
		})
		if err != nil {
			b.Fatal(err)
		}
		jobs = rep.Jobs
	}
	b.ReportMetric(float64(jobs), "jobs")
}

// BenchmarkStreamSourceSteadyState measures the streaming generator alone:
// one op resets and fully re-drains the 7-day trace-driven source through a
// reused chunk buffer. allocs/op must stay at 0 — CI gates the budget on it,
// the streaming analogue of the evaluator's zero-allocation contract.
func BenchmarkStreamSourceSteadyState(b *testing.B) {
	spec := sleepscale.DNS()
	stats, err := sleepscale.NewFittedStats(spec)
	if err != nil {
		b.Fatal(err)
	}
	tr := weekTrace(b)
	src, err := sleepscale.NewTraceSource(stats, tr, 1)
	if err != nil {
		b.Fatal(err)
	}
	buf := make([]sleepscale.Job, 256)
	var jobs int
	drain := func() int {
		src.Reset(1)
		n := 0
		for {
			k, ok := src.Next(buf)
			n += k
			if !ok {
				return n
			}
		}
	}
	drain() // warm up
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		jobs = drain()
	}
	b.ReportMetric(float64(jobs), "jobs")
}

// ---------------------------------------------------------------------------
// Columnar trace & event store benchmarks.

// weekColFile writes the 7-day trace fixture as a column file and opens it
// (memory-mapped on unix).
func weekColFile(b *testing.B) (*sleepscale.Trace, *sleepscale.ColReader) {
	b.Helper()
	tr := weekTrace(b)
	path := filepath.Join(b.TempDir(), "week.col")
	if err := sleepscale.WriteColTrace(tr, path); err != nil {
		b.Fatal(err)
	}
	r, err := sleepscale.OpenCol(path)
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { r.Close() })
	return tr, r
}

// BenchmarkColReplaySteadyState measures the columnar trace source: one op
// resets and fully re-drains the 7-day trace-driven source, slots streaming
// out of the mapped column file. allocs/op must stay at 0 — CI gates the
// budget via BENCH_colstore.json, same contract as the materialized-trace
// source in BenchmarkStreamSourceSteadyState.
func BenchmarkColReplaySteadyState(b *testing.B) {
	spec := sleepscale.DNS()
	stats, err := sleepscale.NewFittedStats(spec)
	if err != nil {
		b.Fatal(err)
	}
	_, r := weekColFile(b)
	src, err := sleepscale.NewColTraceSource(r, stats, 1)
	if err != nil {
		b.Fatal(err)
	}
	buf := make([]sleepscale.Job, 256)
	var jobs int
	drain := func() int {
		src.Reset(1)
		n := 0
		for {
			k, ok := src.Next(buf)
			n += k
			if !ok {
				return n
			}
		}
	}
	drain() // warm up
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		jobs = drain()
	}
	b.ReportMetric(float64(jobs), "jobs")
}

// BenchmarkColJobsReplaySteadyState measures recorded-stream replay: one op
// rewinds and re-drains a week's worth of recorded jobs (~244k) straight
// from the mapped column file — no generator, no parsing. allocs/op must
// stay at 0 (gated via BENCH_colstore.json).
func BenchmarkColJobsReplaySteadyState(b *testing.B) {
	spec := sleepscale.DNS()
	stats, err := sleepscale.NewFittedStats(spec)
	if err != nil {
		b.Fatal(err)
	}
	tr := weekTrace(b)
	live, err := sleepscale.NewTraceSource(stats, tr, 1)
	if err != nil {
		b.Fatal(err)
	}
	path := filepath.Join(b.TempDir(), "jobs.col")
	if _, err := sleepscale.RecordJobsCol(live, path); err != nil {
		b.Fatal(err)
	}
	r, err := sleepscale.OpenCol(path)
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { r.Close() })
	src, err := sleepscale.NewColJobsSource(r)
	if err != nil {
		b.Fatal(err)
	}
	buf := make([]sleepscale.Job, 256)
	var jobs int
	drain := func() int {
		src.Reset(1)
		n := 0
		for {
			k, ok := src.Next(buf)
			n += k
			if !ok {
				return n
			}
		}
	}
	drain() // warm up
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		jobs = drain()
	}
	b.ReportMetric(float64(jobs), "jobs")
}

// BenchmarkColVsCSVReplay is the format A/B at the ingest layer: load the
// same 7-day trace from buffered CSV and from the column file. The two
// produce bit-identical traces (the equivalence tests pin it), so the ns/op
// ratio is pure format cost; the columnar side must hold a ≥3× lead — CI
// gates its absolute ns/op via BENCH_colstore.json.
func BenchmarkColVsCSVReplay(b *testing.B) {
	tr := weekTrace(b)
	var csvBuf bytes.Buffer
	if err := tr.WriteCSV(&csvBuf); err != nil {
		b.Fatal(err)
	}
	colPath := filepath.Join(b.TempDir(), "week.col")
	if err := sleepscale.WriteColTrace(tr, colPath); err != nil {
		b.Fatal(err)
	}
	b.Run("csv", func(b *testing.B) {
		data := csvBuf.Bytes()
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			got, err := trace.ReadCSV(bytes.NewReader(data))
			if err != nil {
				b.Fatal(err)
			}
			if got.Len() != tr.Len() {
				b.Fatalf("read %d slots", got.Len())
			}
		}
	})
	b.Run("col", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			got, err := trace.ReadCol(colPath)
			if err != nil {
				b.Fatal(err)
			}
			if got.Len() != tr.Len() {
				b.Fatalf("read %d slots", got.Len())
			}
		}
	})
}

// ---------------------------------------------------------------------------
// Streamed farm-dispatch benchmarks.

// dispatchStats builds the idealized DNS workload driving the dispatch
// benchmarks' stationary source.
func dispatchStats(b *testing.B) sleepscale.Stats {
	b.Helper()
	stats, err := sleepscale.NewIdealizedStats(sleepscale.DNS())
	if err != nil {
		b.Fatal(err)
	}
	stats, err = stats.AtUtilization(0.3)
	if err != nil {
		b.Fatal(err)
	}
	return stats
}

// BenchmarkFarmDispatchSteadyState measures the farm's serve loop on a small
// reused farm: one op resets four JSQ-dispatched servers and re-serves a
// rewound stationary stream, each job routed over the shadow by the linear
// scan (below the index threshold) and served at once. allocs/op must stay
// at 0 — CI gates the budget on it
// via BENCH_farm.json, the farm-level analogue of the evaluator's and
// stream generator's zero-allocation contracts.
func BenchmarkFarmDispatchSteadyState(b *testing.B) {
	stats := dispatchStats(b)
	// The single-server stream at ρ = 0.3 spread over 4 servers: ~10k jobs.
	horizon := stats.Inter.Mean() * 10000
	src, err := sleepscale.NewStationarySource(stats, horizon, 1)
	if err != nil {
		b.Fatal(err)
	}
	pol := sleepscale.Policy{Frequency: 1, Plan: sleepscale.SingleState(sleepscale.DeepSleep)}
	cfg, err := pol.Config(sleepscale.Xeon(), 1)
	if err != nil {
		b.Fatal(err)
	}
	f, err := farm.New(4, cfg, sleepscale.JSQ{})
	if err != nil {
		b.Fatal(err)
	}
	if _, err := f.ServeSource(src); err != nil { // warm engine + chunk buffers
		b.Fatal(err)
	}
	var jobs int
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := f.Reset(cfg); err != nil {
			b.Fatal(err)
		}
		src.Reset(1)
		n, err := f.ServeSource(src)
		if err != nil {
			b.Fatal(err)
		}
		jobs = n
	}
	b.ReportMetric(float64(jobs), "jobs")
}

// BenchmarkFarmDispatchParallelJSQ measures JSQ dispatch in steady state
// over a 16-server farm: one op resets the farm and re-serves a rewound
// stationary stream through the farm-owned scratch. A 16-server farm sits
// at the index threshold, so the serve loop routes through the O(log k)
// index and serves each job at once; the name dates from when this farm
// size ran the time-sliced parallel mode. With every buffer reused,
// allocs/op must stay at 0 — CI gates the budget via BENCH_farm.json (the
// committed baseline was 191 allocs / 1.96 MB per op when each call
// spawned its own goroutines and scratch).
func BenchmarkFarmDispatchParallelJSQ(b *testing.B) {
	stats := dispatchStats(b)
	horizon := stats.Inter.Mean() * 40000
	src, err := sleepscale.NewStationarySource(stats, horizon, 1)
	if err != nil {
		b.Fatal(err)
	}
	pol := sleepscale.Policy{Frequency: 1, Plan: sleepscale.SingleState(sleepscale.DeepSleep)}
	cfg, err := pol.Config(sleepscale.Xeon(), 1)
	if err != nil {
		b.Fatal(err)
	}
	f, err := farm.New(16, cfg, sleepscale.JSQ{})
	if err != nil {
		b.Fatal(err)
	}
	if _, err := f.ServeSource(src); err != nil { // warm scratch
		b.Fatal(err)
	}
	f.FinishSummary(f.LastFree()) // warm the percentile scratch too
	var watts float64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := f.Reset(cfg); err != nil {
			b.Fatal(err)
		}
		src.Reset(1)
		if _, err := f.ServeSource(src); err != nil {
			b.Fatal(err)
		}
		watts = f.FinishSummary(f.LastFree()).TotalAvgPower
	}
	b.ReportMetric(watts, "watts")
}

// farm10k builds a 10,000-server farm and a rewindable stationary source
// sized so every server sees work, for the fleet-scale dispatch benchmarks.
func farm10k(b *testing.B, disp sleepscale.Dispatcher) (*farm.Farm, interface {
	sleepscale.JobSource
	Reset(seed int64)
}, sleepscale.SimConfig) {
	b.Helper()
	stats := dispatchStats(b)
	// ~40k jobs: enough that the index's busy/idle machinery is exercised,
	// small enough that one op stays interactive.
	horizon := stats.Inter.Mean() * 40000
	src, err := sleepscale.NewStationarySource(stats, horizon, 1)
	if err != nil {
		b.Fatal(err)
	}
	pol := sleepscale.Policy{Frequency: 1, Plan: sleepscale.SingleState(sleepscale.DeepSleep)}
	cfg, err := pol.Config(sleepscale.Xeon(), 1)
	if err != nil {
		b.Fatal(err)
	}
	f, err := farm.New(10000, cfg, disp)
	if err != nil {
		b.Fatal(err)
	}
	return f, src, cfg
}

// BenchmarkFarmDispatch10k measures fleet-scale streamed dispatch: one op
// resets a 10,000-server farm and re-serves a rewound stationary stream
// through the serve loop, with JSQ and LeastWorkLeft routed through the
// O(log k) index and each job served at once. Steady-state allocs/op must
// stay at 0 — CI gates the budget via BENCH_farm.json. Before the index,
// routing alone was a Θ(k) scan per job (~10^8 float compares per op at
// this scale).
func BenchmarkFarmDispatch10k(b *testing.B) {
	for _, tc := range []struct {
		name string
		disp func() sleepscale.Dispatcher
	}{
		{"jsq", func() sleepscale.Dispatcher { return sleepscale.JSQ{} }},
		{"lwl", func() sleepscale.Dispatcher { return &sleepscale.LeastWorkLeft{} }},
	} {
		b.Run(tc.name, func(b *testing.B) {
			f, src, cfg := farm10k(b, tc.disp())
			if _, err := f.ServeSource(src); err != nil { // warm scratch + index
				b.Fatal(err)
			}
			f.FinishSummary(f.LastFree())
			var watts float64
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := f.Reset(cfg); err != nil {
					b.Fatal(err)
				}
				src.Reset(1)
				if _, err := f.ServeSource(src); err != nil {
					b.Fatal(err)
				}
				watts = f.FinishSummary(f.LastFree()).TotalAvgPower
			}
			b.ReportMetric(watts, "watts")
		})
	}
}

// BenchmarkFleetCoordinatedEpoch measures the fleet coordinator's
// epoch-boundary machinery at k = 1,000: one op replays a short trace
// through per-server predictions and policy decisions, a 250-server
// staggered-sleep quorum whose duty window rotates every epoch (plans
// capped to ≤C1, the rest re-installed deep), and the farm's serve loop
// between switches (JSQ's O(log k) index, which prices each server of the
// non-uniform farm from its own configuration). With every coordinator
// buffer — predictions, ping-pong phase scratch, memoized capped plans,
// epoch job/response slices, the report's record storage — reused across
// runs, warm allocs/op must stay at 0; CI gates the budget via
// BENCH_fleet.json.
func BenchmarkFleetCoordinatedEpoch(b *testing.B) {
	const k = 1000
	tr := &sleepscale.Trace{
		Name:        "bench-flat",
		SlotSeconds: 1,
		Utilization: []float64{0.5, 0.5, 0.5, 0.5, 0.5, 0.5, 0.5, 0.5},
	}
	// ~40k jobs over the 8 s horizon: per-server ρ = 0.5 at full speed.
	rng := rand.New(rand.NewSource(1))
	jobs := make([]sleepscale.Job, 0, 45000)
	for tnow := 0.0; ; {
		tnow += rng.ExpFloat64() / (0.5 * k * 10)
		if tnow >= tr.Duration() {
			break
		}
		jobs = append(jobs, sleepscale.Job{Arrival: tnow, Size: rng.ExpFloat64() / 10})
	}
	pol := sleepscale.Policy{Frequency: 1, Plan: sleepscale.SingleState(sleepscale.DeepSleep)}
	coord, err := sleepscale.NewFleetCoordinator(sleepscale.FleetConfig{
		Servers:      k,
		FreqExponent: 1,
		Profile:      sleepscale.Xeon(),
		Trace:        tr,
		EpochSlots:   2,
		Strategy:     sleepscale.NewStaticStrategy(pol, "static"),
		PerServer:    true,
		NewPredictor: sleepscale.NewNaivePredictor,
		Seed:         1,
		Dispatcher:   sleepscale.JSQ{},
		Quorum:       250,
	})
	if err != nil {
		b.Fatal(err)
	}
	src := sleepscale.SliceSource(jobs).(interface {
		sleepscale.StreamSource
		Reset(seed int64)
	})
	for warm := 0; warm < 2; warm++ { // warm farm, pool, scratch and report storage
		src.Reset(1)
		if _, err := coord.Run(src); err != nil {
			b.Fatal(err)
		}
	}
	var watts float64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		src.Reset(1)
		rep, err := coord.Run(src)
		if err != nil {
			b.Fatal(err)
		}
		watts = rep.AvgPower
	}
	b.ReportMetric(watts, "watts")
}

// BenchmarkFaultFailoverRouting measures routing around crashed servers at
// fleet scale: one op resets a 1,000-server farm and re-serves a rewound
// stationary stream twice through compact Select views, alternating between
// two failure patterns (every 10th server down, then the neighboring
// tenth) so the O(log k) routing index rebinds to a churned healthy set
// each serve — the farm-layer path a fleet crash and repair exercises. View
// refills, index rebinds and the serving scratch all reuse warm storage:
// steady-state allocs/op must stay at 0 — CI gates the budget via
// BENCH_fault.json.
func BenchmarkFaultFailoverRouting(b *testing.B) {
	const k = 1000
	stats := dispatchStats(b)
	// ~20k jobs per serve: enough to exercise the index's busy/idle
	// machinery across the down-server holes.
	horizon := stats.Inter.Mean() * 20000
	src, err := sleepscale.NewStationarySource(stats, horizon, 1)
	if err != nil {
		b.Fatal(err)
	}
	pol := sleepscale.Policy{Frequency: 1, Plan: sleepscale.SingleState(sleepscale.DeepSleep)}
	cfg, err := pol.Config(sleepscale.Xeon(), 1)
	if err != nil {
		b.Fatal(err)
	}
	f, err := farm.New(k, cfg, sleepscale.JSQ{})
	if err != nil {
		b.Fatal(err)
	}
	var idxA, idxB []int
	for s := 0; s < k; s++ {
		if s%10 != 0 {
			idxA = append(idxA, s)
		}
		if s%10 != 1 {
			idxB = append(idxB, s)
		}
	}
	var viewA, viewB *farm.Farm
	op := func() float64 {
		if err := f.Reset(cfg); err != nil {
			b.Fatal(err)
		}
		var serr error
		if viewA, serr = f.Select(viewA, idxA); serr != nil {
			b.Fatal(serr)
		}
		src.Reset(1)
		if _, serr = viewA.ServeSource(src); serr != nil {
			b.Fatal(serr)
		}
		if err := f.Reset(cfg); err != nil {
			b.Fatal(err)
		}
		if viewB, serr = f.Select(viewB, idxB); serr != nil {
			b.Fatal(serr)
		}
		src.Reset(2)
		if _, serr = viewB.ServeSource(src); serr != nil {
			b.Fatal(serr)
		}
		return f.FinishSummary(f.LastFree()).TotalAvgPower
	}
	op() // warm views, index and serving scratch
	var watts float64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		watts = op()
	}
	b.ReportMetric(watts, "watts")
}

// BenchmarkSelectParallel measures a steady-state §5.1.1 policy-manager
// decision: the exact best-first search over every (state, frequency)
// candidate of one stream, with its pooled scratch and evaluator warm. It
// keeps its historical name; the search runs on the calling goroutine. CI
// holds it at 0 allocs/op via BENCH_selection.json.
func BenchmarkSelectParallel(b *testing.B) {
	spec := sleepscale.DNS()
	qos, err := sleepscale.NewMeanResponseQoS(0.8, spec.MaxServiceRate())
	if err != nil {
		b.Fatal(err)
	}
	mgr := sleepscale.NewManager(sleepscale.Xeon(), spec, qos)
	mgr.Space.FreqStep = 0.02 // ~35 frequencies × 5 states
	stats, err := sleepscale.NewIdealizedStats(spec)
	if err != nil {
		b.Fatal(err)
	}
	stats, err = stats.AtUtilization(0.3)
	if err != nil {
		b.Fatal(err)
	}
	jobs := stats.Jobs(2000, rand.New(rand.NewSource(1)))
	if _, err := mgr.Select(jobs, 0.3); err != nil { // warm the pooled scratch
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := mgr.Select(jobs, 0.3); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPredictorLMSCUSUM measures one Algorithm 2 step.
func BenchmarkPredictorLMSCUSUM(b *testing.B) {
	lc, err := sleepscale.NewLMSCUSUMPredictor(10, 0.5)
	if err != nil {
		b.Fatal(err)
	}
	tr := sleepscale.EmailStoreTrace(1, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		lc.Predict()
		lc.Observe(tr.Utilization[i%tr.Len()])
	}
}

// ---------------------------------------------------------------------------
// One benchmark per table / figure.

func benchConfig() experiments.Config { return experiments.QuickConfig() }

// BenchmarkTable5 regenerates the workload-statistics table.
func BenchmarkTable5(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.Table5(benchConfig())
		if err != nil {
			b.Fatal(err)
		}
		_ = r.Tables()
	}
}

// BenchmarkFigure1 regenerates the §4.2 trade-off curves.
func BenchmarkFigure1(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Figure1(benchConfig()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFigure2 regenerates the high-utilization state comparison.
func BenchmarkFigure2(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Figure2(benchConfig()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFigure3 regenerates the delayed-entry study.
func BenchmarkFigure3(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Figure3(benchConfig()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFigure4 regenerates the frequency-dependence study.
func BenchmarkFigure4(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Figure4(benchConfig()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFigure5 regenerates the QoS-bar illustration.
func BenchmarkFigure5(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Figure5(benchConfig()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFigure6 regenerates one representative policy map (DNS, mean
// QoS, ρ_b = 0.8, both models) — the full 16-map figure is minutes of work
// and belongs to cmd/experiments.
func BenchmarkFigure6(b *testing.B) {
	opts := experiments.Figure6Options{
		Workloads: []string{"DNS"},
		QoSKinds:  []string{"mean"},
		RhoBs:     []float64{0.8},
		RhoStep:   0.1,
	}
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Figure6(benchConfig(), opts); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFigure7 regenerates the utilization traces.
func BenchmarkFigure7(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Figure7(benchConfig()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFigure8 regenerates a reduced predictor × interval grid.
func BenchmarkFigure8(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Figure8(benchConfig(), []string{"LC", "NP"}, []int{5}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFigure9 regenerates the strategy comparison.
func BenchmarkFigure9(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Figure9(benchConfig()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFigure10 regenerates the selected-state distribution.
func BenchmarkFigure10(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Figure10(benchConfig()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAppendixValidation regenerates the closed-form cross-check.
func BenchmarkAppendixValidation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.AppendixValidation(benchConfig()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkLesson5 regenerates the sequential-throttle-back ablation.
func BenchmarkLesson5(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.SequentialLesson(benchConfig(), 0.1); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAtomStudy regenerates the Atom-vs-Xeon optimum comparison.
func BenchmarkAtomStudy(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.AtomStudy(benchConfig()); err != nil {
			b.Fatal(err)
		}
	}
}

// ---------------------------------------------------------------------------
// Ablation benchmarks for the design choices DESIGN.md calls out.

// BenchmarkAblationOverProvisioning sweeps α to expose the response/power
// trade of the §5.2.3 guard band.
func BenchmarkAblationOverProvisioning(b *testing.B) {
	for _, alpha := range []float64{0, 0.35, 0.7} {
		b.Run(alphaName(alpha), func(b *testing.B) {
			spec := sleepscale.DNS()
			stats, err := sleepscale.NewFittedStats(spec)
			if err != nil {
				b.Fatal(err)
			}
			tr, err := sleepscale.EmailStoreTrace(1, 1).DailyWindow(120, 300)
			if err != nil {
				b.Fatal(err)
			}
			qos, err := sleepscale.NewMeanResponseQoS(0.8, spec.MaxServiceRate())
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				mgr := sleepscale.NewManager(sleepscale.Xeon(), spec, qos)
				mgr.Space.FreqStep = 0.05
				strat, err := sleepscale.NewSleepScaleStrategy(mgr, 600, alpha)
				if err != nil {
					b.Fatal(err)
				}
				pred, err := sleepscale.NewLMSCUSUMPredictor(10, 0.5)
				if err != nil {
					b.Fatal(err)
				}
				rep, err := sleepscale.Run(sleepscale.RunnerConfig{
					Stats:        stats,
					FreqExponent: spec.FreqExponent,
					Profile:      sleepscale.Xeon(),
					Trace:        tr,
					EpochSlots:   5,
					Predictor:    pred,
					Strategy:     strat,
					Seed:         1,
				})
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(rep.AvgPower, "watts")
				b.ReportMetric(rep.MeanResponse*1000, "ms-response")
			}
		})
	}
}

func alphaName(a float64) string {
	switch a {
	case 0:
		return "alpha=0.00"
	case 0.35:
		return "alpha=0.35"
	default:
		return "alpha=0.70"
	}
}

// BenchmarkFarmScaleOut measures the multi-server extension: a fixed
// aggregate load dispatched over k servers (the [6]-style study).
func BenchmarkFarmScaleOut(b *testing.B) {
	pol := sleepscale.Policy{Frequency: 1, Plan: sleepscale.SingleState(sleepscale.DeepSleep)}
	cfg, err := pol.Config(sleepscale.Xeon(), 1)
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	jobs := make([]sleepscale.Job, 40000)
	tnow := 0.0
	for i := range jobs {
		tnow += rng.ExpFloat64() / 4.0
		jobs[i] = sleepscale.Job{Arrival: tnow, Size: rng.ExpFloat64() / 5.0}
	}
	for _, k := range []int{1, 4, 16} {
		name := map[int]string{1: "k=1", 4: "k=4", 16: "k=16"}[k]
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				res, err := sleepscale.RunFarm(k, cfg, sleepscale.JSQ{}, jobs)
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(res.TotalAvgPower, "watts")
			}
		})
	}
}

// BenchmarkFarmScaleOutRoundRobin measures the same scale-out study under
// state-independent round-robin routing.
func BenchmarkFarmScaleOutRoundRobin(b *testing.B) {
	pol := sleepscale.Policy{Frequency: 1, Plan: sleepscale.SingleState(sleepscale.DeepSleep)}
	cfg, err := pol.Config(sleepscale.Xeon(), 1)
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	jobs := make([]sleepscale.Job, 40000)
	tnow := 0.0
	for i := range jobs {
		tnow += rng.ExpFloat64() / 4.0
		jobs[i] = sleepscale.Job{Arrival: tnow, Size: rng.ExpFloat64() / 5.0}
	}
	for _, k := range []int{4, 16} {
		name := map[int]string{4: "k=4", 16: "k=16"}[k]
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				res, err := sleepscale.RunFarm(k, cfg, &sleepscale.RoundRobin{}, jobs)
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(res.TotalAvgPower, "watts")
			}
		})
	}
}

// BenchmarkMultiCoreSimulate measures the k-core shared-platform simulator
// (the §7 multi-core extension) on a 4-core chip.
func BenchmarkMultiCoreSimulate(b *testing.B) {
	cfg := sleepscale.MultiCoreConfig{
		Cores: 4, Frequency: 1, FreqExponent: 1,
		CPUActivePower: 32.5,
		CoreSleep: []sleepscale.MultiCorePhase{
			{Name: "C6", Power: 3.75, WakeLatency: 1e-3, EnterAfter: 0},
		},
		PlatformActivePower: 120, PlatformIdlePower: 60.5, PlatformSleepPower: 13.1,
		PlatformSleepAfter: 2, PlatformWakeLatency: 1,
	}
	rng := rand.New(rand.NewSource(1))
	jobs := make([]sleepscale.Job, 20000)
	tnow := 0.0
	for i := range jobs {
		tnow += rng.ExpFloat64() / 14.0
		jobs[i] = sleepscale.Job{Arrival: tnow, Size: rng.ExpFloat64() / 5.0}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sleepscale.SimulateMultiCore(jobs, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationGuardedTimeout compares idle-management plans on bursty
// arrivals: always-shallow, immediate-deep and the break-even guard.
func BenchmarkAblationGuardedTimeout(b *testing.B) {
	prof := sleepscale.Xeon()
	const f = 0.5
	guarded, err := sleepscale.GuardedPlan(prof, f, sleepscale.OperatingIdle, sleepscale.DeeperSleep)
	if err != nil {
		b.Fatal(err)
	}
	spec := sleepscale.Spec{Name: "bursty", InterArrivalMean: 1.94, InterArrivalCV: 4,
		ServiceMean: 0.194, ServiceCV: 1, FreqExponent: 1}
	stats, err := sleepscale.NewFittedStats(spec)
	if err != nil {
		b.Fatal(err)
	}
	jobs := stats.Jobs(20000, rand.New(rand.NewSource(1)))
	for _, tc := range []struct {
		name string
		plan sleepscale.SleepPlan
	}{
		{"shallow", sleepscale.SingleState(sleepscale.OperatingIdle)},
		{"deep", sleepscale.SingleState(sleepscale.DeeperSleep)},
		{"guarded", guarded},
	} {
		b.Run(tc.name, func(b *testing.B) {
			pol := sleepscale.Policy{Frequency: f, Plan: tc.plan}
			cfg, err := pol.Config(prof, 1)
			if err != nil {
				b.Fatal(err)
			}
			for i := 0; i < b.N; i++ {
				res, err := sleepscale.Simulate(jobs, cfg)
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(res.AvgPower, "watts")
			}
		})
	}
}

// BenchmarkAblationEvalJobs sweeps the bootstrap stream length N, the
// decision-quality/overhead knob of §5.1.1.
func BenchmarkAblationEvalJobs(b *testing.B) {
	spec := sleepscale.DNS()
	qos, err := sleepscale.NewMeanResponseQoS(0.8, spec.MaxServiceRate())
	if err != nil {
		b.Fatal(err)
	}
	stats, err := sleepscale.NewIdealizedStats(spec)
	if err != nil {
		b.Fatal(err)
	}
	stats, err = stats.AtUtilization(0.3)
	if err != nil {
		b.Fatal(err)
	}
	for _, n := range []int{1000, 10000} {
		name := "N=1000"
		if n == 10000 {
			name = "N=10000"
		}
		b.Run(name, func(b *testing.B) {
			jobs := stats.Jobs(n, rand.New(rand.NewSource(1)))
			mgr := sleepscale.NewManager(sleepscale.Xeon(), spec, qos)
			mgr.Space.FreqStep = 0.02
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := mgr.Select(jobs, 0.3); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// ---------------------------------------------------------------------------
// Live serving benchmarks (cmd/sleepscaled).

// serveBenchConfig is the daemon runner fixture shared by the serving
// benchmarks: minute telemetry slots, 5-slot epochs, DNS-shaped jobs at
// ρ=0.3, LMS prediction and a fixed deep-sleep plan. The strategy is static
// on purpose: the steady-state gate pins the loop machinery — wire decode,
// job cursoring, engine advance, predictor update, NDJSON emit — at zero
// allocations, while policy-search cost (whose returned evaluation slices
// allocate by design) is measured by the PolicySelection/SelectParallel
// benchmarks with their own explicit floors.
func serveBenchConfig() (sleepscale.LiveConfig, []sleepscale.Job, error) {
	spec := sleepscale.DNS()
	stats, err := sleepscale.NewIdealizedStats(spec)
	if err != nil {
		return sleepscale.LiveConfig{}, nil, err
	}
	stats, err = stats.AtUtilization(0.3)
	if err != nil {
		return sleepscale.LiveConfig{}, nil, err
	}
	const epochSec = 5 * 60.0
	all := stats.Jobs(2000, rand.New(rand.NewSource(7)))
	var jobs []sleepscale.Job
	for _, j := range all {
		if j.Arrival >= epochSec {
			break
		}
		jobs = append(jobs, j)
	}
	pred, err := sleepscale.NewLMSPredictor(10, 0.5)
	if err != nil {
		return sleepscale.LiveConfig{}, nil, err
	}
	pol := sleepscale.Policy{Frequency: 1, Plan: sleepscale.SingleState(sleepscale.DeepSleep)}
	return sleepscale.LiveConfig{
		SlotSeconds:  60,
		EpochSlots:   5,
		FreqExponent: spec.FreqExponent,
		Profile:      sleepscale.Xeon(),
		Predictor:    pred,
		Strategy:     sleepscale.NewStaticStrategy(pol, "static"),
		Seed:         1,
	}, jobs, nil
}

// epochWireFeed synthesizes an endless wire stream of identical epochs in
// place: each rep re-frames the same job set with arrivals offset by one
// epoch, so the stream stays monotonic while the daemon serves it forever.
// Refills reuse one frame buffer — the feed itself is allocation-free after
// the first rep, keeping the 0 allocs/op gate on the serve loop honest.
type epochWireFeed struct {
	jobs    []sleepscale.Job // one epoch's arrivals, within [0, epochSec)
	rho     float64
	slotSec float64
	slots   int

	reps  int // epochs to emit before the end-of-stream marker
	rep   int
	ended bool
	buf   []byte
	pos   int
	onRep func(rep int) // timer control at rep boundaries
}

func (f *epochWireFeed) Read(p []byte) (int, error) {
	if f.pos == len(f.buf) {
		if err := f.refill(); err != nil {
			return 0, err
		}
	}
	n := copy(p, f.buf[f.pos:])
	f.pos += n
	return n, nil
}

func (f *epochWireFeed) refill() error {
	if f.rep == f.reps {
		if f.ended {
			return io.EOF
		}
		f.ended = true
		if f.onRep != nil {
			f.onRep(f.rep)
		}
		f.buf, f.pos = append(f.buf[:0], 'e'), 0
		return nil
	}
	if f.onRep != nil {
		f.onRep(f.rep)
	}
	b := f.buf[:0]
	if f.rep == 0 {
		b = append(b, "SSW1"...)
	}
	off := float64(f.rep) * float64(f.slots) * f.slotSec
	i := 0
	for s := 0; s < f.slots; s++ {
		slotEnd := off + float64(s+1)*f.slotSec
		for i < len(f.jobs) && off+f.jobs[i].Arrival < slotEnd {
			b = append(b, 'j')
			b = binary.LittleEndian.AppendUint64(b, math.Float64bits(off+f.jobs[i].Arrival))
			b = binary.LittleEndian.AppendUint64(b, math.Float64bits(f.jobs[i].Size))
			i++
		}
		b = append(b, 's')
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(f.rho))
	}
	f.buf, f.pos = b, 0
	f.rep++
	return nil
}

// BenchmarkServeLoopSteadyState measures the daemon's steady-state serve
// loop: one op decodes, serves and NDJSON-emits one full policy epoch —
// wire frames in, LMS prediction, policy install, engine advance, epoch
// record out. The first epochs are warm-up (buffers grow to their steady
// sizes) and run off the timer; after them the loop must not allocate — CI
// gates allocs/op at 0.
func BenchmarkServeLoopSteadyState(b *testing.B) { benchServeLoop(b, false) }

// BenchmarkServeLoopDurable is the same loop with durability on, as
// sleepscaled runs it with -checkpoint and -epochs-out: a boundary capture
// after every epoch, and every 16th epoch an epoch-log flush and a
// checkpoint handed to the background writer. Its wall clock is
// fsync-bound, so CI gates only its allocs/op.
func BenchmarkServeLoopDurable(b *testing.B) { benchServeLoop(b, true) }

func benchServeLoop(b *testing.B, durable bool) {
	cfg, jobs, err := serveBenchConfig()
	if err != nil {
		b.Fatal(err)
	}
	sc := sleepscale.ServeConfig{Runner: cfg, Out: io.Discard}
	if durable {
		dir := b.TempDir()
		sc.CheckpointPath = filepath.Join(dir, "ss.ckpt")
		sc.CheckpointEvery = 16
		sc.EpochLogPath = filepath.Join(dir, "epochs.col")
	}
	srv, err := sleepscale.NewServeServer(sc)
	if err != nil {
		b.Fatal(err)
	}
	// Warm-up must outlast every buffer still growing after the first
	// epoch: the 3-epoch event-log window ring and the 10-observation LMS
	// history both reach steady size within 6 epochs.
	const warm = 6
	feed := &epochWireFeed{
		jobs: jobs, rho: 0.3, slotSec: cfg.SlotSeconds, slots: cfg.EpochSlots,
		reps: b.N + warm,
		onRep: func(rep int) {
			switch rep {
			case warm:
				b.ResetTimer()
			case b.N + warm:
				b.StopTimer() // run finalization is not the loop
			}
		},
	}
	b.ReportAllocs()
	if _, done, err := srv.Serve(feed); err != nil || !done {
		b.Fatalf("serve: done=%v err=%v", done, err)
	}
	b.ReportMetric(float64(len(jobs)), "jobs")
}

// BenchmarkServeCheckpointWrite measures one durable checkpoint: encode the
// live runner's epoch-boundary state, CRC it, write-fsync-rename atomically
// and rotate the previous snapshot.
func BenchmarkServeCheckpointWrite(b *testing.B) {
	cfg, jobs, err := serveBenchConfig()
	if err != nil {
		b.Fatal(err)
	}
	runner, err := core.NewLiveRunner(cfg)
	if err != nil {
		b.Fatal(err)
	}
	i := 0
	for s := 0; s < cfg.EpochSlots; s++ {
		slotEnd := float64(s+1) * cfg.SlotSeconds
		for i < len(jobs) && jobs[i].Arrival < slotEnd {
			if err := runner.OfferJob(jobs[i]); err != nil {
				b.Fatal(err)
			}
			i++
		}
		if _, _, err := runner.OfferSlot(0.3); err != nil {
			b.Fatal(err)
		}
	}
	st, err := runner.State()
	if err != nil {
		b.Fatal(err)
	}
	ck := &serve.Checkpoint{
		State:        *st,
		EpochLogRows: 672,
		EpochLogDict: []string{"C0S0", "C6S0(i)"},
	}
	path := filepath.Join(b.TempDir(), "bench.ckpt")
	b.ReportAllocs()
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		if err := serve.WriteImage(path, serve.EncodeCheckpoint(ck)); err != nil {
			b.Fatal(err)
		}
	}
}
