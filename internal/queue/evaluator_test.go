package queue_test

import (
	"math/rand"
	"testing"

	"sleepscale/internal/dist"
	"sleepscale/internal/queue"
)

// evalJobs builds a deterministic bursty stream with plenty of idle gaps so
// that every sleep phase of every table case sees residency.
func evalJobs(t *testing.T, n int, seed int64) []queue.Job {
	t.Helper()
	inter, err := dist.NewHyperExp2(0.6, 2.2)
	if err != nil {
		t.Fatal(err)
	}
	size, err := dist.NewExponentialMean(0.2)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(seed))
	jobs := make([]queue.Job, n)
	tnow := 0.0
	for i := range jobs {
		tnow += inter.Sample(rng)
		jobs[i] = queue.Job{Arrival: tnow, Size: size.Sample(rng)}
	}
	return jobs
}

// evaluatorCases spans the sleep-plan shapes the policy space generates:
// DVFS-only (no phases), immediate single state, delayed single state,
// multi-phase walks, and degenerate frequencies.
func evaluatorCases() []struct {
	name string
	cfg  queue.Config
} {
	return []struct {
		name string
		cfg  queue.Config
	}{
		{"no-sleep-dvfs-only", queue.Config{
			Frequency: 0.5, FreqExponent: 1, ActivePower: 200, IdlePower: 140,
		}},
		{"immediate-single-state", queue.Config{
			Frequency: 0.8, FreqExponent: 1, ActivePower: 200, IdlePower: 140,
			Phases: []queue.SleepPhase{
				{Name: "C6S0(i)", Power: 80, WakeLatency: 1e-3, EnterAfter: 0},
			},
		}},
		{"delayed-single-state", queue.Config{
			Frequency: 1, FreqExponent: 1, ActivePower: 200, IdlePower: 140,
			Phases: []queue.SleepPhase{
				{Name: "C6S3", Power: 15, WakeLatency: 5, EnterAfter: 1.5},
			},
		}},
		{"two-phase-walk", goldenConfig()},
		{"three-phase-walk-memory-bound", queue.Config{
			Frequency: 0.6, FreqExponent: 0.3, ActivePower: 250, IdlePower: 150,
			Phases: []queue.SleepPhase{
				{Name: "C1S0(i)", Power: 100, WakeLatency: 1e-5, EnterAfter: 0},
				{Name: "C3S0(i)", Power: 85, WakeLatency: 1e-4, EnterAfter: 0.4},
				{Name: "C6S3", Power: 15, WakeLatency: 5, EnterAfter: 3},
			},
		}},
		{"beta-zero", queue.Config{
			Frequency: 0.3, FreqExponent: 0, ActivePower: 120, IdlePower: 60,
			Phases: []queue.SleepPhase{
				{Name: "C6S0(i)", Power: 20, WakeLatency: 0.01, EnterAfter: 0.2},
			},
		}},
	}
}

// requireSummaryEqualsResult asserts bit-for-bit agreement between an
// Evaluator summary and the corresponding Simulate result.
func requireSummaryEqualsResult(t *testing.T, sum queue.Summary, res queue.Result) {
	t.Helper()
	if sum.Jobs != res.Jobs {
		t.Errorf("Jobs = %d, want %d", sum.Jobs, res.Jobs)
	}
	if sum.Wakes != res.Wakes {
		t.Errorf("Wakes = %d, want %d", sum.Wakes, res.Wakes)
	}
	pairs := []struct {
		name      string
		got, want float64
	}{
		{"MeanResponse", sum.MeanResponse, res.MeanResponse},
		{"ResponseP95", sum.ResponseP95, res.ResponseP95},
		{"ResponseP99", sum.ResponseP99, res.ResponseP99},
		{"AvgPower", sum.AvgPower, res.AvgPower},
		{"Energy", sum.Energy, res.Energy},
		{"Duration", sum.Duration, res.Duration},
		{"BusyTime", sum.BusyTime, res.BusyTime},
		{"WakeTime", sum.WakeTime, res.WakeTime},
		{"IdleTime", sum.IdleTime, res.IdleTime},
		{"MeasuredUtilization", sum.MeasuredUtilization, res.MeasuredUtilization},
	}
	for _, p := range pairs {
		if p.got != p.want {
			t.Errorf("%s = %.17g, want %.17g (bit-for-bit)", p.name, p.got, p.want)
		}
	}
}

// TestEvaluatorMatchesSimulate is the table-driven equivalence suite: one
// reused Evaluator must reproduce queue.Simulate bit-for-bit across all
// sleep-plan shapes, config switches (successive Evaluate calls), and a
// stream re-bound after earlier evaluations.
func TestEvaluatorMatchesSimulate(t *testing.T) {
	ev := queue.NewEvaluator(nil)
	for _, seed := range []int64{42, 43} {
		jobs := evalJobs(t, 3000, seed)
		ev.SetStream(jobs)
		// Two passes over the table through the SAME evaluator: the second
		// pass proves Reset leaves no state behind from any prior config.
		for pass := 0; pass < 2; pass++ {
			for _, tc := range evaluatorCases() {
				res, err := queue.Simulate(jobs, tc.cfg)
				if err != nil {
					t.Fatalf("%s: Simulate: %v", tc.name, err)
				}
				sum, err := ev.Evaluate(tc.cfg)
				if err != nil {
					t.Fatalf("%s: Evaluate: %v", tc.name, err)
				}
				t.Run(tc.name, func(t *testing.T) {
					requireSummaryEqualsResult(t, sum, res)
				})
			}
		}
	}
}

// TestEvaluatorMatchesGoldenSnapshot ties the evaluator to the checked-in
// golden numbers directly, so the kernel cannot drift even if Simulate and
// Evaluator were to change together.
func TestEvaluatorMatchesGoldenSnapshot(t *testing.T) {
	ev := queue.NewEvaluator(goldenJobs(t))
	// Scramble the buffers with an unrelated config first.
	if _, err := ev.Evaluate(evaluatorCases()[1].cfg); err != nil {
		t.Fatal(err)
	}
	sum, err := ev.Evaluate(goldenConfig())
	if err != nil {
		t.Fatal(err)
	}
	golden := goldenSnapshot()
	got := map[string]float64{
		"Jobs":                float64(sum.Jobs),
		"MeanResponse":        sum.MeanResponse,
		"ResponseP95":         sum.ResponseP95,
		"ResponseP99":         sum.ResponseP99,
		"AvgPower":            sum.AvgPower,
		"Energy":              sum.Energy,
		"Duration":            sum.Duration,
		"BusyTime":            sum.BusyTime,
		"WakeTime":            sum.WakeTime,
		"IdleTime":            sum.IdleTime,
		"Wakes":               float64(sum.Wakes),
		"MeasuredUtilization": sum.MeasuredUtilization,
	}
	for k, want := range golden {
		g, ok := got[k]
		if !ok {
			continue // residency buckets: not part of Summary
		}
		if diff := g - want; diff > 1e-9*max(1, want) || diff < -1e-9*max(1, want) {
			t.Errorf("%s = %.17g, want golden %.17g", k, g, want)
		}
	}
}

// TestEvaluatorSetStream checks that re-binding a stream fully replaces the
// old one.
func TestEvaluatorSetStream(t *testing.T) {
	a := evalJobs(t, 500, 1)
	b := evalJobs(t, 900, 2)
	cfg := goldenConfig()
	ev := queue.NewEvaluator(a)
	if _, err := ev.Evaluate(cfg); err != nil {
		t.Fatal(err)
	}
	ev.SetStream(b)
	sum, err := ev.Evaluate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := queue.Simulate(b, cfg)
	if err != nil {
		t.Fatal(err)
	}
	requireSummaryEqualsResult(t, sum, res)
}

// TestGetEvaluatorPoolRoundTrip checks the pooled accessors preserve
// semantics across reuse.
func TestGetEvaluatorPoolRoundTrip(t *testing.T) {
	jobs := evalJobs(t, 800, 3)
	cfg := goldenConfig()
	want, err := queue.Simulate(jobs, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		ev := queue.GetEvaluator(jobs)
		sum, err := ev.Evaluate(cfg)
		if err != nil {
			t.Fatal(err)
		}
		requireSummaryEqualsResult(t, sum, want)
		ev.Release()
	}
}

// TestEvaluatorMomentsOnly pins the moments-only mode the policy manager
// scores mean-only QoS candidates in: every field except the tail equals
// Simulate bit for bit, the tail reads 0, no response value is kept, and
// turning retention back on restores the full summary.
func TestEvaluatorMomentsOnly(t *testing.T) {
	jobs := evalJobs(t, 3000, 42)
	ev := queue.NewEvaluator(jobs)
	ev.SetRetainResponses(false)
	for _, tc := range evaluatorCases() {
		res, err := queue.Simulate(jobs, tc.cfg)
		if err != nil {
			t.Fatalf("%s: Simulate: %v", tc.name, err)
		}
		sum, err := ev.Evaluate(tc.cfg)
		if err != nil {
			t.Fatalf("%s: Evaluate: %v", tc.name, err)
		}
		if sum.ResponseP95 != 0 || sum.ResponseP99 != 0 || len(ev.Responses().Values()) != 0 {
			t.Fatalf("%s: moments-only run kept a tail: P95 %g P99 %g, %d values",
				tc.name, sum.ResponseP95, sum.ResponseP99, len(ev.Responses().Values()))
		}
		res.ResponseP95, res.ResponseP99 = 0, 0
		t.Run(tc.name, func(t *testing.T) {
			requireSummaryEqualsResult(t, sum, res)
		})
	}

	cfg := goldenConfig()
	ev.SetRetainResponses(true)
	sum, err := ev.Evaluate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := queue.Simulate(jobs, cfg)
	if err != nil {
		t.Fatal(err)
	}
	requireSummaryEqualsResult(t, sum, res)
}

// TestEvaluatorReleaseRestoresRetention checks that an evaluator released in
// moments-only mode comes back from the pool keeping the full sample, so no
// later GetEvaluator user inherits a tail of zeros.
func TestEvaluatorReleaseRestoresRetention(t *testing.T) {
	jobs := evalJobs(t, 800, 3)
	cfg := goldenConfig()
	want, err := queue.Simulate(jobs, cfg)
	if err != nil {
		t.Fatal(err)
	}
	var prev *queue.Evaluator
	reused := 0
	for i := 0; i < 20; i++ {
		ev := queue.GetEvaluator(jobs)
		if ev == prev {
			reused++
		}
		sum, err := ev.Evaluate(cfg)
		if err != nil {
			t.Fatal(err)
		}
		requireSummaryEqualsResult(t, sum, want)
		ev.SetRetainResponses(false)
		ev.Release()
		prev = ev
	}
	if reused == 0 {
		t.Fatal("the pool never handed a released evaluator back; nothing was checked")
	}
}

// TestEngineResetMatchesFresh checks Reset against NewEngine for the
// resumable (mid-run config switch) use, including residency carry.
func TestEngineResetMatchesFresh(t *testing.T) {
	jobs := evalJobs(t, 1000, 9)
	cfgA := goldenConfig()
	cfgB := evaluatorCases()[4].cfg

	run := func(eng *queue.Engine) queue.Result {
		t.Helper()
		half := len(jobs) / 2
		for _, j := range jobs[:half] {
			if _, err := eng.Process(j); err != nil {
				t.Fatal(err)
			}
		}
		at := jobs[half].Arrival
		if err := eng.SetConfigAt(at, cfgB); err != nil {
			t.Fatal(err)
		}
		for _, j := range jobs[half:] {
			if _, err := eng.Process(j); err != nil {
				t.Fatal(err)
			}
		}
		res, err := eng.Finish(eng.FreeAt())
		if err != nil {
			t.Fatal(err)
		}
		return res
	}

	fresh, err := queue.NewEngine(cfgA, 0)
	if err != nil {
		t.Fatal(err)
	}
	want := run(fresh)

	reused, err := queue.NewEngine(cfgB, 0)
	if err != nil {
		t.Fatal(err)
	}
	// Dirty the reused engine, then Reset into the scenario's starting config.
	for _, j := range jobs[:100] {
		if _, err := reused.Process(j); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := reused.Finish(reused.FreeAt()); err != nil {
		t.Fatal(err)
	}
	if err := reused.Reset(cfgA, 0); err != nil {
		t.Fatal(err)
	}
	got := run(reused)

	if got.Jobs != want.Jobs || got.Energy != want.Energy || got.Duration != want.Duration ||
		got.MeanResponse != want.MeanResponse || got.ResponseP95 != want.ResponseP95 ||
		got.Wakes != want.Wakes || got.IdleTime != want.IdleTime {
		t.Fatalf("reset engine diverges from fresh:\n got %+v\nwant %+v", got, want)
	}
	if len(got.Residency) != len(want.Residency) {
		t.Fatalf("residency buckets differ: got %v want %v", got.Residency, want.Residency)
	}
	for k, v := range want.Residency {
		if got.Residency[k] != v {
			t.Errorf("Residency[%s] = %.17g, want %.17g", k, got.Residency[k], v)
		}
	}
}

// TestEvaluatorZeroAllocSteadyState pins the tentpole acceptance criterion:
// after a warm-up call, evaluating candidates allocates nothing.
func TestEvaluatorZeroAllocSteadyState(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not stable under the race detector")
	}
	jobs := evalJobs(t, 2000, 5)
	cases := evaluatorCases()
	ev := queue.NewEvaluator(jobs)
	for _, tc := range cases {
		if _, err := ev.Evaluate(tc.cfg); err != nil {
			t.Fatal(err)
		}
	}
	allocs := testing.AllocsPerRun(5, func() {
		for _, tc := range cases {
			if _, err := ev.Evaluate(tc.cfg); err != nil {
				t.Fatal(err)
			}
		}
	})
	if allocs != 0 {
		t.Errorf("steady-state Evaluate allocates %v/op across %d configs, want 0", allocs, len(cases))
	}
}
