package core

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"sleepscale/internal/eventlog"
	"sleepscale/internal/policy"
	"sleepscale/internal/power"
	"sleepscale/internal/predict"
	"sleepscale/internal/queue"
	"sleepscale/internal/stream"
	"sleepscale/internal/trace"
	"sleepscale/internal/workload"
)

// staticStrategy is a minimal Strategy for runner tests.
type staticStrategy struct{ pol policy.Policy }

func (s *staticStrategy) Name() string { return "static-test" }
func (s *staticStrategy) Decide(DecideInput) (policy.Policy, error) {
	return s.pol, nil
}

// switchingStrategy alternates between two frequencies to exercise
// mid-run policy switches.
type switchingStrategy struct {
	n     int
	plans []policy.Policy
}

func (s *switchingStrategy) Name() string { return "switching-test" }
func (s *switchingStrategy) Decide(DecideInput) (policy.Policy, error) {
	p := s.plans[s.n%len(s.plans)]
	s.n++
	return p, nil
}

func shortTrace(slots int, util float64) *trace.Trace {
	t := &trace.Trace{Name: "flat", SlotSeconds: 60, Utilization: make([]float64, slots)}
	for i := range t.Utilization {
		t.Utilization[i] = util
	}
	return t
}

func runnerConfig(t *testing.T, strat Strategy, tr *trace.Trace, epochSlots int) RunnerConfig {
	t.Helper()
	st, err := workload.NewIdealizedStats(workload.DNS())
	if err != nil {
		t.Fatal(err)
	}
	return RunnerConfig{
		Stats:        st,
		FreqExponent: 1,
		Profile:      power.Xeon(),
		Trace:        tr,
		EpochSlots:   epochSlots,
		Predictor:    predict.NewNaivePrevious(),
		Strategy:     strat,
		Seed:         1,
	}
}

func TestRunStaticStrategyBasics(t *testing.T) {
	pol := policy.Policy{Frequency: 1, Plan: policy.SingleState(power.DeepSleep)}
	tr := shortTrace(20, 0.3)
	rep, err := Run(runnerConfig(t, &staticStrategy{pol: pol}, tr, 5))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Jobs == 0 {
		t.Fatal("no jobs served")
	}
	if rep.Duration < tr.Duration()-1e-9 {
		t.Errorf("duration = %v, want ≥ %v", rep.Duration, tr.Duration())
	}
	if len(rep.Epochs) != 4 {
		t.Errorf("epochs = %d, want 4", len(rep.Epochs))
	}
	if rep.PlanEpochs["C6S0(i)"] != 4 {
		t.Errorf("plan usage = %v, want all C6S0(i)", rep.PlanEpochs)
	}
	// Power must lie between deep-sleep idle and full active power.
	if rep.AvgPower < 75.5 || rep.AvgPower > 250 {
		t.Errorf("avg power %v outside physical range", rep.AvgPower)
	}
	// At ρ=0.3 and f=1, responses should be comfortably under a second.
	if rep.MeanResponse > 1 {
		t.Errorf("mean response %v suspiciously high", rep.MeanResponse)
	}
	if rep.MeanFrequency != 1 {
		t.Errorf("mean frequency = %v, want 1", rep.MeanFrequency)
	}
	fr := rep.PlanFractions()
	if math.Abs(fr["C6S0(i)"]-1) > 1e-12 {
		t.Errorf("plan fractions = %v", fr)
	}
}

func TestRunSwitchingStrategy(t *testing.T) {
	plans := []policy.Policy{
		{Frequency: 1, Plan: policy.SingleState(power.OperatingIdle)},
		{Frequency: 0.6, Plan: policy.SingleState(power.DeeperSleep)},
	}
	tr := shortTrace(12, 0.2)
	rep, err := Run(runnerConfig(t, &switchingStrategy{plans: plans}, tr, 3))
	if err != nil {
		t.Fatal(err)
	}
	if rep.PlanEpochs["C0(i)S0(i)"] != 2 || rep.PlanEpochs["C6S3"] != 2 {
		t.Errorf("plan usage = %v, want 2+2", rep.PlanEpochs)
	}
	if math.Abs(rep.MeanFrequency-0.8) > 1e-9 {
		t.Errorf("mean frequency = %v, want 0.8", rep.MeanFrequency)
	}
}

func TestRunValidatesConfig(t *testing.T) {
	pol := policy.Policy{Frequency: 1, Plan: policy.SingleState(power.DeepSleep)}
	good := runnerConfig(t, &staticStrategy{pol: pol}, shortTrace(4, 0.2), 2)

	c := good
	c.Trace = nil
	if _, err := Run(c); err == nil {
		t.Error("nil trace accepted")
	}
	c = good
	c.EpochSlots = 0
	if _, err := Run(c); err == nil {
		t.Error("epoch slots 0 accepted")
	}
	c = good
	c.Predictor = nil
	if _, err := Run(c); err == nil {
		t.Error("nil predictor accepted")
	}
	c = good
	c.Strategy = nil
	if _, err := Run(c); err == nil {
		t.Error("nil strategy accepted")
	}
	c = good
	c.Trace = &trace.Trace{SlotSeconds: 60, Utilization: []float64{1.5}}
	if _, err := Run(c); err == nil {
		t.Error("invalid trace accepted")
	}
	// A zero-value Stats must surface as an error, not a nil-distribution
	// panic inside the streaming generator.
	c = good
	c.Stats = workload.Stats{}
	if _, err := Run(c); err == nil {
		t.Error("empty workload stats accepted")
	}
}

func TestRunDeterministicInSeed(t *testing.T) {
	pol := policy.Policy{Frequency: 0.8, Plan: policy.SingleState(power.DeepSleep)}
	tr := shortTrace(10, 0.25)
	a, err := Run(runnerConfig(t, &staticStrategy{pol: pol}, tr, 5))
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(runnerConfig(t, &staticStrategy{pol: pol}, tr, 5))
	if err != nil {
		t.Fatal(err)
	}
	if a.Jobs != b.Jobs || a.Energy != b.Energy || a.MeanResponse != b.MeanResponse {
		t.Errorf("runs with same seed differ: %+v vs %+v", a, b)
	}
}

func TestRunPredictorSeesEverySlot(t *testing.T) {
	// With a naive-previous predictor and a flat trace, every epoch after
	// the first should predict exactly the flat utilization.
	pol := policy.Policy{Frequency: 1, Plan: policy.SingleState(power.OperatingIdle)}
	tr := shortTrace(20, 0.37)
	rep, err := Run(runnerConfig(t, &staticStrategy{pol: pol}, tr, 5))
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range rep.Epochs[1:] {
		if math.Abs(e.Predicted-0.37) > 1e-9 {
			t.Errorf("epoch %d predicted %v, want 0.37", e.Index, e.Predicted)
		}
		if math.Abs(e.Realized-0.37) > 1e-9 {
			t.Errorf("epoch %d realized %v, want 0.37", e.Index, e.Realized)
		}
	}
}

func TestRunBacklogCarriesAcrossEpochs(t *testing.T) {
	// Epoch 1 runs at a frequency far below the load; the backlog it builds
	// must delay epoch 2's jobs (§5.2.3's queue-propagation effect).
	slow := policy.Policy{Frequency: 0.31, Plan: policy.SingleState(power.OperatingIdle)}
	fast := policy.Policy{Frequency: 1, Plan: policy.SingleState(power.OperatingIdle)}
	tr := shortTrace(10, 0.3)

	slowFirst, err := Run(runnerConfig(t, &switchingStrategy{plans: []policy.Policy{slow, fast, fast, fast, fast}}, tr, 2))
	if err != nil {
		t.Fatal(err)
	}
	allFast, err := Run(runnerConfig(t, &staticStrategy{pol: fast}, tr, 2))
	if err != nil {
		t.Fatal(err)
	}
	if slowFirst.Epochs[1].MeanDelay <= allFast.Epochs[1].MeanDelay {
		t.Errorf("backlog did not propagate: slow-first epoch-1 delay %v vs all-fast %v",
			slowFirst.Epochs[1].MeanDelay, allFast.Epochs[1].MeanDelay)
	}
}

func TestRunWithSleepScaleStrategySmoke(t *testing.T) {
	// A tiny end-to-end run with the real manager in the loop.
	mu := workload.DNS().MaxServiceRate()
	qos, err := policy.NewMeanResponseQoS(0.8, mu)
	if err != nil {
		t.Fatal(err)
	}
	m := &Manager{
		Profile:      power.Xeon(),
		FreqExponent: 1,
		Space:        policy.Space{Plans: policy.DefaultPlans(), FreqStep: 0.05, MinFreq: 0.05},
		QoS:          qos,
	}
	strat := &managerStrategyForTest{m: m, evalJobs: 400}
	tr := shortTrace(12, 0.3)
	cfg := runnerConfig(t, strat, tr, 3)
	rep, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Jobs == 0 {
		t.Fatal("no jobs served")
	}
	total := 0
	for _, n := range rep.PlanEpochs {
		total += n
	}
	if total != len(rep.Epochs) {
		t.Errorf("plan usage total %d != epochs %d", total, len(rep.Epochs))
	}
}

// managerStrategyForTest is a minimal in-package manager-backed strategy so
// the runner smoke test does not depend on internal/strategy (which imports
// this package).
type managerStrategyForTest struct {
	m        *Manager
	evalJobs int
}

func (s *managerStrategyForTest) Name() string { return "ss-test" }
func (s *managerStrategyForTest) Decide(in DecideInput) (policy.Policy, error) {
	jobs, ok := in.Window.Jobs(s.evalJobs, in.PredictedUtilization, in.Rng)
	if !ok {
		return policy.Policy{Frequency: 1, Plan: s.m.Space.Plans[0]}, nil
	}
	best, err := s.m.Select(jobs, in.PredictedUtilization)
	if err != nil {
		return policy.Policy{}, err
	}
	return best.Policy, nil
}

var _ = eventlog.Epoch{} // keep the import for documentation clarity

// goldenTrace is the equivalence tests' fixture: a slice of the synthetic
// email-store day, wide-ranging enough to exercise variable per-slot rates.
func goldenTrace(t *testing.T) *trace.Trace {
	t.Helper()
	tr, err := trace.EmailStore(1, 3).DailyWindow(120, 300)
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

// requireReportsIdentical pins two runs to bit-identical epoch metrics and
// aggregates — the streamed/materialized equivalence contract.
func requireReportsIdentical(t *testing.T, got, want RunReport) {
	t.Helper()
	if got.Jobs != want.Jobs || got.MeanResponse != want.MeanResponse ||
		got.P95Response != want.P95Response || got.AvgPower != want.AvgPower ||
		got.Energy != want.Energy || got.Duration != want.Duration ||
		got.MeanFrequency != want.MeanFrequency {
		t.Fatalf("aggregates diverge:\n got %+v\nwant %+v", got, want)
	}
	if len(got.Epochs) != len(want.Epochs) {
		t.Fatalf("epochs: %d vs %d", len(got.Epochs), len(want.Epochs))
	}
	for i := range got.Epochs {
		if !reflect.DeepEqual(got.Epochs[i], want.Epochs[i]) {
			t.Fatalf("epoch %d diverges:\n got %+v\nwant %+v", i, got.Epochs[i], want.Epochs[i])
		}
	}
	if !reflect.DeepEqual(got.PlanEpochs, want.PlanEpochs) {
		t.Fatalf("plan usage diverges: %v vs %v", got.PlanEpochs, want.PlanEpochs)
	}
}

// TestRunStreamedMatchesMaterialized is the subsystem's core equivalence
// claim: the streaming Run (jobs pulled chunk by chunk from the incremental
// generator) reproduces a run over the fully materialized TraceJobs stream
// bit for bit, on the golden trace, for both a static and a switching
// strategy.
func TestRunStreamedMatchesMaterialized(t *testing.T) {
	tr := goldenTrace(t)
	strategies := map[string]func() Strategy{
		"static": func() Strategy {
			return &staticStrategy{pol: policy.Policy{
				Frequency: 0.7, Plan: policy.SingleState(power.DeepSleep)}}
		},
		"switching": func() Strategy {
			return &switchingStrategy{plans: []policy.Policy{
				{Frequency: 1, Plan: policy.SingleState(power.OperatingIdle)},
				{Frequency: 0.6, Plan: policy.SingleState(power.DeeperSleep)},
			}}
		},
	}
	for name, mk := range strategies {
		t.Run(name, func(t *testing.T) {
			cfg := runnerConfig(t, mk(), tr, 5)
			streamed, err := Run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			// Materialized path: the full TraceJobs slice through the
			// stream.Slice adapter, with the generator's exact seeding.
			cfg2 := runnerConfig(t, mk(), tr, 5)
			jobs := cfg2.Stats.TraceJobs(tr.Utilization, tr.SlotSeconds,
				rand.New(rand.NewSource(cfg2.Seed)))
			if len(jobs) == 0 {
				t.Fatal("no jobs in materialized stream")
			}
			materialized, err := RunSource(cfg2, stream.Slice(jobs))
			if err != nil {
				t.Fatal(err)
			}
			if streamed.Jobs != len(jobs) {
				t.Fatalf("streamed run served %d jobs, materialized stream has %d",
					streamed.Jobs, len(jobs))
			}
			requireReportsIdentical(t, streamed, materialized)
		})
	}
}

// TestRunSourceScenario drives the runner from a composed scenario source
// (trace baseline merged with an MMPP burst overlay) — the bursty shapes
// the fixed-trace path cannot express.
func TestRunSourceScenario(t *testing.T) {
	tr := goldenTrace(t)
	pol := policy.Policy{Frequency: 1, Plan: policy.SingleState(power.DeepSleep)}
	cfg := runnerConfig(t, &staticStrategy{pol: pol}, tr, 5)

	base, err := cfg.Stats.NewTraceGen(tr.Utilization, tr.SlotSeconds, cfg.Seed)
	if err != nil {
		t.Fatal(err)
	}
	baseline, err := RunSource(cfg, base)
	if err != nil {
		t.Fatal(err)
	}

	cfg2 := runnerConfig(t, &staticStrategy{pol: pol}, tr, 5)
	base2, err := cfg2.Stats.NewTraceGen(tr.Utilization, tr.SlotSeconds, cfg2.Seed)
	if err != nil {
		t.Fatal(err)
	}
	burst, err := stream.NewMMPP(stream.MMPPConfig{
		OnRate: 2, OffRate: 0, MeanOn: 300, MeanOff: 1200,
		Size: cfg2.Stats.Size, Horizon: tr.Duration(),
	}, 99)
	if err != nil {
		t.Fatal(err)
	}
	withBurst, err := RunSource(cfg2, stream.Merge(base2, burst))
	if err != nil {
		t.Fatal(err)
	}
	if withBurst.Jobs <= baseline.Jobs {
		t.Fatalf("burst overlay added no jobs: %d vs %d", withBurst.Jobs, baseline.Jobs)
	}
	if withBurst.Energy <= baseline.Energy {
		t.Errorf("burst overlay added no energy: %g vs %g", withBurst.Energy, baseline.Energy)
	}
}

// failingSource delivers a few jobs then fails, checking RunSource surfaces
// deferred source errors instead of silently truncating the run.
type failingSource struct {
	n   int
	err error
}

func (f *failingSource) Next(buf []queue.Job) (int, bool) {
	n := 0
	for n < len(buf) && f.n < 5 {
		buf[n] = queue.Job{Arrival: float64(f.n), Size: 0.01}
		f.n++
		n++
	}
	return n, f.n < 5
}
func (f *failingSource) Reset(int64) { f.n = 0 }
func (f *failingSource) Err() error  { return f.err }

func TestRunSourceSurfacesSourceError(t *testing.T) {
	pol := policy.Policy{Frequency: 1, Plan: policy.SingleState(power.DeepSleep)}
	tr := shortTrace(4, 0.2)
	cfg := runnerConfig(t, &staticStrategy{pol: pol}, tr, 2)
	src := &failingSource{err: errTest}
	if _, err := RunSource(cfg, src); err == nil {
		t.Fatal("source error not surfaced")
	}
	src = &failingSource{}
	if _, err := RunSource(cfg, src); err != nil {
		t.Fatalf("clean source rejected: %v", err)
	}
	if _, err := RunSource(cfg, nil); err == nil {
		t.Fatal("nil source accepted")
	}
}

var errTest = fmt.Errorf("synthetic stream failure")
