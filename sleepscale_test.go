package sleepscale_test

import (
	"math"
	"math/rand"
	"testing"

	"sleepscale"
	"sleepscale/internal/farm"
)

// TestQuickstart exercises the doc.go example end to end through the public
// facade only.
func TestQuickstart(t *testing.T) {
	prof := sleepscale.Xeon()
	spec := sleepscale.DNS()
	qos, err := sleepscale.NewMeanResponseQoS(0.8, spec.MaxServiceRate())
	if err != nil {
		t.Fatal(err)
	}
	mgr := sleepscale.NewManager(prof, spec, qos)
	stats, err := sleepscale.NewIdealizedStats(spec)
	if err != nil {
		t.Fatal(err)
	}
	stats, err = stats.AtUtilization(0.3)
	if err != nil {
		t.Fatal(err)
	}
	jobs := stats.Jobs(10000, rand.New(rand.NewSource(1)))
	best, err := mgr.Select(jobs, 0.3)
	if err != nil {
		t.Fatal(err)
	}
	if !best.Feasible {
		t.Fatalf("quickstart selection infeasible: %+v", best)
	}
	if best.Policy.Frequency <= 0.3 || best.Policy.Frequency > 1 {
		t.Errorf("selected frequency %v out of range", best.Policy.Frequency)
	}
	// The exhaustive rule over every candidate: the feasible minimum power,
	// the first candidate winning ties.
	pols := mgr.Space.Policies(0.3, spec.FreqExponent)
	if len(pols) == 0 {
		t.Fatal("no evaluations")
	}
	want, found := best, false
	for _, p := range pols {
		e, err := mgr.Evaluate(jobs, p)
		if err != nil {
			t.Fatal(err)
		}
		if e.Feasible && (!found || e.Metrics.AvgPower < want.Metrics.AvgPower) {
			want, found = e, true
		}
	}
	if best.Policy.String() != want.Policy.String() || best.Metrics.AvgPower != want.Metrics.AvgPower ||
		best.Metrics.MeanResponse != want.Metrics.MeanResponse {
		t.Errorf("Select picked %v (%+v), exhaustive search %v (%+v)",
			best.Policy, best.Metrics, want.Policy, want.Metrics)
	}
}

func TestFacadeSimulateAndModelAgree(t *testing.T) {
	prof := sleepscale.Xeon()
	pol := sleepscale.Policy{Frequency: 0.6, Plan: sleepscale.SingleState(sleepscale.DeepSleep)}
	cfg, err := pol.Config(prof, 1)
	if err != nil {
		t.Fatal(err)
	}
	mu, rho := 5.0, 0.2
	lambda := rho * mu
	rng := rand.New(rand.NewSource(2))
	jobs := make([]sleepscale.Job, 200000)
	tnow := 0.0
	for i := range jobs {
		tnow += rng.ExpFloat64() / lambda
		jobs[i] = sleepscale.Job{Arrival: tnow, Size: rng.ExpFloat64() / mu}
	}
	res, err := sleepscale.Simulate(jobs, cfg)
	if err != nil {
		t.Fatal(err)
	}
	model, err := pol.AnalyticModel(prof, lambda, mu)
	if err != nil {
		t.Fatal(err)
	}
	wantP, err := model.MeanPower()
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.AvgPower-wantP)/wantP > 0.03 {
		t.Errorf("facade sim power %v vs model %v", res.AvgPower, wantP)
	}
}

func TestFacadeTraceRun(t *testing.T) {
	spec := sleepscale.DNS()
	stats, err := sleepscale.NewIdealizedStats(spec)
	if err != nil {
		t.Fatal(err)
	}
	tr := sleepscale.EmailStoreTrace(1, 3)
	window, err := tr.Window(120, 180) // one hour
	if err != nil {
		t.Fatal(err)
	}
	pol := sleepscale.Policy{Frequency: 1, Plan: sleepscale.SingleState(sleepscale.DeepSleep)}
	rep, err := sleepscale.Run(sleepscale.RunnerConfig{
		Stats:        stats,
		FreqExponent: spec.FreqExponent,
		Profile:      sleepscale.Xeon(),
		Trace:        window,
		EpochSlots:   5,
		Predictor:    sleepscale.NewNaivePredictor(),
		Strategy:     sleepscale.NewStaticStrategy(pol, "pinned"),
		Seed:         1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Jobs == 0 || rep.AvgPower <= 0 {
		t.Errorf("degenerate run report: %+v", rep)
	}
	if rep.Strategy != "pinned" {
		t.Errorf("strategy name = %q", rep.Strategy)
	}
}

func TestFacadeConstructorsAndConstants(t *testing.T) {
	if got := len(sleepscale.LowPowerStates()); got != 5 {
		t.Errorf("low-power states = %d", got)
	}
	if _, err := sleepscale.NewLMSPredictor(10, 0.5); err != nil {
		t.Error(err)
	}
	if _, err := sleepscale.NewLMSCUSUMPredictor(10, 0.5); err != nil {
		t.Error(err)
	}
	if sleepscale.NewOfflinePredictor([]float64{0.5}).Predict() != 0.5 {
		t.Error("offline predictor wrong")
	}
	fs := sleepscale.FileServerTrace(1, 1)
	if fs.Len() != 1440 {
		t.Errorf("file server trace len = %d", fs.Len())
	}
	if _, err := sleepscale.NewFittedStats(sleepscale.DNS()); err != nil {
		t.Error(err)
	}
}

func TestFacadeMultiCoreAndFarm(t *testing.T) {
	cfg := sleepscale.MultiCoreConfig{
		Cores: 2, Frequency: 1, FreqExponent: 1,
		CPUActivePower: 32.5,
		CoreSleep: []sleepscale.MultiCorePhase{
			{Name: "C6", Power: 3.75, WakeLatency: 1e-3, EnterAfter: 0},
		},
		PlatformActivePower: 120, PlatformIdlePower: 60.5, PlatformSleepPower: 13.1,
		PlatformSleepAfter: 2, PlatformWakeLatency: 1,
	}
	jobs := []sleepscale.Job{{Arrival: 0, Size: 1}, {Arrival: 0.5, Size: 1}}
	res, err := sleepscale.SimulateMultiCore(jobs, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Jobs != 2 {
		t.Errorf("jobs = %d", res.Jobs)
	}
	if _, err := sleepscale.MMkMeanResponse(4, 14, 5); err != nil {
		t.Error(err)
	}
	// Farm facade.
	pol := sleepscale.Policy{Frequency: 1, Plan: sleepscale.SingleState(sleepscale.DeepSleep)}
	qcfg, err := pol.Config(sleepscale.Xeon(), 1)
	if err != nil {
		t.Fatal(err)
	}
	fres, err := sleepscale.RunFarm(2, qcfg, &sleepscale.RoundRobin{}, jobs)
	if err != nil {
		t.Fatal(err)
	}
	if fres.Jobs != 2 {
		t.Errorf("farm jobs = %d", fres.Jobs)
	}
}

func TestFacadeGuardedPlan(t *testing.T) {
	prof := sleepscale.Xeon()
	tau, err := sleepscale.BreakEvenDelay(prof, 0.5, sleepscale.OperatingIdle, sleepscale.DeeperSleep)
	if err != nil {
		t.Fatal(err)
	}
	if tau <= 0 {
		t.Errorf("break-even = %v", tau)
	}
	plan, err := sleepscale.GuardedPlan(prof, 0.5, sleepscale.OperatingIdle, sleepscale.DeeperSleep)
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.Phases) != 2 || plan.Phases[1].Enter != tau {
		t.Errorf("guarded plan wrong: %+v", plan)
	}
}

func TestFacadeStrategies(t *testing.T) {
	spec := sleepscale.DNS()
	qos, _ := sleepscale.NewMeanResponseQoS(0.8, spec.MaxServiceRate())
	mk := func() *sleepscale.Manager {
		return sleepscale.NewManager(sleepscale.Xeon(), spec, qos)
	}
	if _, err := sleepscale.NewSleepScaleStrategy(mk(), 500, 0.35); err != nil {
		t.Error(err)
	}
	if _, err := sleepscale.NewFixedSleepStrategy(mk(), sleepscale.Sleep, 500, 0); err != nil {
		t.Error(err)
	}
	if _, err := sleepscale.NewDVFSOnlyStrategy(mk(), 500, 0); err != nil {
		t.Error(err)
	}
	if _, err := sleepscale.NewRaceToHaltStrategy(sleepscale.DeepSleep); err != nil {
		t.Error(err)
	}
}

// TestFacadeStreamedFarmDispatch exercises the streaming k-way dispatch
// facade end to end: RunFarmSource must match RunFarm on the same stream,
// a reusable Farm must serve rewound sources via Reset+ServeSource, and a
// shared-mode fleet coordinator must run the epoch loop over a dispatched
// farm.
func TestFacadeStreamedFarmDispatch(t *testing.T) {
	pol := sleepscale.Policy{Frequency: 1, Plan: sleepscale.SingleState(sleepscale.DeepSleep)}
	qcfg, err := pol.Config(sleepscale.Xeon(), 1)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(7))
	jobs := make([]sleepscale.Job, 5000)
	tnow := 0.0
	for i := range jobs {
		tnow += rng.ExpFloat64() / 8
		jobs[i] = sleepscale.Job{Arrival: tnow, Size: rng.ExpFloat64() / 5}
	}
	want, err := sleepscale.RunFarm(3, qcfg, sleepscale.JSQ{}, jobs)
	if err != nil {
		t.Fatal(err)
	}
	got, err := sleepscale.RunFarmSource(3, qcfg, sleepscale.JSQ{}, sleepscale.SliceSource(jobs))
	if err != nil {
		t.Fatal(err)
	}
	if got.Jobs != want.Jobs || got.MeanResponse != want.MeanResponse || got.Energy != want.Energy {
		t.Errorf("streamed dispatch diverges from RunFarm: %+v vs %+v", got, want)
	}

	// Reusable farm: Reset + ServeSource over a rewound source.
	f, err := farm.New(3, qcfg, sleepscale.JSQ{})
	if err != nil {
		t.Fatal(err)
	}
	for run := 0; run < 2; run++ {
		if err := f.Reset(qcfg); err != nil {
			t.Fatal(err)
		}
		n, err := f.ServeSource(sleepscale.SliceSource(jobs))
		if err != nil {
			t.Fatal(err)
		}
		if n != len(jobs) {
			t.Fatalf("run %d served %d of %d jobs", run, n, len(jobs))
		}
	}

	// Epoch loop over a streamed farm.
	stats, err := sleepscale.NewIdealizedStats(sleepscale.DNS())
	if err != nil {
		t.Fatal(err)
	}
	tr := sleepscale.FileServerTrace(1, 1)
	coord, err := sleepscale.NewFleetCoordinator(sleepscale.FleetConfig{
		Servers:      2,
		FreqExponent: 1,
		Profile:      sleepscale.Xeon(),
		Trace:        tr,
		EpochSlots:   120,
		Predictor:    sleepscale.NewNaivePredictor(),
		Strategy:     sleepscale.NewStaticStrategy(pol, "static"),
		Seed:         1,
		Dispatcher:   &sleepscale.RoundRobin{},
	})
	if err != nil {
		t.Fatal(err)
	}
	src, err := sleepscale.NewTraceSource(stats, tr, 1)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := coord.Run(src)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Jobs == 0 || rep.Servers != 2 || rep.Dispatcher != "round-robin" {
		t.Errorf("farm epoch report: jobs=%d servers=%d dispatcher=%q",
			rep.Jobs, rep.Servers, rep.Dispatcher)
	}
}

// TestFacadeFleetCoordinator drives the fleet layer through the public
// facade: a one-server shared-mode run matches RunSource exactly, the
// coordinated knobs produce fleet rollups, and the epoch log round-trips
// through colstore.
func TestFacadeFleetCoordinator(t *testing.T) {
	stats, err := sleepscale.NewIdealizedStats(sleepscale.DNS())
	if err != nil {
		t.Fatal(err)
	}
	tr, err := sleepscale.FileServerTrace(1, 1).Window(0, 40)
	if err != nil {
		t.Fatal(err)
	}
	pol := sleepscale.Policy{Frequency: 1, Plan: sleepscale.SingleState(sleepscale.DeepSleep)}
	newSrc := func() sleepscale.StreamSource {
		src, err := sleepscale.NewTraceSource(stats, tr, 1)
		if err != nil {
			t.Fatal(err)
		}
		return src
	}
	base := sleepscale.FleetConfig{
		Servers:      3,
		FreqExponent: 1,
		Profile:      sleepscale.Xeon(),
		Trace:        tr,
		EpochSlots:   8,
		Predictor:    sleepscale.NewNaivePredictor(),
		Strategy:     sleepscale.NewStaticStrategy(pol, "static"),
		Seed:         1,
		Dispatcher:   sleepscale.JSQ{},
	}

	// Shared mode, no quorum, no parking, one server: bit-identical to the
	// single-server §6 loop.
	one := base
	one.Servers = 1
	coord, err := sleepscale.NewFleetCoordinator(one)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := coord.Run(newSrc())
	if err != nil {
		t.Fatal(err)
	}
	want, err := sleepscale.RunSource(sleepscale.RunnerConfig{
		FreqExponent: 1,
		Profile:      sleepscale.Xeon(),
		Trace:        tr,
		EpochSlots:   8,
		Predictor:    sleepscale.NewNaivePredictor(),
		Strategy:     sleepscale.NewStaticStrategy(pol, "static"),
		Seed:         1,
	}, newSrc())
	if err != nil {
		t.Fatal(err)
	}
	if rep.Jobs != want.Jobs || rep.MeanResponse != want.MeanResponse || rep.Energy != want.Energy {
		t.Errorf("shared coordinator diverges from RunSource: jobs %d vs %d, E[R] %v vs %v, energy %v vs %v",
			rep.Jobs, want.Jobs, rep.MeanResponse, want.MeanResponse, rep.Energy, want.Energy)
	}

	// Coordinated: per-server policies, a quorum and parking.
	cfg := base
	cfg.PerServer = true
	cfg.Predictor = nil
	cfg.NewPredictor = sleepscale.NewNaivePredictor
	cfg.Quorum = 1
	cfg.Park = true
	coord, err = sleepscale.NewFleetCoordinator(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if rep, err = coord.Run(newSrc()); err != nil {
		t.Fatal(err)
	}
	if rep.Servers != 3 || len(rep.PerServer) != 3 || len(rep.FleetEpochs) != len(rep.Epochs) {
		t.Fatalf("fleet report shape: %+v", rep)
	}
	if rep.EnergyProportionality <= 0 || rep.EnergyProportionality > 1 || rep.JobsPerJoule <= 0 {
		t.Errorf("fleet rollups: EP=%v jobs/J=%v", rep.EnergyProportionality, rep.JobsPerJoule)
	}
	for _, fe := range rep.FleetEpochs {
		if q := min(1, fe.Active); fe.Shallow < q {
			t.Fatalf("epoch %d breaks quorum: %+v", fe.Index, fe)
		}
	}
	dir := t.TempDir()
	if err := sleepscale.WriteFleetEpochLog(dir+"/e.col", rep); err != nil {
		t.Fatal(err)
	}
	r, err := sleepscale.OpenCol(dir + "/e.col")
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if r.Rows() != len(rep.Epochs) {
		t.Errorf("epoch log rows = %d, want %d", r.Rows(), len(rep.Epochs))
	}
}
