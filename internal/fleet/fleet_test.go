package fleet

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"math/rand"
	"path/filepath"
	"reflect"
	"sort"
	"testing"

	"sleepscale/internal/colstore"
	"sleepscale/internal/core"
	"sleepscale/internal/farm"
	"sleepscale/internal/policy"
	"sleepscale/internal/power"
	"sleepscale/internal/predict"
	"sleepscale/internal/queue"
	"sleepscale/internal/stream"
	"sleepscale/internal/trace"
)

func flatTrace(slots int, util float64) *trace.Trace {
	t := &trace.Trace{Name: "flat", SlotSeconds: 1, Utilization: make([]float64, slots)}
	for i := range t.Utilization {
		t.Utilization[i] = util
	}
	return t
}

func fleetJobs(n int, lambda, mu float64, seed int64) []queue.Job {
	rng := rand.New(rand.NewSource(seed))
	jobs := make([]queue.Job, n)
	tnow := 0.0
	for i := range jobs {
		tnow += rng.ExpFloat64() / lambda
		jobs[i] = queue.Job{Arrival: tnow, Size: rng.ExpFloat64() / mu}
	}
	return jobs
}

// staticStrategy pins one policy for every epoch.
type staticStrategy struct{ pol policy.Policy }

func (s *staticStrategy) Name() string { return "static-test" }
func (s *staticStrategy) Decide(core.DecideInput) (policy.Policy, error) {
	return s.pol, nil
}

// rngStrategy consumes the decision RNG every epoch, so any divergence in
// the decide stream between two drivers shows up as different policies —
// the sharpest possible probe of bit-for-bit decision equivalence.
type rngStrategy struct{ plans []policy.SleepPlan }

func newRngStrategy() *rngStrategy {
	return &rngStrategy{plans: []policy.SleepPlan{
		policy.NoSleep(),
		policy.SingleState(power.Sleep),
		policy.SingleState(power.DeeperSleep),
		policy.DelayedState(power.DeepSleep, 0.5),
	}}
}

func (s *rngStrategy) Name() string { return "rng-test" }
func (s *rngStrategy) Decide(in core.DecideInput) (policy.Policy, error) {
	pl := s.plans[in.Rng.Intn(len(s.plans))]
	f := 0.4 + 0.6*in.Rng.Float64()
	return policy.Policy{Frequency: f, Plan: pl}, nil
}

func runnerCfg(tr *trace.Trace, strat core.Strategy, seed int64) core.RunnerConfig {
	return core.RunnerConfig{
		FreqExponent: 1,
		Profile:      power.Xeon(),
		Trace:        tr,
		EpochSlots:   4,
		Predictor:    predict.NewNaivePrevious(),
		Strategy:     strat,
		Seed:         seed,
	}
}

// runDigest folds a run report's aggregates and every epoch record into an
// FNV-64a hash, floats as raw IEEE-754 bits, so two runs compare bit for bit
// through one constant.
func runDigest(rep *core.RunReport) uint64 {
	h := fnv.New64a()
	var b [8]byte
	u := func(v uint64) {
		binary.LittleEndian.PutUint64(b[:], v)
		h.Write(b[:])
	}
	f := func(x float64) { u(math.Float64bits(x)) }
	s := func(str string) {
		u(uint64(len(str)))
		h.Write([]byte(str))
	}
	s(rep.Strategy)
	s(rep.Predictor)
	u(uint64(rep.Jobs))
	f(rep.MeanResponse)
	f(rep.P95Response)
	f(rep.AvgPower)
	f(rep.Energy)
	f(rep.Duration)
	f(rep.MeanFrequency)
	names := make([]string, 0, len(rep.PlanEpochs))
	for name := range rep.PlanEpochs {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		s(name)
		u(uint64(rep.PlanEpochs[name]))
	}
	u(uint64(len(rep.Epochs)))
	for _, e := range rep.Epochs {
		u(uint64(e.Index))
		f(e.Predicted)
		f(e.Realized)
		f(e.Policy.Frequency)
		s(e.Policy.Plan.Name)
		u(uint64(len(e.Policy.Plan.Phases)))
		for _, ph := range e.Policy.Plan.Phases {
			u(uint64(ph.State.CPU))
			u(uint64(ph.State.Platform))
			f(ph.Enter)
		}
		u(uint64(e.Jobs))
		f(e.MeanDelay)
		f(e.P95Delay)
		f(e.Energy)
		f(e.BusyTime)
		f(e.WakeTime)
		f(e.IdleTime)
	}
	return h.Sum64()
}

// sharedConfig is a shared-mode coordinator configuration — one decision per
// epoch applied fleet-wide, no quorum, no parking — with runnerCfg's epoch
// length and predictor.
func sharedConfig(k int, tr *trace.Trace, strat core.Strategy, seed int64, disp farm.Dispatcher) Config {
	return Config{
		Servers:      k,
		FreqExponent: 1,
		Profile:      power.Xeon(),
		Trace:        tr,
		EpochSlots:   4,
		Strategy:     strat,
		Predictor:    predict.NewNaivePrevious(),
		Seed:         seed,
		Dispatcher:   disp,
	}
}

// runShared runs one shared-mode coordinator over jobs.
func runShared(t *testing.T, cfg Config, jobs []queue.Job) *Report {
	t.Helper()
	coord, err := New(cfg)
	if err != nil {
		t.Fatalf("k=%d %s: new: %v", cfg.Servers, cfg.Dispatcher.Name(), err)
	}
	rep, err := coord.Run(stream.Slice(jobs))
	if err != nil {
		t.Fatalf("k=%d %s: run: %v", cfg.Servers, cfg.Dispatcher.Name(), err)
	}
	return rep
}

// TestCoordinatorSharedMatchesRunFarmSource pins the farm's §6 epoch driver:
// a shared-mode coordinator with no quorum and no parking must reproduce,
// bit for bit, the per-epoch records and aggregates core.RunFarmSource — the
// dedicated farm epoch runner shared mode replaced — produced for the same
// runs. The runDigest constants were recorded from that runner across seeds,
// fleet sizes and dispatchers, with an RNG-consuming strategy so the
// decision stream itself is compared.
func TestCoordinatorSharedMatchesRunFarmSource(t *testing.T) {
	tr := flatTrace(12, 0.3)
	cases := []struct {
		k      int
		lambda float64
		disp   func() farm.Dispatcher
		name   string
		digest [2]uint64 // seeds 1 and 2
	}{
		{1, 5, func() farm.Dispatcher { return farm.JSQ{} }, "jsq", [2]uint64{0xdb8e0f1c8306522e, 0xde7a78cef8fcf574}},
		{7, 35, func() farm.Dispatcher { return farm.JSQ{} }, "jsq", [2]uint64{0x79d52401aab398c9, 0x3fbbce0cd50bc35d}},
		{7, 35, func() farm.Dispatcher { return &farm.RoundRobin{} }, "rr", [2]uint64{0x5712c5eb1e23ac37, 0x0c81c7c1580445dc}},
		{7, 35, func() farm.Dispatcher { return &farm.LeastWorkLeft{} }, "lwl", [2]uint64{0xa403b44b146177e6, 0x3fbbce0cd50bc35d}},
		{1000, 2000, func() farm.Dispatcher { return farm.JSQ{} }, "jsq", [2]uint64{0xc1b312fcbd457656, 0xba3e7f5819efb35b}},
	}
	for _, tc := range cases {
		for i, seed := range []int64{1, 2} {
			jobs := fleetJobs(int(tc.lambda*10), tc.lambda, 5, seed+10)
			got := runShared(t, sharedConfig(tc.k, tr, newRngStrategy(), seed, tc.disp()), jobs)
			if d := runDigest(&got.RunReport); d != tc.digest[i] {
				t.Errorf("k=%d %s seed=%d: run digest %#016x, want %#016x", tc.k, tc.name, seed, d, tc.digest[i])
			}
			for _, fe := range got.FleetEpochs {
				if fe.Active != tc.k || fe.Parked != 0 || fe.Unparked != 0 {
					t.Fatalf("k=%d %s seed=%d epoch %d: unexpected fleet dims %+v", tc.k, tc.name, seed, fe.Index, fe)
				}
			}
		}
	}
}

// TestCoordinatorSharedK1MatchesRunSource anchors the farm epoch driver to
// the single-server runner: with one server, any dispatcher degenerates to
// the same engine fed the same jobs under the same per-epoch switches, so the
// shared coordinator must match core.RunSource bit for bit — every aggregate
// and every epoch record, with an RNG-consuming strategy.
func TestCoordinatorSharedK1MatchesRunSource(t *testing.T) {
	tr := flatTrace(12, 0.3)
	for _, seed := range []int64{1, 2} {
		jobs := fleetJobs(50, 5, 5, seed+10)
		want, err := core.RunSource(runnerCfg(tr, newRngStrategy(), seed), stream.Slice(jobs))
		if err != nil {
			t.Fatal(err)
		}
		for _, disp := range []farm.Dispatcher{farm.JSQ{}, &farm.LeastWorkLeft{}} {
			got := runShared(t, sharedConfig(1, tr, newRngStrategy(), seed, disp), jobs)
			if !reflect.DeepEqual(got.RunReport, want) {
				t.Fatalf("%s seed=%d: k=1 coordinator diverges from RunSource:\n got %+v\nwant %+v",
					disp.Name(), seed, got.RunReport, want)
			}
		}
	}
}

// TestCoordinatorSharedBasics checks a shared-mode run's report shape and
// accounting: the fleet identifies itself, and per-server jobs and draws sum
// to the aggregates.
func TestCoordinatorSharedBasics(t *testing.T) {
	pol := policy.Policy{Frequency: 1, Plan: policy.SingleState(power.DeepSleep)}
	tr := flatTrace(20, 0.6)
	cfg := sharedConfig(3, tr, &staticStrategy{pol: pol}, 1, &farm.RoundRobin{})
	cfg.EpochSlots = 5
	rep := runShared(t, cfg, fleetJobs(200, 9, 5, 4))
	if rep.Jobs == 0 {
		t.Fatal("no jobs served")
	}
	if rep.Servers != 3 || rep.Dispatcher != "round-robin" {
		t.Errorf("report identifies %d servers / %q", rep.Servers, rep.Dispatcher)
	}
	if len(rep.Epochs) != 4 || len(rep.PerServer) != 3 {
		t.Fatalf("shape: %d epochs, %d servers", len(rep.Epochs), len(rep.PerServer))
	}
	jobs, watts := 0, 0.0
	for _, sr := range rep.PerServer {
		jobs += sr.Jobs
		watts += sr.AvgPower
	}
	if jobs != rep.Jobs {
		t.Errorf("per-server jobs sum %d != total %d", jobs, rep.Jobs)
	}
	if watts != rep.AvgPower {
		t.Errorf("AvgPower %v != per-server sum %v", rep.AvgPower, watts)
	}
}

// TestCoordinatorSharedEpochEnergySumsToReportEnergy: at k = 3 under JSQ the
// per-epoch energy and busy deltas of a shared-mode run telescope exactly to
// the whole fleet's per-server totals, and so to the report's energy.
func TestCoordinatorSharedEpochEnergySumsToReportEnergy(t *testing.T) {
	pol := policy.Policy{Frequency: 1, Plan: policy.SingleState(power.DeepSleep)}
	cfg := sharedConfig(3, flatTrace(12, 0.4), &staticStrategy{pol: pol}, 1, farm.JSQ{})
	cfg.EpochSlots = 3
	rep := runShared(t, cfg, fleetJobs(60, 6, 5, 8))
	if rep.Jobs == 0 || len(rep.Epochs) != 4 {
		t.Fatalf("%d jobs over %d epochs", rep.Jobs, len(rep.Epochs))
	}
	checkEnergyTelescope(t, "shared", rep)
	var energy float64
	for _, e := range rep.Epochs {
		energy += e.Energy
	}
	if math.Abs(energy-rep.Energy) > 1e-6*rep.Energy {
		t.Fatalf("farm epoch energies sum to %g, report says %g", energy, rep.Energy)
	}
}

// TestCoordinatorSharedScaleOutSpreadsLoad: with JSQ over more servers, the
// same aggregate stream must yield a lower mean response while total power
// grows sub-linearly (idle servers sleep) — the §7 scale-out story through
// the epoch loop.
func TestCoordinatorSharedScaleOutSpreadsLoad(t *testing.T) {
	pol := policy.Policy{Frequency: 1, Plan: policy.SingleState(power.DeepSleep)}
	tr := flatTrace(100, 0.8)
	jobs := fleetJobs(400, 4, 5, 21)
	one := runShared(t, sharedConfig(1, tr, &staticStrategy{pol: pol}, 1, farm.JSQ{}), jobs)
	four := runShared(t, sharedConfig(4, tr, &staticStrategy{pol: pol}, 1, farm.JSQ{}), jobs)
	if four.MeanResponse >= one.MeanResponse {
		t.Errorf("scale-out did not improve response: %v vs %v", four.MeanResponse, one.MeanResponse)
	}
	if four.AvgPower >= 4*one.AvgPower {
		t.Errorf("4 servers draw %v W ≥ 4× one server's %v W — sleep not exploited", four.AvgPower, one.AvgPower)
	}
}

// TestCoordinatorRunIsRepeatable: a reused coordinator must reproduce its
// own run exactly when the predictor state is equivalent (static strategy,
// reset source) — the reuse contract the benchmark leans on.
func TestCoordinatorRunIsRepeatable(t *testing.T) {
	tr := flatTrace(12, 0.3)
	jobs := fleetJobs(300, 30, 5, 3)
	pol := policy.Policy{Frequency: 0.9, Plan: policy.SingleState(power.DeepSleep)}
	coord, err := New(Config{
		Servers: 5, FreqExponent: 1, Profile: power.Xeon(), Trace: tr,
		EpochSlots: 4, Strategy: &staticStrategy{pol: pol},
		PerServer:    true,
		NewPredictor: func() predict.Predictor { return predict.NewNaivePrevious() },
		Seed:         1, Dispatcher: farm.JSQ{},
		Quorum: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	first, err := coord.Run(stream.Slice(jobs))
	if err != nil {
		t.Fatal(err)
	}
	jobsA, meanA, energyA := first.Jobs, first.MeanResponse, first.Energy
	epochsA := append([]core.EpochRecord(nil), first.Epochs...)
	for run := 0; run < 2; run++ {
		rep, err := coord.Run(stream.Slice(jobs))
		if err != nil {
			t.Fatal(err)
		}
		if rep.Jobs != jobsA || rep.MeanResponse != meanA || rep.Energy != energyA {
			t.Fatalf("run %d diverged: %d/%.17g/%.17g != %d/%.17g/%.17g",
				run, rep.Jobs, rep.MeanResponse, rep.Energy, jobsA, meanA, energyA)
		}
		for i := range rep.Epochs {
			if rep.Epochs[i].Jobs != epochsA[i].Jobs || rep.Epochs[i].Energy != epochsA[i].Energy {
				t.Fatalf("run %d epoch %d diverged", run, i)
			}
		}
	}
}

// TestCoordinatorPerServerStaticMatchesShared: with a static strategy,
// per-server decisions are identical to the shared decision, so everything
// except the Predicted column must match the shared-mode coordinator.
func TestCoordinatorPerServerStaticMatchesShared(t *testing.T) {
	tr := flatTrace(12, 0.4)
	jobs := fleetJobs(400, 35, 5, 7)
	pol := policy.Policy{Frequency: 0.8, Plan: policy.SingleState(power.DeepSleep)}
	const k = 7

	want := runShared(t, sharedConfig(k, tr, &staticStrategy{pol: pol}, 1, farm.JSQ{}), jobs)
	cfg := sharedConfig(k, tr, &staticStrategy{pol: pol}, 1, farm.JSQ{})
	cfg.PerServer = true
	cfg.Predictor = nil
	cfg.NewPredictor = func() predict.Predictor { return predict.NewNaivePrevious() }
	got := runShared(t, cfg, jobs)
	if got.Jobs != want.Jobs || got.MeanResponse != want.MeanResponse ||
		got.P95Response != want.P95Response || got.AvgPower != want.AvgPower ||
		got.Energy != want.Energy {
		t.Fatalf("aggregates diverge:\n got %+v\nwant %+v", got.RunReport, want.RunReport)
	}
	for i := range got.Epochs {
		g, w := got.Epochs[i], want.Epochs[i]
		if g.Jobs != w.Jobs || g.MeanDelay != w.MeanDelay || g.P95Delay != w.P95Delay ||
			g.Realized != w.Realized || g.Energy != w.Energy || g.BusyTime != w.BusyTime {
			t.Fatalf("epoch %d diverges:\n got %+v\nwant %+v", i, g, w)
		}
	}
	// Per-server mode counts one plan epoch per active server.
	if got.PlanEpochs[pol.Plan.Name] != k*len(got.Epochs) {
		t.Fatalf("plan epochs %v, want %d", got.PlanEpochs, k*len(got.Epochs))
	}
}

// TestCoordinatorHeterogeneousPerServer: a strategy keying off per-server
// predictions must produce genuinely different per-server policies on a
// skewed fleet, and the run must still complete with consistent accounting.
func TestCoordinatorHeterogeneousPerServer(t *testing.T) {
	tr := flatTrace(16, 0.5)
	jobs := fleetJobs(600, 40, 5, 11)
	strat := newRngStrategy()
	const k = 4
	distinct := make(map[string]bool)
	coord, err := New(Config{
		Servers: k, FreqExponent: 1, Profile: power.Xeon(), Trace: tr,
		EpochSlots: 4, Strategy: strat,
		PerServer:    true,
		NewPredictor: func() predict.Predictor { return predict.NewNaivePrevious() },
		Seed:         3, Dispatcher: &farm.LeastWorkLeft{},
	})
	if err != nil {
		t.Fatal(err)
	}
	coord.cfg.Observer = func(Epoch) {
		for s := 0; s < k; s++ {
			pol, parked := coord.Installed(s)
			if !parked {
				distinct[pol.String()] = true
			}
		}
	}
	rep, err := coord.Run(stream.Slice(jobs))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Jobs == 0 {
		t.Fatal("no jobs served")
	}
	if len(distinct) < 2 {
		t.Fatalf("per-server decisions never diverged: %v", distinct)
	}
	total := 0
	for s := range rep.PerServer {
		total += rep.PerServer[s].Jobs
	}
	if total != rep.Jobs {
		t.Fatalf("per-server jobs sum %d != %d", total, rep.Jobs)
	}
}

// TestQuorumInvariantAndRotation: with Quorum=2 over 6 servers and a
// deep-sleeping strategy, every epoch must keep exactly min(Q, active)
// servers shallow, the duty window must rotate so every server gets capped,
// and every server must also get its deep-sleep epochs.
func TestQuorumInvariantAndRotation(t *testing.T) {
	const k, q = 6, 2
	tr := flatTrace(24, 0.2)
	jobs := fleetJobs(300, 12, 5, 5)
	pol := policy.Policy{Frequency: 1, Plan: policy.SingleState(power.DeeperSleep)}
	var coord *Coordinator
	capped := make([]int, k)
	deep := make([]int, k)
	cfg := Config{
		Servers: k, FreqExponent: 1, Profile: power.Xeon(), Trace: tr,
		EpochSlots: 2, Strategy: &staticStrategy{pol: pol},
		Predictor: predict.NewNaivePrevious(),
		Seed:      1, Dispatcher: farm.JSQ{},
		Quorum: q,
		Observer: func(fe Epoch) {
			if fe.Shallow < q {
				t.Fatalf("epoch %d: shallow %d < quorum %d", fe.Index, fe.Shallow, q)
			}
			for s := 0; s < k; s++ {
				p, parked := coord.Installed(s)
				if parked {
					continue
				}
				if p.Plan.DeepestState().CPU <= power.C1 {
					capped[s]++
				} else {
					deep[s]++
				}
			}
		},
	}
	var err error
	coord, err = New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := coord.Run(stream.Slice(jobs))
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.FleetEpochs) != 12 {
		t.Fatalf("epochs %d != 12", len(rep.FleetEpochs))
	}
	for _, fe := range rep.FleetEpochs {
		if fe.Shallow != q {
			t.Fatalf("epoch %d: shallow %d != %d with a deep strategy", fe.Index, fe.Shallow, q)
		}
	}
	for s := 0; s < k; s++ {
		if capped[s] == 0 {
			t.Fatalf("server %d never entered the duty window: %v", s, capped)
		}
		if deep[s] == 0 {
			t.Fatalf("server %d never slept deep: %v", s, deep)
		}
	}
}

// TestParkRoutesOnlyActive: under constant low demand the fleet shrinks to
// the floor and parked servers must never receive a job.
func TestParkRoutesOnlyActive(t *testing.T) {
	const k = 4
	tr := flatTrace(12, 0.05)
	jobs := fleetJobs(100, 2, 5, 9)
	pol := policy.Policy{Frequency: 1, Plan: policy.NoSleep()}
	coord, err := New(Config{
		Servers: k, FreqExponent: 1, Profile: power.Xeon(), Trace: tr,
		EpochSlots: 2, Strategy: &staticStrategy{pol: pol},
		Predictor: predict.NewNaivePrevious(),
		Seed:      1, Dispatcher: farm.JSQ{},
		Park: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := coord.Run(stream.Slice(jobs))
	if err != nil {
		t.Fatal(err)
	}
	for _, fe := range rep.FleetEpochs {
		if fe.Active != 1 || fe.Parked != k-1 {
			t.Fatalf("epoch %d: active/parked %d/%d, want 1/%d", fe.Index, fe.Active, fe.Parked, k-1)
		}
	}
	if rep.PerServer[0].Jobs != rep.Jobs || rep.Jobs == 0 {
		t.Fatalf("server 0 served %d of %d", rep.PerServer[0].Jobs, rep.Jobs)
	}
	for s := 1; s < k; s++ {
		if rep.PerServer[s].Jobs != 0 {
			t.Fatalf("parked server %d served %d jobs", s, rep.PerServer[s].Jobs)
		}
	}
	if rep.EnergyProportionality <= 0 || rep.EnergyProportionality > 1 {
		t.Fatalf("energy proportionality %g outside (0, 1]", rep.EnergyProportionality)
	}
	if rep.PeakPower != float64(k)*power.Xeon().ActivePower(1) {
		t.Fatalf("peak power %g", rep.PeakPower)
	}
}

// TestParkRespectsQuorumFloor: the active set never shrinks below the
// quorum, even under negligible demand.
func TestParkRespectsQuorumFloor(t *testing.T) {
	coord, err := New(Config{
		Servers: 4, FreqExponent: 1, Profile: power.Xeon(), Trace: flatTrace(8, 0.05),
		EpochSlots: 2, Strategy: &staticStrategy{pol: policy.Policy{Frequency: 1, Plan: policy.NoSleep()}},
		Predictor: predict.NewNaivePrevious(),
		Seed:      1, Dispatcher: farm.JSQ{},
		Park: true, Quorum: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := coord.Run(stream.Slice(fleetJobs(50, 2, 5, 1)))
	if err != nil {
		t.Fatal(err)
	}
	for _, fe := range rep.FleetEpochs {
		if fe.Active < 3 {
			t.Fatalf("epoch %d: active %d below quorum floor 3", fe.Index, fe.Active)
		}
	}
}

// TestUnparkPaysExactWake: a server unparked after sleeping in the deepest
// state must record exactly one wake of exactly the deep-sleep latency.
func TestUnparkPaysExactWake(t *testing.T) {
	const k = 2
	tr := flatTrace(12, 0.05)
	for i := 4; i < 12; i++ {
		tr.Utilization[i] = 0.9
	}
	jobs := fleetJobs(200, 8, 4, 13)
	pol := policy.Policy{Frequency: 1, Plan: policy.NoSleep()}
	coord, err := New(Config{
		Servers: k, FreqExponent: 1, Profile: power.Xeon(), Trace: tr,
		EpochSlots: 2, Strategy: &staticStrategy{pol: pol},
		Predictor: predict.NewNaivePrevious(),
		Seed:      1, Dispatcher: farm.JSQ{},
		Park: true, ParkTargetRho: 0.6,
	})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := coord.Run(stream.Slice(jobs))
	if err != nil {
		t.Fatal(err)
	}
	unparked := 0
	for _, fe := range rep.FleetEpochs {
		unparked += fe.Unparked
	}
	if unparked != 1 {
		t.Fatalf("unpark events %d != 1 (%+v)", unparked, rep.FleetEpochs)
	}
	wantWake := power.Xeon().Wake(power.DeeperSleep)
	if rep.PerServer[1].Wakes != 1 || rep.PerServer[1].WakeTime != wantWake {
		t.Fatalf("server 1 wakes=%d wakeTime=%.17g, want 1 wake of exactly %.17g",
			rep.PerServer[1].Wakes, rep.PerServer[1].WakeTime, wantWake)
	}
	// The NoSleep policy never wakes, so server 0 must record none.
	if rep.PerServer[0].Wakes != 0 {
		t.Fatalf("server 0 wakes=%d", rep.PerServer[0].Wakes)
	}
}

// TestNewValidation covers the configuration error surface, the quorum >
// fleet rejection included.
func TestNewValidation(t *testing.T) {
	base := func() Config {
		return Config{
			Servers: 4, FreqExponent: 1, Profile: power.Xeon(), Trace: flatTrace(8, 0.3),
			EpochSlots: 2, Strategy: &staticStrategy{pol: policy.Policy{Frequency: 1, Plan: policy.NoSleep()}},
			Predictor: predict.NewNaivePrevious(), Dispatcher: farm.JSQ{},
		}
	}
	cases := []struct {
		name string
		mut  func(*Config)
	}{
		{"zero servers", func(c *Config) { c.Servers = 0 }},
		{"nil trace", func(c *Config) { c.Trace = nil }},
		{"no strategy", func(c *Config) { c.Strategy = nil }},
		{"no profile", func(c *Config) { c.Profile = nil }},
		{"no dispatcher", func(c *Config) { c.Dispatcher = nil }},
		{"no predictor", func(c *Config) { c.Predictor = nil }},
		{"per-server without factory", func(c *Config) { c.PerServer = true }},
		{"quorum exceeds fleet", func(c *Config) { c.Quorum = 5 }},
		{"negative quorum", func(c *Config) { c.Quorum = -1 }},
		{"park target above 1", func(c *Config) { c.ParkTargetRho = 1.5 }},
		{"min active exceeds fleet", func(c *Config) { c.MinActive = 9 }},
		{"zero epoch slots", func(c *Config) { c.EpochSlots = 0 }},
	}
	for _, tc := range cases {
		cfg := base()
		tc.mut(&cfg)
		if _, err := New(cfg); err == nil {
			t.Errorf("%s: accepted", tc.name)
		}
	}
	if _, err := New(base()); err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}
}

// TestCoordinatorSharedValidation: a shared-mode farm run rejects an empty
// fleet, a missing dispatcher, a zero epoch length and a nil job source.
func TestCoordinatorSharedValidation(t *testing.T) {
	pol := policy.Policy{Frequency: 1, Plan: policy.SingleState(power.DeepSleep)}
	base := func() Config {
		return sharedConfig(2, flatTrace(10, 0.3), &staticStrategy{pol: pol}, 1, farm.JSQ{})
	}
	for name, mut := range map[string]func(*Config){
		"farm size 0":    func(c *Config) { c.Servers = 0 },
		"nil dispatcher": func(c *Config) { c.Dispatcher = nil },
		"epoch slots 0":  func(c *Config) { c.EpochSlots = 0 },
	} {
		cfg := base()
		mut(&cfg)
		if _, err := New(cfg); err == nil {
			t.Errorf("%s accepted", name)
		}
	}
	coord, err := New(base())
	if err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}
	if _, err := coord.Run(nil); err == nil {
		t.Error("nil source accepted")
	}
}

// TestWriteLogsRoundtrip: the fleet epoch and server logs must come back
// with the right kinds, shapes and values through the column store.
func TestWriteLogsRoundtrip(t *testing.T) {
	coord, err := New(Config{
		Servers: 3, FreqExponent: 1, Profile: power.Xeon(), Trace: flatTrace(8, 0.3),
		EpochSlots: 2, Strategy: &staticStrategy{pol: policy.Policy{Frequency: 0.7, Plan: policy.SingleState(power.Sleep)}},
		Predictor: predict.NewNaivePrevious(),
		Seed:      1, Dispatcher: farm.JSQ{},
		Quorum: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := coord.Run(stream.Slice(fleetJobs(120, 10, 5, 2)))
	if err != nil {
		t.Fatal(err)
	}

	dir := t.TempDir()
	epochPath := filepath.Join(dir, "epochs.col")
	if err := WriteEpochLog(epochPath, rep); err != nil {
		t.Fatal(err)
	}
	r, err := colstore.Open(epochPath)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if r.Schema().Kind != colstore.KindFleetEpochs {
		t.Fatalf("kind %d", r.Schema().Kind)
	}
	if r.Rows() != len(rep.Epochs) {
		t.Fatalf("rows %d != %d", r.Rows(), len(rep.Epochs))
	}
	ci := r.Schema().ColIndex("active")
	if ci < 0 {
		t.Fatal("no active column")
	}
	col, err := r.Col(0, ci, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i, fe := range rep.FleetEpochs {
		if col[i] != float64(fe.Active) {
			t.Fatalf("epoch %d active %g != %d", i, col[i], fe.Active)
		}
	}

	srvPath := filepath.Join(dir, "servers.col")
	if err := WriteServerLog(srvPath, rep); err != nil {
		t.Fatal(err)
	}
	rs, err := colstore.Open(srvPath)
	if err != nil {
		t.Fatal(err)
	}
	defer rs.Close()
	if rs.Schema().Kind != colstore.KindFleetServers {
		t.Fatalf("kind %d", rs.Schema().Kind)
	}
	if rs.Rows() != 3 {
		t.Fatalf("rows %d != 3", rs.Rows())
	}
	ji := rs.Schema().ColIndex("jobs")
	col, err = rs.Col(0, ji, nil)
	if err != nil {
		t.Fatal(err)
	}
	total := 0.0
	for _, v := range col {
		total += v
	}
	if int(total) != rep.Jobs {
		t.Fatalf("logged jobs %g != %d", total, rep.Jobs)
	}
}
