package core

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"sleepscale/internal/policy"
	"sleepscale/internal/power"
	"sleepscale/internal/queue"
	"sleepscale/internal/workload"
)

// mixedSpace is the default space plus plans that exercise every bound
// branch: no phases, a multi-phase walk, and a delayed single state (τ₁ > 0).
func mixedSpace(mu float64, step float64) policy.Space {
	s := policy.DefaultSpace()
	s.FreqStep = step
	s.Plans = append(s.Plans,
		policy.NoSleep(),
		policy.FullSequence([5]float64{0, 0.5 / mu, 1 / mu, 4 / mu, 20 / mu}),
		policy.DelayedState(power.DeeperSleep, 3/mu),
	)
	return s
}

// qosFamilies returns both QoS families at the ρ_b = 0.8 baseline plus an
// impossible budget of each, which forces the fallback.
func qosFamilies(t *testing.T, mu float64) []policy.QoS {
	t.Helper()
	mean, err := policy.NewMeanResponseQoS(0.8, mu)
	if err != nil {
		t.Fatal(err)
	}
	tail, err := policy.NewPercentileQoS(0.8, mu, 0.95)
	if err != nil {
		t.Fatal(err)
	}
	return []policy.QoS{mean, tail,
		policy.MeanResponseQoS{Budget: 1e-6},
		policy.PercentileQoS{Deadline: 1e-6, Quantile: 0.99}}
}

// requireSameAsExhaustive checks Select against the exhaustive reference:
// the same winner with the same metric bits and feasibility, or the same
// error.
func requireSameAsExhaustive(t *testing.T, m *Manager, jobs []queue.Job, rho float64, label string) {
	t.Helper()
	got, err := m.Select(jobs, rho)
	want, _, werr := exhaustiveSelect(m, jobs, rho)
	if (err == nil) != (werr == nil) || (err != nil && err.Error() != werr.Error()) {
		t.Fatalf("%s: Select error %v, exhaustive error %v", label, err, werr)
	}
	if err == nil && !sameEvaluation(got, want) {
		t.Fatalf("%s: Select picked %v %+v feasible=%v, exhaustive %v %+v feasible=%v",
			label, got.Policy, got.Metrics, got.Feasible, want.Policy, want.Metrics, want.Feasible)
	}
}

// TestSelectMatchesExhaustive pins the pruned search to the exhaustive one
// across workloads, utilizations, both QoS families (and their fallback),
// plan shapes, frequency exponents and stream lengths.
func TestSelectMatchesExhaustive(t *testing.T) {
	cases := 0
	for si, spec := range workload.Table5() {
		stats, err := workload.NewFittedStats(spec)
		if err != nil {
			t.Fatal(err)
		}
		mu := spec.MaxServiceRate()
		for ri, rho := range []float64{0.05, 0.3, 0.6, 0.9} {
			st, err := stats.AtUtilization(rho)
			if err != nil {
				t.Fatal(err)
			}
			for _, n := range []int{10, 200, 2000} {
				jobs := st.Jobs(n, rand.New(rand.NewSource(int64(100*si+10*ri+n))))
				spaces := []policy.Space{policy.DefaultSpace(), mixedSpace(mu, 0.01)}
				betas := []float64{0, 0.5, 1}
				if n == 2000 {
					// The long streams cover the default space at the
					// workload's own β; the short ones cover the rest.
					spaces, betas = spaces[:1], []float64{spec.FreqExponent}
				}
				for _, beta := range betas {
					for pi, space := range spaces {
						for _, qos := range qosFamilies(t, mu) {
							m := &Manager{Profile: power.Xeon(), FreqExponent: beta, Space: space, QoS: qos}
							label := fmt.Sprintf("%s ρ=%g n=%d β=%g space=%d %s", spec.Name, rho, n, beta, pi, qos.Describe())
							requireSameAsExhaustive(t, m, jobs, rho, label)
							cases++
						}
					}
				}
			}
		}
	}
	t.Logf("%d selections matched the exhaustive search", cases)
}

// TestSelectIdealizedMatchesExhaustive does the same for the closed-form
// path. The mixed space's multi-state plans have no closed-form tail, so the
// percentile QoS runs on the default space.
func TestSelectIdealizedMatchesExhaustive(t *testing.T) {
	for _, spec := range workload.Table5() {
		mu := spec.MaxServiceRate()
		for _, rho := range []float64{0.05, 0.3, 0.6, 0.9} {
			for _, qos := range qosFamilies(t, mu) {
				spaces := []policy.Space{policy.DefaultSpace()}
				if !readsTail(qos) {
					spaces = append(spaces, mixedSpace(mu, 0.01))
				}
				for pi, space := range spaces {
					m := &Manager{Profile: power.Xeon(), FreqExponent: 1, Space: space, QoS: qos}
					got, err := m.SelectIdealized(rho*mu, mu)
					want, _, werr := exhaustiveIdealized(m, rho*mu, mu)
					label := fmt.Sprintf("%s ρ=%g space=%d %s", spec.Name, rho, pi, qos.Describe())
					if err != nil || werr != nil {
						t.Fatalf("%s: errors %v / %v", label, err, werr)
					}
					if !sameEvaluation(got, want) {
						t.Fatalf("%s: SelectIdealized picked %v %+v, exhaustive %v %+v",
							label, got.Policy, got.Metrics, want.Policy, want.Metrics)
					}
				}
			}
		}
	}
}

// fuzzGaps and fuzzSizes are the fuzzed streams' alphabets: equal arrivals,
// zero and subnormal sizes, and NaN.
var (
	fuzzGaps  = []float64{0, 0, 1e-9, 0.001, 0.05, 0.3, 1, 2.5, 40, math.NaN()}
	fuzzSizes = []float64{0, 5e-324, 1e-300, 1e-9, 0.004, 0.05, 0.2, 0.9, 3, math.NaN()}
)

// fuzzJobs decodes a stream: two bytes per job, arrivals from offset on.
func fuzzJobs(data []byte, offset float64) []queue.Job {
	var jobs []queue.Job
	at := offset
	for i := 0; i+1 < len(data) && len(jobs) < 64; i += 2 {
		at += fuzzGaps[int(data[i])%len(fuzzGaps)]
		jobs = append(jobs, queue.Job{Arrival: at, Size: fuzzSizes[int(data[i+1])%len(fuzzSizes)]})
	}
	return jobs
}

// FuzzSelectMatchesExhaustive checks the pruned search against the
// exhaustive one on fuzzed streams, and every candidate's bounds against its
// simulated metrics.
func FuzzSelectMatchesExhaustive(f *testing.F) {
	f.Add([]byte{3, 6, 4, 5, 5, 6, 2, 7, 6, 6, 4, 5, 7, 6, 3, 4}, 0.0, 0.5, uint8(0))
	f.Add([]byte{3, 6, 4, 5, 5, 6, 2, 7, 6, 6, 4, 5, 7, 6, 3, 4}, 1e6, 0.5, uint8(2))
	f.Add([]byte{3, 6, 4, 5, 5, 6, 2, 7, 6, 6, 4, 5, 7, 6, 3, 4}, 1e9, 0.3, uint8(6))
	f.Add([]byte{0, 0, 0, 1, 1, 2, 0, 0, 5, 0, 0, 1}, 1e6+0.25, 0.01, uint8(5))
	f.Add([]byte{0, 6, 0, 6, 0, 6, 9, 6, 4, 9, 6, 6}, 7.0, 2.0, uint8(10))
	f.Add([]byte{8, 5, 8, 5, 8, 5, 8, 5}, 0.0, 1e-6, uint8(1))
	f.Fuzz(func(t *testing.T, data []byte, offset, budget float64, mode uint8) {
		if !(offset >= 0 && offset <= 1e10) {
			return // the engine starts at 0 and rejects earlier arrivals
		}
		jobs := fuzzJobs(data, offset)
		if len(jobs) == 0 {
			return
		}
		var qos policy.QoS = policy.MeanResponseQoS{Budget: budget}
		if mode&4 != 0 {
			q := 0.95
			if mode&8 != 0 {
				q = 0.99
			}
			qos = policy.PercentileQoS{Deadline: budget, Quantile: q}
		}
		m := &Manager{
			Profile:      power.Xeon(),
			FreqExponent: []float64{0, 0.5, 1, 1}[mode&3],
			Space:        mixedSpace(5, 0.1),
			QoS:          qos,
		}
		rho := 0.3
		requireSameAsExhaustive(t, m, jobs, rho, "fuzz")
		requireBoundsSound(t, m, jobs, rho)
	})
}

// requireBoundsSound checks every candidate's wake-free bounds against what
// Evaluate reports for it: at most the metric, and no power bound at all
// where the power is NaN.
func requireBoundsSound(t *testing.T, m *Manager, jobs []queue.Job, rho float64) {
	t.Helper()
	wf := countingWakeFree(t, m.Profile, m.Space.Plans, m.FreqExponent, jobs)
	for _, f := range m.Space.Frequencies(rho, m.FreqExponent) {
		for i, plan := range m.Space.Plans {
			cfg, err := policy.Policy{Frequency: f, Plan: plan}.Config(m.Profile, m.FreqExponent)
			if err != nil {
				t.Fatal(err)
			}
			if i == 0 {
				wf.Run(jobs, &cfg)
			}
			b := wf.Bound(&cfg)
			res, err := queue.Simulate(jobs, cfg)
			if err != nil {
				return // the stream error is Select's to report
			}
			if b.AvgPower > res.AvgPower || b.MeanResponse > res.MeanResponse ||
				(math.IsNaN(res.AvgPower) && !math.IsInf(b.AvgPower, -1)) {
				t.Fatalf("f=%g %s: bound %+v above power %v / mean response %v",
					f, plan.Name, b, res.AvgPower, res.MeanResponse)
			}
		}
	}
}

// countingWakeFree returns a WakeFree bound to jobs that counts the wakes of
// every plan, resolved at f = 1.
func countingWakeFree(t *testing.T, prof *power.Profile, plans []policy.SleepPlan, beta float64, jobs []queue.Job) *queue.WakeFree {
	t.Helper()
	wf := new(queue.WakeFree)
	wf.Reset(jobs)
	for _, plan := range plans {
		cfg, err := policy.Policy{Frequency: 1, Plan: plan}.Config(prof, beta)
		if err != nil {
			t.Fatal(err)
		}
		wf.Count(&cfg)
	}
	return wf
}

// TestSelectErrorContract: inputs on which the exhaustive search fails still
// fail, whatever the bounds would prune.
func TestSelectErrorContract(t *testing.T) {
	mu := workload.DNS().MaxServiceRate()
	qos, _ := policy.NewMeanResponseQoS(0.8, mu)
	m := dnsManager(t, qos)
	jobs := dnsJobs(t, 0.3, 200, 21)

	disordered := append([]queue.Job(nil), jobs...)
	disordered[150].Arrival = disordered[10].Arrival
	if _, err := m.Select(disordered, 0.3); !errors.Is(err, queue.ErrOutOfOrder) {
		t.Errorf("out-of-order stream: err = %v, want ErrOutOfOrder", err)
	}
	negative := append([]queue.Job(nil), jobs...)
	negative[100].Size = -1
	if _, err := m.Select(negative, 0.3); err == nil {
		t.Error("negative job size accepted")
	}

	// A multi-state plan has no closed-form tail. Its candidates come after
	// every default one, and the percentile QoS must fail whether or not the
	// search would reach them.
	tail, _ := policy.NewPercentileQoS(0.8, mu, 0.95)
	mt := dnsManager(t, tail)
	if _, err := mt.SelectIdealized(0.3*mu, mu); err != nil {
		t.Fatalf("default space: %v", err)
	}
	mt.Space.Plans = append(mt.Space.Plans, policy.FullSequence([5]float64{0, 1, 2, 3, 4}))
	_, err := mt.SelectIdealized(0.3*mu, mu)
	_, _, werr := exhaustiveIdealized(mt, 0.3*mu, mu)
	if err == nil || werr == nil || err.Error() != werr.Error() {
		t.Errorf("multi-state plan under a percentile QoS: err = %v, exhaustive %v", err, werr)
	}
}

// TestSelectRunsFewPasses pins the work the search saves on
// BenchmarkPolicySelection's fixture, deriving its wake-free passes here
// with the public API. Under the mean QoS it simulates at most a tenth of
// the grid. It runs one pass at each anchor: f = 1 and every anchorStride-th
// frequency below, down to index 0 or, under the mean QoS, to the first
// anchor whose response floor misses the budget. Each frequency between two
// anchors gets its own pass exactly when one of its plans' neighbour bounds
// could still win: a power bound at most the winner's power and, under the
// mean QoS, a response bound within the budget. Frequencies below the last
// anchor get none.
func TestSelectRunsFewPasses(t *testing.T) {
	mu := workload.DNS().MaxServiceRate()
	jobs := dnsJobs(t, 0.3, 2000, 1)
	for _, qos := range qosFamilies(t, mu)[:2] {
		m := dnsManager(t, qos)
		m.Space.FreqStep = 0.02
		best, w, err := m.selectCounted(jobs, 0.3)
		if err != nil {
			t.Fatal(err)
		}
		freqs := m.Space.Frequencies(0.3, m.FreqExponent)
		grid := len(freqs) * len(m.Space.Plans)
		t.Logf("%s: simulated %d of %d candidates in %d passes over %d frequencies; winner %v",
			qos.Describe(), w.simulated, grid, w.passes, len(freqs), best.Policy)
		meanQoS, meanOnly := qos.(policy.MeanResponseQoS)
		if meanOnly && (w.simulated < 1 || 10*w.simulated > grid) {
			t.Errorf("simulated %d of %d candidates, want at most 10%%", w.simulated, grid)
		}
		if !best.Feasible || math.IsNaN(best.Metrics.AvgPower) {
			t.Fatalf("%s: winner %+v, want a feasible power", qos.Describe(), best)
		}

		cfgs := make([][]queue.Config, len(freqs)) // [frequency][plan]
		wmax := 0.0
		for fi, f := range freqs {
			for _, plan := range m.Space.Plans {
				cfg, err := policy.Policy{Frequency: f, Plan: plan}.Config(m.Profile, m.FreqExponent)
				if err != nil {
					t.Fatal(err)
				}
				for _, ph := range cfg.Phases {
					wmax = max(wmax, ph.WakeLatency)
				}
				cfgs[fi] = append(cfgs[fi], cfg)
			}
			if fi > 0 && cfgs[fi][0].Speed() < cfgs[fi-1][0].Speed() {
				t.Fatal("the grid's speeds fall")
			}
		}
		wf := countingWakeFree(t, m.Profile, m.Space.Plans, m.FreqExponent, jobs)
		canWin := func(b queue.Bound) bool {
			return b.AvgPower <= best.Metrics.AvgPower && !(meanOnly && b.MeanResponse > meanQoS.Budget)
		}
		anchors, between, want := 0, 0, 0
		for fi, hi := len(freqs)-1, -1; ; hi, fi = fi, max(fi-anchorStride, 0) {
			wf.Run(jobs, &cfgs[fi][0])
			anchors++
			for x := fi + 1; x < hi; x++ {
				between++
				if slices.ContainsFunc(cfgs[x], func(c queue.Config) bool { return canWin(wf.BoundBetween(&c)) }) {
					want++
				}
			}
			if fi == 0 || meanOnly && wf.ResponseFloor(cfgs[0][0].Speed(), wmax) > meanQoS.Budget {
				break
			}
		}
		t.Logf("%d anchors, %d of %d frequencies between them need their pass", anchors, want, between)
		if want == between {
			t.Fatalf("%s: every frequency between anchors needs its pass: nothing to save", qos.Describe())
		}
		if want += anchors; w.passes != want {
			t.Errorf("%s: %d passes, want %d", qos.Describe(), w.passes, want)
		}
	}
}

// TestSelectSimulatesFewOnBootstraps pins the search's work on streams of a
// runtime bootstrap's size: 200 DNS jobs at ρ from 0.1 to 0.7, five seeds
// each, under the mean QoS on the default grid. With each counted wake
// charged to every job of the busy period it starts, the 20 decisions
// simulate 201 candidates; charged to the waking job alone they simulated
// 277. They run 462 wake-free passes: one per anchor, and one per frequency
// between anchors where a candidate reaches the top of the search. A pass
// at every frequency above the response-pruned prefix took 851.
func TestSelectSimulatesFewOnBootstraps(t *testing.T) {
	mu := workload.DNS().MaxServiceRate()
	m := dnsManager(t, qosFamilies(t, mu)[0])
	simulated, passes := 0, 0
	for _, rho := range []float64{0.1, 0.3, 0.5, 0.7} {
		for seed := int64(1); seed <= 5; seed++ {
			_, w, err := m.selectCounted(dnsJobs(t, rho, 200, seed), rho)
			if err != nil {
				t.Fatal(err)
			}
			simulated, passes = simulated+w.simulated, passes+w.passes
		}
	}
	if simulated > 201 || passes != 462 {
		t.Errorf("simulated %d candidates in %d passes, want at most 201 in 462", simulated, passes)
	}
}

// TestSelectMatchesExhaustiveOnTiedSpeeds: at β = 1e-15 most adjacent speeds
// f^β of the 0.01 grid round equal, so the response-pruned scan checks its
// speeds' order on ties. It must still give the exhaustive answer.
func TestSelectMatchesExhaustiveOnTiedSpeeds(t *testing.T) {
	const beta = 1e-15
	mu := workload.DNS().MaxServiceRate()
	freqs := policy.DefaultSpace().Frequencies(0.3, beta)
	ties := 0
	for i := 1; i < len(freqs); i++ {
		a := queue.Config{Frequency: freqs[i-1], FreqExponent: beta}
		b := queue.Config{Frequency: freqs[i], FreqExponent: beta}
		if a.Speed() == b.Speed() {
			ties++
		}
	}
	t.Logf("%d of %d adjacent speeds tie", ties, len(freqs)-1)
	if ties == 0 {
		t.Fatal("no tied speeds on the grid")
	}
	for _, rho := range []float64{0.1, 0.3, 0.6} {
		jobs := dnsJobs(t, rho, 200, 7)
		for _, qos := range qosFamilies(t, mu) {
			m := &Manager{Profile: power.Xeon(), FreqExponent: beta, Space: policy.DefaultSpace(), QoS: qos}
			requireSameAsExhaustive(t, m, jobs, rho, fmt.Sprintf("β=%g ρ=%g %s", beta, rho, qos.Describe()))
		}
	}
}

// TestSelectConfigErrorsMatchExhaustive: a configuration error anywhere in
// the grid, the skipped prefix included, is the one the exhaustive search
// returns: the lowest-index failing candidate's, unless candidate 0 fails
// on the stream first. SelectIdealized must match its own exhaustive
// reference on the same managers.
func TestSelectConfigErrorsMatchExhaustive(t *testing.T) {
	mu := workload.DNS().MaxServiceRate()
	mean, _ := policy.NewMeanResponseQoS(0.8, mu)
	jobs := dnsJobs(t, 0.3, 200, 21)
	badStream := append([]queue.Job(nil), jobs...)
	badStream[100].Size = -1
	// Negative powers: C1S0(i) above f ≈ 0.55, the active state below
	// f ≈ 0.43, C6S3 at every frequency. A negative wake latency.
	haltNeg := power.Xeon()
	haltNeg.CPUHaltCoeff = -200
	activeNeg := power.Xeon()
	activeNeg.PlatformActivePower = -10
	sleepNeg := power.Xeon()
	sleepNeg.PlatformSleepPower = -100
	wakeNeg := power.Xeon()
	wakeNeg.WakeLatency = map[power.State]float64{power.DeepSleep: -1}
	unordered := policy.Sequence("unordered",
		policy.PlanPhase{State: power.DeepSleep, Enter: 2},
		policy.PlanPhase{State: power.DeeperSleep, Enter: 1})
	cases := []struct {
		name  string
		prof  *power.Profile
		plans []policy.SleepPlan
		jobs  []queue.Job
	}{
		{"halt power", haltNeg, nil, jobs},
		{"active power", activeNeg, nil, jobs},
		{"last plan's power", sleepNeg, nil, jobs},
		{"wake latency", wakeNeg, nil, jobs},
		{"plan order", power.Xeon(), []policy.SleepPlan{policy.SingleState(power.Halt), unordered}, jobs},
		{"halt power, bad stream", haltNeg, nil, badStream},
		{"active power, bad stream", activeNeg, nil, badStream},
	}
	for _, c := range cases {
		for _, qos := range []policy.QoS{mean, policy.MeanResponseQoS{Budget: 1e-6}} {
			m := dnsManager(t, qos)
			m.Profile = c.prof
			if c.plans != nil {
				m.Space.Plans = c.plans
			}
			if _, err := m.Select(c.jobs, 0.3); err == nil {
				t.Fatalf("%s: no error", c.name)
			}
			requireSameAsExhaustive(t, m, c.jobs, 0.3, c.name)
			got, err := m.SelectIdealized(0.3*mu, mu)
			want, _, werr := exhaustiveIdealized(m, 0.3*mu, mu)
			if (err == nil) != (werr == nil) || (err != nil && err.Error() != werr.Error()) ||
				(err == nil && !sameEvaluation(got, want)) {
				t.Fatalf("%s: SelectIdealized %v %+v, exhaustive %v %+v", c.name, err, got, werr, want)
			}
		}
	}
}

// TestSelectZeroAllocSteadyState: once its pooled scratch is warm, a
// selection allocates nothing.
func TestSelectZeroAllocSteadyState(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not stable under the race detector")
	}
	mu := workload.DNS().MaxServiceRate()
	for _, qos := range qosFamilies(t, mu)[:2] {
		m := dnsManager(t, qos)
		m.Space.FreqStep = 0.02
		jobs := dnsJobs(t, 0.3, 2000, 1)
		if _, err := m.Select(jobs, 0.3); err != nil {
			t.Fatal(err)
		}
		allocs := testing.AllocsPerRun(5, func() {
			if _, err := m.Select(jobs, 0.3); err != nil {
				t.Fatal(err)
			}
		})
		if allocs != 0 {
			t.Errorf("%s: steady-state Select allocates %v/op, want 0", qos.Describe(), allocs)
		}
	}
}
