package experiments

import (
	"fmt"
	"math"
	"math/rand"

	"sleepscale/internal/policy"
	"sleepscale/internal/power"
	"sleepscale/internal/queue"
	"sleepscale/internal/workload"
)

// Table5Result reproduces the workload summary table.
type Table5Result struct {
	Specs []workload.Spec
}

// Table5 returns the Table 5 workload statistics together with measured
// moments from the fitted generators (validating that the synthesis matches
// the published numbers).
func Table5(cfg Config) (*Table5Result, error) {
	return &Table5Result{Specs: workload.Table5()}, nil
}

// Tables renders Table 5 with declared vs generated moments.
func (r *Table5Result) Tables() []Table {
	t := Table{
		Title: "Table 5: workload statistics (declared vs fitted-generator sample)",
		Header: []string{"workload", "IA mean", "IA Cv", "svc mean", "svc Cv",
			"sample IA mean", "sample svc mean"},
	}
	rng := rand.New(rand.NewSource(7))
	for _, s := range r.Specs {
		st, err := workload.NewFittedStats(s)
		if err != nil {
			continue
		}
		var iaSum, svcSum float64
		const n = 20000
		for i := 0; i < n; i++ {
			iaSum += st.Inter.Sample(rng)
			svcSum += st.Size.Sample(rng)
		}
		t.Rows = append(t.Rows, []string{
			s.Name,
			fmt.Sprintf("%.4g s", s.InterArrivalMean),
			fmt.Sprintf("%.2g", s.InterArrivalCV),
			fmt.Sprintf("%.4g s", s.ServiceMean),
			fmt.Sprintf("%.2g", s.ServiceCV),
			fmt.Sprintf("%.4g s", iaSum/n),
			fmt.Sprintf("%.4g s", svcSum/n),
		})
	}
	return []Table{t}
}

// AppendixRow is one model-vs-simulation comparison point.
type AppendixRow struct {
	Scenario                      string
	SimPower, AnalyticPower       float64
	SimResponse, AnalyticResponse float64
}

// AppendixResult holds the closed-form validation (§4.3 / Appendix).
type AppendixResult struct {
	Rows []AppendixRow
}

// AppendixValidation cross-checks the Appendix closed forms against
// Algorithm 1 on representative scenarios: the paper's §4.3 claim that
// "results obtained from the closed-form expressions match those presented
// in Figure 1".
func AppendixValidation(cfg Config) (*AppendixResult, error) {
	type scenario struct {
		name string
		spec workload.Spec
		rho  float64
		f    float64
		plan policy.SleepPlan
	}
	scenarios := []scenario{
		{"DNS ρ=0.1 C6S3 f=0.42", workload.DNS(), 0.1, 0.42, policy.SingleState(power.DeeperSleep)},
		{"DNS ρ=0.1 C0(i)S0(i) f=0.40", workload.DNS(), 0.1, 0.40, policy.SingleState(power.OperatingIdle)},
		{"Google ρ=0.3 C3S0(i) f=0.60", workload.Google(), 0.3, 0.60, policy.SingleState(power.Sleep)},
		{"Google ρ=0.1 2-state τ₂=30/µ", workload.Google(), 0.1, 0.40,
			policy.Sequence("",
				policy.PlanPhase{State: power.OperatingIdle},
				policy.PlanPhase{State: power.DeeperSleep, Enter: 30 * 4.2e-3})},
	}
	out := &AppendixResult{}
	for _, sc := range scenarios {
		mu := sc.spec.MaxServiceRate()
		lambda := sc.rho * mu
		pol := policy.Policy{Frequency: sc.f, Plan: sc.plan}
		model, err := pol.AnalyticModel(cfg.profile(), lambda, mu)
		if err != nil {
			return nil, err
		}
		ar, err := model.MeanResponse()
		if err != nil {
			return nil, err
		}
		ap, err := model.MeanPower()
		if err != nil {
			return nil, err
		}
		jobs, err := crnJobs(cfg, sc.spec, sc.rho)
		if err != nil {
			return nil, err
		}
		qcfg, err := pol.Config(cfg.profile(), 1)
		if err != nil {
			return nil, err
		}
		res, err := queue.Simulate(jobs, qcfg)
		if err != nil {
			return nil, err
		}
		out.Rows = append(out.Rows, AppendixRow{
			Scenario:         sc.name,
			SimPower:         res.AvgPower,
			AnalyticPower:    ap,
			SimResponse:      res.MeanResponse,
			AnalyticResponse: ar,
		})
	}
	return out, nil
}

// MaxRelativeError reports the largest relative gap between simulation and
// closed forms across all rows and both metrics.
func (r *AppendixResult) MaxRelativeError() float64 {
	worst := 0.0
	rel := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return math.Abs(a-b) / math.Abs(b)
	}
	for _, row := range r.Rows {
		if e := rel(row.SimPower, row.AnalyticPower); e > worst {
			worst = e
		}
		if e := rel(row.SimResponse, row.AnalyticResponse); e > worst {
			worst = e
		}
	}
	return worst
}

// Tables renders the validation.
func (r *AppendixResult) Tables() []Table {
	t := Table{
		Title:  "Appendix validation: Algorithm 1 vs closed forms",
		Header: []string{"scenario", "E[P] sim (W)", "E[P] model (W)", "E[R] sim (s)", "E[R] model (s)"},
	}
	for _, row := range r.Rows {
		t.Rows = append(t.Rows, []string{
			row.Scenario,
			fmt.Sprintf("%.2f", row.SimPower),
			fmt.Sprintf("%.2f", row.AnalyticPower),
			fmt.Sprintf("%.4f", row.SimResponse),
			fmt.Sprintf("%.4f", row.AnalyticResponse),
		})
	}
	return []Table{t}
}

// SequentialRow compares one idle-management plan at its optimum.
type SequentialRow struct {
	Plan     string
	BestF    float64
	MinPower float64
}

// SequentialResult holds the §4.2 lesson-5 study.
type SequentialResult struct {
	Rho  float64
	Rows []SequentialRow
}

// SequentialLesson reproduces §4.2 lesson 5: walking the full five-state
// sequence (C0(i)S0(i)→C1→C3→C6→C6S3 with staggered delays) is conservative —
// at any given utilization it is beaten by jumping straight to the best
// single state, because at high load the deep states are never reached and
// at low load the walk wastes time in shallow states.
func SequentialLesson(cfg Config, rho float64) (*SequentialResult, error) {
	w := dnsWorkload()
	jobs, err := crnJobs(cfg, w.spec, rho)
	if err != nil {
		return nil, err
	}
	invMu := 1 / w.mu
	plans := []planSpec{
		single(power.OperatingIdle),
		single(power.Sleep),
		single(power.DeepSleep),
		single(power.DeeperSleep),
		{label: "full-sequence", plan: policy.FullSequence([5]float64{
			0, 1 * invMu, 3 * invMu, 6 * invMu, 20 * invMu})},
	}
	out := &SequentialResult{Rho: rho}
	for _, ps := range plans {
		c, err := sweep(cfg, jobs, ps, w.mu, rho, w.beta)
		if err != nil {
			return nil, err
		}
		bottom, _ := c.MinPower()
		out.Rows = append(out.Rows, SequentialRow{
			Plan: ps.label, BestF: bottom.Frequency, MinPower: bottom.Power,
		})
	}
	return out, nil
}

// BestSingle returns the lowest min-power among single-state plans, and the
// full-sequence row.
func (r *SequentialResult) BestSingle() (best SequentialRow, seq SequentialRow) {
	first := true
	for _, row := range r.Rows {
		if row.Plan == "full-sequence" {
			seq = row
			continue
		}
		if first || row.MinPower < best.MinPower {
			best, first = row, false
		}
	}
	return best, seq
}

// Tables renders the lesson-5 study.
func (r *SequentialResult) Tables() []Table {
	t := Table{
		Title:  fmt.Sprintf("§4.2 lesson 5: sequential throttle-back is conservative (DNS, ρ=%.1f)", r.Rho),
		Header: []string{"plan", "f*", "min E[P] (W)"},
	}
	for _, row := range r.Rows {
		t.Rows = append(t.Rows, []string{
			row.Plan, fmt.Sprintf("%.2f", row.BestF), fmt.Sprintf("%.1f", row.MinPower),
		})
	}
	return []Table{t}
}

// AtomRow is one profile's optimum for the Atom study.
type AtomRow struct {
	Profile  string
	Plan     string
	BestF    float64
	MinPower float64
}

// AtomResult holds the §4.2 Atom remarks study.
type AtomResult struct {
	Rho  float64
	Rows []AtomRow
}

// AtomStudy reproduces the §4.2 Atom observations: because the Atom-class
// platform has a small CPU dynamic range relative to platform power, a
// DNS-like workload at low utilization is best served by running fast
// (higher f*) and sleeping immediately, whereas the Xeon's cubic CPU power
// pulls its optimum to a low frequency.
func AtomStudy(cfg Config) (*AtomResult, error) {
	const rho = 0.1
	w := dnsWorkload()
	jobs, err := crnJobs(cfg, w.spec, rho)
	if err != nil {
		return nil, err
	}
	out := &AtomResult{Rho: rho}
	for _, prof := range []*power.Profile{power.Xeon(), power.Atom()} {
		c := cfg
		c.Profile = prof
		bestPower := math.Inf(1)
		var bestRow AtomRow
		for _, ps := range []planSpec{
			single(power.OperatingIdle), single(power.DeepSleep), single(power.DeeperSleep),
		} {
			curve, err := sweep(c, jobs, ps, w.mu, rho, w.beta)
			if err != nil {
				return nil, err
			}
			bottom, _ := curve.MinPower()
			if bottom.Power < bestPower {
				bestPower = bottom.Power
				bestRow = AtomRow{
					Profile: prof.Name, Plan: ps.label,
					BestF: bottom.Frequency, MinPower: bottom.Power,
				}
			}
		}
		out.Rows = append(out.Rows, bestRow)
	}
	return out, nil
}

// Tables renders the Atom study.
func (r *AtomResult) Tables() []Table {
	t := Table{
		Title:  fmt.Sprintf("§4.2 Atom remarks: profile-dependent optima (DNS, ρ=%.1f)", r.Rho),
		Header: []string{"profile", "best plan", "f*", "min E[P] (W)"},
	}
	for _, row := range r.Rows {
		t.Rows = append(t.Rows, []string{
			row.Profile, row.Plan, fmt.Sprintf("%.2f", row.BestF), fmt.Sprintf("%.1f", row.MinPower),
		})
	}
	return []Table{t}
}
