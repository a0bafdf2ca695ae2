package experiments

import (
	"fmt"
	"math/rand"
	"time"

	"sleepscale/internal/core"
	"sleepscale/internal/policy"
	"sleepscale/internal/power"
	"sleepscale/internal/strategy"
	"sleepscale/internal/workload"
)

// WakeSensitivityRow records the high-utilization winner for one wake
// latency setting.
type WakeSensitivityRow struct {
	// C6Wake is the C6S0(i) wake latency tried (Table 4 range 0.1–1 ms).
	C6Wake float64
	// DNSWinner and GoogleWinner are the ρ=0.7 optimal states.
	DNSWinner    string
	GoogleWinner string
}

// WakeSensitivityResult holds the §4.2 robustness check: "other choices from
// the range specified do not greatly change the engineering lessons".
type WakeSensitivityResult struct {
	Rows []WakeSensitivityRow
}

// WakeSensitivity re-derives the Figure 2 winners with the C6S0(i) wake
// latency swept across its Table 4 range. The DNS lesson (C6S0(i) wins —
// any wake in the range is negligible against 194 ms jobs) must hold
// everywhere; the Google lesson (C3S0(i) wins) holds in the upper part of
// the range, weakening as the wake shrinks toward C3's own latency.
func WakeSensitivity(cfg Config) (*WakeSensitivityResult, error) {
	const rho = 0.7
	out := &WakeSensitivityResult{}
	for _, wake := range []float64{100e-6, 300e-6, 1e-3} {
		prof := power.Xeon()
		prof.WakeLatency[power.DeepSleep] = wake
		row := WakeSensitivityRow{C6Wake: wake}
		for _, wname := range []string{"DNS", "Google"} {
			spec, err := specByName(wname)
			if err != nil {
				return nil, err
			}
			mu := spec.MaxServiceRate()
			qos, err := policy.NewMeanResponseQoS(0.8, mu)
			if err != nil {
				return nil, err
			}
			mgr := &core.Manager{
				Profile:      prof,
				FreqExponent: spec.FreqExponent,
				Space: policy.Space{
					Plans:    policy.DefaultPlans(),
					FreqStep: cfg.FreqStep,
					MinFreq:  0.05,
				},
				QoS: qos,
			}
			best, err := mgr.SelectIdealized(rho*mu, mu)
			if err != nil {
				return nil, err
			}
			switch wname {
			case "DNS":
				row.DNSWinner = best.Policy.Plan.Name
			case "Google":
				row.GoogleWinner = best.Policy.Plan.Name
			}
		}
		out.Rows = append(out.Rows, row)
	}
	return out, nil
}

// Tables renders the sensitivity study.
func (r *WakeSensitivityResult) Tables() []Table {
	t := Table{
		Title:  "Wake-latency sensitivity (§4.2): ρ=0.7 winners across the Table 4 C6S0(i) range",
		Header: []string{"C6S0(i) wake", "DNS winner", "Google winner"},
	}
	for _, row := range r.Rows {
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%.1f µs", row.C6Wake*1e6),
			row.DNSWinner,
			row.GoogleWinner,
		})
	}
	return []Table{t}
}

// AnalyticStrategyRow is one runtime variant of the analytic-vs-simulated
// strategy study.
type AnalyticStrategyRow struct {
	Strategy     string
	MeanResponse float64
	AvgPower     float64
	// DecideMicros is the mean per-epoch decision cost in microseconds.
	DecideMicros float64
}

// AnalyticStrategyResult compares the simulation-based SleepScale runtime
// with the closed-form variant of §5.1.2 observation 3 on the same trace.
type AnalyticStrategyResult struct {
	Rows   []AnalyticStrategyRow
	Budget float64
}

// AnalyticStrategyStudy runs SS (simulation-based selection) and
// SS(analytic) (closed forms + continuous frequency refinement) over the
// email-store day and reports quality and decision cost.
func AnalyticStrategyStudy(cfg Config) (*AnalyticStrategyResult, error) {
	const (
		rhoB  = 0.8
		alpha = 0.35
		T     = 5
	)
	spec := workload.DNS()
	stats, err := workload.NewFittedStats(spec)
	if err != nil {
		return nil, err
	}
	tr, err := evalTrace(cfg, 0)
	if err != nil {
		return nil, err
	}
	qos, err := policy.NewMeanResponseQoS(rhoB, spec.MaxServiceRate())
	if err != nil {
		return nil, err
	}
	out := &AnalyticStrategyResult{Budget: qos.Budget}
	for _, variant := range []string{"SS", "SS(analytic)"} {
		mgr, err := runnerManager(cfg, spec, rhoB)
		if err != nil {
			return nil, err
		}
		var strat core.Strategy
		switch variant {
		case "SS":
			strat, err = strategy.NewSleepScale(mgr, cfg.RunnerEvalJobs, alpha)
		default:
			strat, err = strategy.NewAnalyticSleepScale(mgr, alpha)
		}
		if err != nil {
			return nil, err
		}
		timed := &timedStrategy{inner: strat}
		pred, err := predictorByName("LC", tr)
		if err != nil {
			return nil, err
		}
		rep, err := core.Run(core.RunnerConfig{
			Stats:        stats,
			FreqExponent: spec.FreqExponent,
			Profile:      cfg.profile(),
			Trace:        tr,
			EpochSlots:   T,
			Predictor:    pred,
			Strategy:     timed,
			Seed:         cfg.Seed,
		})
		if err != nil {
			return nil, err
		}
		out.Rows = append(out.Rows, AnalyticStrategyRow{
			Strategy:     variant,
			MeanResponse: rep.MeanResponse,
			AvgPower:     rep.AvgPower,
			DecideMicros: timed.meanMicros(),
		})
	}
	return out, nil
}

// timedStrategy wraps a strategy and measures per-decision wall time.
type timedStrategy struct {
	inner core.Strategy
	total time.Duration
	n     int
}

func (t *timedStrategy) Name() string { return t.inner.Name() }

func (t *timedStrategy) Decide(in core.DecideInput) (policy.Policy, error) {
	start := time.Now()
	p, err := t.inner.Decide(in)
	t.total += time.Since(start)
	t.n++
	return p, err
}

func (t *timedStrategy) meanMicros() float64 {
	if t.n == 0 {
		return 0
	}
	return float64(t.total.Microseconds()) / float64(t.n)
}

// Tables renders the study.
func (r *AnalyticStrategyResult) Tables() []Table {
	t := Table{
		Title:  fmt.Sprintf("§5.1.2 obs. 3: simulated vs closed-form runtime (budget %.3g s)", r.Budget),
		Header: []string{"strategy", "E[R] (s)", "E[P] (W)", "decision cost (µs)"},
	}
	for _, row := range r.Rows {
		t.Rows = append(t.Rows, []string{
			row.Strategy,
			fmt.Sprintf("%.3f", row.MeanResponse),
			fmt.Sprintf("%.1f", row.AvgPower),
			fmt.Sprintf("%.0f", row.DecideMicros),
		})
	}
	return []Table{t}
}

// MailStudyResult compares idealized vs empirical selection for the
// heavy-tailed Mail workload (service Cv = 3.6) under a 95th-percentile
// constraint — §5.1.2 observation 2 in its most extreme published case.
type MailStudyResult struct {
	Rho float64
	// IdealizedFrequency / EmpiricalFrequency are the selected f's; the
	// heavy tail should force the empirical selection at least as fast.
	IdealizedFrequency float64
	EmpiricalFrequency float64
	IdealizedPlan      string
	EmpiricalPlan      string
	// DNSGap and MailGap are the empirical−idealized frequency gaps for
	// DNS and Mail; the Mail gap should dominate.
	DNSGap  float64
	MailGap float64
}

// MailStudy quantifies how far the idealized M/M model underestimates the
// frequency a heavy-tailed workload needs under a tail constraint.
func MailStudy(cfg Config) (*MailStudyResult, error) {
	const (
		rho  = 0.4
		rhoB = 0.8
	)
	out := &MailStudyResult{Rho: rho}
	gap := func(spec workload.Spec) (idealF, empF float64, idealPlan, empPlan string, err error) {
		mu := spec.MaxServiceRate()
		qos, err := policy.NewPercentileQoS(rhoB, mu, 0.95)
		if err != nil {
			return 0, 0, "", "", err
		}
		mgr := &core.Manager{
			Profile:      cfg.profile(),
			FreqExponent: spec.FreqExponent,
			Space: policy.Space{
				Plans:    policy.DefaultPlans(),
				FreqStep: cfg.FreqStep,
				MinFreq:  0.05,
			},
			QoS: qos,
		}
		ideal, err := mgr.SelectIdealized(rho*mu, mu)
		if err != nil {
			return 0, 0, "", "", err
		}
		st, err := workload.NewEmpiricalStats(spec, 40000, cfg.Seed)
		if err != nil {
			return 0, 0, "", "", err
		}
		st, err = st.AtUtilization(rho)
		if err != nil {
			return 0, 0, "", "", err
		}
		emp, err := mgr.Select(st.Jobs(cfg.EvalJobs, rand.New(rand.NewSource(cfg.Seed+5))), rho)
		if err != nil {
			return 0, 0, "", "", err
		}
		return ideal.Policy.Frequency, emp.Policy.Frequency,
			ideal.Policy.Plan.Name, emp.Policy.Plan.Name, nil
	}
	iF, eF, iP, eP, err := gap(workload.Mail())
	if err != nil {
		return nil, err
	}
	out.IdealizedFrequency, out.EmpiricalFrequency = iF, eF
	out.IdealizedPlan, out.EmpiricalPlan = iP, eP
	out.MailGap = eF - iF
	diF, deF, _, _, err := gap(workload.DNS())
	if err != nil {
		return nil, err
	}
	out.DNSGap = deF - diF
	return out, nil
}

// Tables renders the Mail study.
func (r *MailStudyResult) Tables() []Table {
	t := Table{
		Title:  fmt.Sprintf("Mail heavy-tail study (ρ=%.1f, P95 QoS): idealized vs empirical", r.Rho),
		Header: []string{"quantity", "value"},
		Rows: [][]string{
			{"idealized selection", fmt.Sprintf("f=%.2f %s", r.IdealizedFrequency, r.IdealizedPlan)},
			{"empirical selection", fmt.Sprintf("f=%.2f %s", r.EmpiricalFrequency, r.EmpiricalPlan)},
			{"Mail frequency gap (emp − ideal)", fmt.Sprintf("%.2f", r.MailGap)},
			{"DNS frequency gap (emp − ideal)", fmt.Sprintf("%.2f", r.DNSGap)},
		},
	}
	return []Table{t}
}
