package experiments

import (
	"fmt"

	"sleepscale/internal/core"
	"sleepscale/internal/policy"
	"sleepscale/internal/power"
	"sleepscale/internal/predict"
	"sleepscale/internal/strategy"
	"sleepscale/internal/trace"
	"sleepscale/internal/workload"
)

// Figure7Result holds the synthetic utilization traces of Figure 7.
type Figure7Result struct {
	FileServer *trace.Trace
	EmailStore *trace.Trace
}

// Figure7 generates the Figure 7 traces: three days of minute-granularity
// utilization for a lightly loaded file server and a wide-range email store
// with end-of-day backup surges (synthetic equivalents; see DESIGN.md §2.2).
func Figure7(cfg Config) (*Figure7Result, error) {
	days := cfg.TraceDays
	if days < 1 {
		days = 3
	}
	return &Figure7Result{
		FileServer: trace.FileServer(days, cfg.Seed),
		EmailStore: trace.EmailStore(days, cfg.Seed),
	}, nil
}

// Tables renders Figure 7 summary statistics.
func (r *Figure7Result) Tables() []Table {
	t := Table{
		Title:  "Figure 7: utilization traces (synthetic, minute granularity)",
		Header: []string{"trace", "days", "mean ρ", "min ρ", "max ρ"},
	}
	for _, tr := range []*trace.Trace{r.FileServer, r.EmailStore} {
		mean, min, max := tr.Stats()
		t.Rows = append(t.Rows, []string{
			tr.Name,
			fmt.Sprintf("%d", tr.Len()/trace.MinutesPerDay),
			fmt.Sprintf("%.3f", mean),
			fmt.Sprintf("%.3f", min),
			fmt.Sprintf("%.3f", max),
		})
	}
	return []Table{t}
}

// evalTrace returns the evaluated window of the email-store trace: the paper
// runs 2 AM–8 PM because 8 PM–2 AM hosts scheduled backups.
func evalTrace(cfg Config, seedOffset int64) (*trace.Trace, error) {
	full := trace.EmailStore(max(cfg.TraceDays, 1), cfg.Seed+seedOffset)
	return full.DailyWindow(cfg.TraceWindowStart, cfg.TraceWindowEnd)
}

// runnerManager builds a fresh manager for trace runs (each strategy must
// own its manager because some constructors restrict the plan space).
func runnerManager(cfg Config, spec workload.Spec, rhoB float64) (*core.Manager, error) {
	qos, err := policy.NewMeanResponseQoS(rhoB, spec.MaxServiceRate())
	if err != nil {
		return nil, err
	}
	return &core.Manager{
		Profile:      cfg.profile(),
		FreqExponent: spec.FreqExponent,
		Space: policy.Space{
			Plans:    policy.DefaultPlans(),
			FreqStep: cfg.RunnerFreqStep,
			MinFreq:  0.05,
		},
		QoS: qos,
	}, nil
}

// predictorByName builds the Figure 8 predictors; "Offline" needs the trace.
func predictorByName(name string, tr *trace.Trace) (predict.Predictor, error) {
	switch name {
	case "NP":
		return predict.NewNaivePrevious(), nil
	case "LMS":
		return predict.NewLMS(10, 0.5)
	case "LC":
		return predict.NewLMSCUSUM(10, 0.5)
	case "Offline":
		return predict.NewOffline(tr.Utilization), nil
	}
	return nil, fmt.Errorf("experiments: unknown predictor %q", name)
}

// Figure8Cell is one bar of Figure 8.
type Figure8Cell struct {
	Predictor    string
	EpochMinutes int
	MeanResponse float64
	P95Response  float64
	AvgPower     float64
}

// Figure8Result holds the predictor × update-interval study.
type Figure8Result struct {
	Cells []Figure8Cell
	// Budget is the absolute mean-response budget (1/((1−ρ_b)µ)).
	Budget float64
}

// Figure8 reproduces Figure 8: average response time of SleepScale under
// different utilization predictors (LC, LMS, NP, Offline) and policy update
// intervals T, with no over-provisioning (α = 0), on a DNS-like server
// following the email-store trace with ρ_b = 0.8.
func Figure8(cfg Config, predictors []string, epochs []int) (*Figure8Result, error) {
	if len(predictors) == 0 {
		predictors = []string{"LC", "LMS", "NP", "Offline"}
	}
	if len(epochs) == 0 {
		epochs = []int{1, 3, 5, 10}
	}
	spec := workload.DNS()
	stats, err := workload.NewFittedStats(spec)
	if err != nil {
		return nil, err
	}
	tr, err := evalTrace(cfg, 0)
	if err != nil {
		return nil, err
	}
	qos, err := policy.NewMeanResponseQoS(0.8, spec.MaxServiceRate())
	if err != nil {
		return nil, err
	}
	out := &Figure8Result{Budget: qos.Budget}
	for _, pname := range predictors {
		for _, T := range epochs {
			mgr, err := runnerManager(cfg, spec, 0.8)
			if err != nil {
				return nil, err
			}
			strat, err := strategy.NewSleepScale(mgr, cfg.RunnerEvalJobs, 0)
			if err != nil {
				return nil, err
			}
			pred, err := predictorByName(pname, tr)
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
				Strategy:     strat,
				Seed:         cfg.Seed,
			})
			if err != nil {
				return nil, err
			}
			out.Cells = append(out.Cells, Figure8Cell{
				Predictor:    pname,
				EpochMinutes: T,
				MeanResponse: rep.MeanResponse,
				P95Response:  rep.P95Response,
				AvgPower:     rep.AvgPower,
			})
		}
	}
	return out, nil
}

// Cell returns the cell for (predictor, T), or false.
func (r *Figure8Result) Cell(pred string, T int) (Figure8Cell, bool) {
	for _, c := range r.Cells {
		if c.Predictor == pred && c.EpochMinutes == T {
			return c, true
		}
	}
	return Figure8Cell{}, false
}

// Tables renders Figure 8.
func (r *Figure8Result) Tables() []Table {
	t := Table{
		Title: fmt.Sprintf("Figure 8: mean response (s) by predictor × update interval, α=0 (budget %.3g s)",
			r.Budget),
		Header: []string{"predictor", "T (min)", "E[R] (s)", "P95 (s)", "E[P] (W)", "within budget"},
	}
	for _, c := range r.Cells {
		t.Rows = append(t.Rows, []string{
			c.Predictor,
			fmt.Sprintf("%d", c.EpochMinutes),
			fmt.Sprintf("%.3f", c.MeanResponse),
			fmt.Sprintf("%.3f", c.P95Response),
			fmt.Sprintf("%.1f", c.AvgPower),
			fmt.Sprintf("%t", c.MeanResponse <= r.Budget),
		})
	}
	return []Table{t}
}

// Figure9Row is one strategy of the Figure 9 comparison.
type Figure9Row struct {
	Strategy     string
	MeanResponse float64
	P95Response  float64
	AvgPower     float64
	Energy       float64
}

// Figure9Result holds the strategy comparison.
type Figure9Result struct {
	Rows   []Figure9Row
	Budget float64
}

// Figure9 reproduces Figure 9: SleepScale (with α = 0.35) against SS(C3),
// DVFS-only, R2H(C3) and R2H(C6), all driven by the LMS+CUSUM predictor with
// T = 5 minute epochs on the DNS-like email-store day.
func Figure9(cfg Config) (*Figure9Result, error) {
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
	build := func(name string) (core.Strategy, error) {
		switch name {
		case "SS":
			m, err := runnerManager(cfg, spec, rhoB)
			if err != nil {
				return nil, err
			}
			return strategy.NewSleepScale(m, cfg.RunnerEvalJobs, alpha)
		case "SS(C3)":
			m, err := runnerManager(cfg, spec, rhoB)
			if err != nil {
				return nil, err
			}
			return strategy.NewFixedSleep(m, power.Sleep, cfg.RunnerEvalJobs, alpha)
		case "DVFS":
			m, err := runnerManager(cfg, spec, rhoB)
			if err != nil {
				return nil, err
			}
			return strategy.NewDVFSOnly(m, cfg.RunnerEvalJobs, alpha)
		case "R2H(C3)":
			return strategy.NewRaceToHalt(power.Sleep)
		case "R2H(C6)":
			return strategy.NewRaceToHalt(power.DeepSleep)
		}
		return nil, fmt.Errorf("experiments: unknown strategy %q", name)
	}
	out := &Figure9Result{Budget: qos.Budget}
	for _, name := range []string{"SS", "SS(C3)", "DVFS", "R2H(C3)", "R2H(C6)"} {
		strat, err := build(name)
		if err != nil {
			return nil, err
		}
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
			Strategy:     strat,
			Seed:         cfg.Seed,
		})
		if err != nil {
			return nil, err
		}
		out.Rows = append(out.Rows, Figure9Row{
			Strategy:     name,
			MeanResponse: rep.MeanResponse,
			P95Response:  rep.P95Response,
			AvgPower:     rep.AvgPower,
			Energy:       rep.Energy,
		})
	}
	return out, nil
}

// Row returns the named strategy's row, or false.
func (r *Figure9Result) Row(name string) (Figure9Row, bool) {
	for _, row := range r.Rows {
		if row.Strategy == name {
			return row, true
		}
	}
	return Figure9Row{}, false
}

// Tables renders Figure 9 (both sub-figures: response and power).
func (r *Figure9Result) Tables() []Table {
	t := Table{
		Title: fmt.Sprintf("Figure 9: strategy comparison (LC predictor, T=5, α=0.35; budget %.3g s)",
			r.Budget),
		Header: []string{"strategy", "E[R] (s)", "P95 (s)", "E[P] (W)", "within budget"},
	}
	for _, row := range r.Rows {
		t.Rows = append(t.Rows, []string{
			row.Strategy,
			fmt.Sprintf("%.3f", row.MeanResponse),
			fmt.Sprintf("%.3f", row.P95Response),
			fmt.Sprintf("%.1f", row.AvgPower),
			fmt.Sprintf("%t", row.MeanResponse <= r.Budget),
		})
	}
	return []Table{t}
}

// Figure10Row is one run of the Figure 10 state-distribution study.
type Figure10Row struct {
	// TraceName is "fs" (file server) or "es" (email store).
	TraceName string
	// Workload is "DNS" or "Google".
	Workload string
	// RhoB is the baseline.
	RhoB float64
	// PlanFractions maps state name → fraction of decision epochs.
	PlanFractions map[string]float64
}

// Figure10Result holds the distribution of selected low-power states.
type Figure10Result struct {
	Rows []Figure10Row
}

// Figure10 reproduces Figure 10: the distribution of optimal low-power
// states selected by SleepScale (LC predictor, T = 5, α = 0.35) for the file
// server and email store traces running DNS and Google-like services at
// ρ_b ∈ {0.6, 0.8}.
func Figure10(cfg Config) (*Figure10Result, error) {
	const (
		alpha = 0.35
		T     = 5
	)
	out := &Figure10Result{}
	for _, tc := range []struct {
		traceName string
		tr        func() (*trace.Trace, error)
	}{
		{"fs", func() (*trace.Trace, error) {
			full := trace.FileServer(max(cfg.TraceDays, 1), cfg.Seed)
			return full.DailyWindow(cfg.TraceWindowStart, cfg.TraceWindowEnd)
		}},
		{"es", func() (*trace.Trace, error) { return evalTrace(cfg, 0) }},
	} {
		for _, wname := range []string{"DNS", "Google"} {
			spec, err := specByName(wname)
			if err != nil {
				return nil, err
			}
			stats, err := workload.NewFittedStats(spec)
			if err != nil {
				return nil, err
			}
			for _, rhoB := range []float64{0.6, 0.8} {
				tr, err := tc.tr()
				if err != nil {
					return nil, err
				}
				mgr, err := runnerManager(cfg, spec, rhoB)
				if err != nil {
					return nil, err
				}
				strat, err := strategy.NewSleepScale(mgr, cfg.RunnerEvalJobs, alpha)
				if err != nil {
					return nil, err
				}
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
					Strategy:     strat,
					Seed:         cfg.Seed,
				})
				if err != nil {
					return nil, err
				}
				out.Rows = append(out.Rows, Figure10Row{
					TraceName:     tc.traceName,
					Workload:      wname,
					RhoB:          rhoB,
					PlanFractions: rep.PlanFractions(),
				})
			}
		}
	}
	return out, nil
}

// Row returns the row for (traceName, workload, rhoB), or false.
func (r *Figure10Result) Row(traceName, wname string, rhoB float64) (Figure10Row, bool) {
	for _, row := range r.Rows {
		if row.TraceName == traceName && row.Workload == wname && row.RhoB == rhoB {
			return row, true
		}
	}
	return Figure10Row{}, false
}

// Tables renders Figure 10.
func (r *Figure10Result) Tables() []Table {
	states := []string{"C0(i)S0(i)", "C1S0(i)", "C3S0(i)", "C6S0(i)", "C6S3"}
	t := Table{
		Title:  "Figure 10: distribution of low-power states selected by SleepScale",
		Header: append([]string{"trace", "workload", "ρ_b"}, states...),
	}
	for _, row := range r.Rows {
		cells := []string{row.TraceName, row.Workload, fmt.Sprintf("%.1f", row.RhoB)}
		for _, s := range states {
			cells = append(cells, fmt.Sprintf("%.2f", row.PlanFractions[s]))
		}
		t.Rows = append(t.Rows, cells)
	}
	return []Table{t}
}
