package experiments

import (
	"fmt"
	"math/rand"

	"sleepscale/internal/core"
	"sleepscale/internal/policy"
	"sleepscale/internal/workload"
)

// PolicyMapPoint is one optimal-policy sample of Figure 6: the best
// (frequency, state) pair at one utilization.
type PolicyMapPoint struct {
	// Utilization is ρ.
	Utilization float64
	// Frequency is the selected f.
	Frequency float64
	// Plan names the selected low-power state.
	Plan string
	// Feasible reports whether the selection met the QoS (false means the
	// least-violating fallback was reported).
	Feasible bool
	// Power and NormMeanResponse record the winning metrics.
	Power            float64
	NormMeanResponse float64
}

// PolicyMap is one curve of Figure 6.
type PolicyMap struct {
	// Workload is "DNS" or "Google".
	Workload string
	// QoSKind is "mean" (µE[R]) or "p95" (95th percentile).
	QoSKind string
	// RhoB is the baseline peak design utilization.
	RhoB float64
	// Model is "idealized" (closed forms, solid lines) or "empirical"
	// (BigHouse-surrogate statistics through the simulator, dashed lines).
	Model string
	// Points are ordered by utilization.
	Points []PolicyMapPoint
}

// Label renders the curve identity.
func (pm PolicyMap) Label() string {
	return fmt.Sprintf("%s/%s/ρb=%.1f/%s", pm.Workload, pm.QoSKind, pm.RhoB, pm.Model)
}

// Figure6Result holds all Figure 6 policy maps.
type Figure6Result struct {
	Maps []PolicyMap
	// RhoGrid is the utilization grid used.
	RhoGrid []float64
}

// Figure6Options selects which subset of the 16 curves to compute; the zero
// value computes everything.
type Figure6Options struct {
	// Workloads restricts to the named workloads (default DNS and Google).
	Workloads []string
	// QoSKinds restricts to "mean" and/or "p95".
	QoSKinds []string
	// RhoBs restricts the baselines (default 0.6 and 0.8).
	RhoBs []float64
	// Models restricts to "idealized" and/or "empirical".
	Models []string
	// RhoStep sets the utilization grid step (default 0.05).
	RhoStep float64
}

func (o *Figure6Options) fill() {
	if len(o.Workloads) == 0 {
		o.Workloads = []string{"DNS", "Google"}
	}
	if len(o.QoSKinds) == 0 {
		o.QoSKinds = []string{"mean", "p95"}
	}
	if len(o.RhoBs) == 0 {
		o.RhoBs = []float64{0.6, 0.8}
	}
	if len(o.Models) == 0 {
		o.Models = []string{"idealized", "empirical"}
	}
	if o.RhoStep <= 0 {
		o.RhoStep = 0.05
	}
}

// Figure6 reproduces Figure 6: the optimal pairing of frequency setting and
// low-power state as a function of utilization, for DNS and Google-like
// workloads, under mean-response and 95th-percentile QoS at ρ_b ∈ {0.6, 0.8},
// computed both with the idealized M/M model (closed forms) and with
// empirical BigHouse-surrogate statistics (simulation, common random
// numbers).
func Figure6(cfg Config, opts Figure6Options) (*Figure6Result, error) {
	opts.fill()
	var grid []float64
	for rho := opts.RhoStep; rho <= 0.8+1e-9; rho += opts.RhoStep {
		grid = append(grid, rho)
	}
	out := &Figure6Result{RhoGrid: grid}

	for _, wname := range opts.Workloads {
		spec, err := specByName(wname)
		if err != nil {
			return nil, err
		}
		mu := spec.MaxServiceRate()
		// Empirical statistics are built once per workload and rescaled
		// per utilization, as BigHouse's stored CDFs are in the paper.
		empStats, err := workload.NewEmpiricalStats(spec, 40000, cfg.Seed)
		if err != nil {
			return nil, err
		}
		for _, kind := range opts.QoSKinds {
			for _, rhoB := range opts.RhoBs {
				qos, err := qosFor(kind, rhoB, mu)
				if err != nil {
					return nil, err
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
				for _, model := range opts.Models {
					pm := PolicyMap{Workload: wname, QoSKind: kind, RhoB: rhoB, Model: model}
					for _, rho := range grid {
						var best policy.Evaluation
						switch model {
						case "idealized":
							best, err = mgr.SelectIdealized(rho*mu, mu)
						case "empirical":
							st, serr := empStats.AtUtilization(rho)
							if serr != nil {
								return nil, serr
							}
							rng := rand.New(rand.NewSource(cfg.Seed + int64(rho*1000)))
							jobs := st.Jobs(cfg.EvalJobs, rng)
							best, err = mgr.Select(jobs, rho)
						default:
							return nil, fmt.Errorf("experiments: unknown model %q", model)
						}
						if err != nil {
							return nil, err
						}
						pm.Points = append(pm.Points, PolicyMapPoint{
							Utilization:      rho,
							Frequency:        best.Policy.Frequency,
							Plan:             best.Policy.Plan.Name,
							Feasible:         best.Feasible,
							Power:            best.Metrics.AvgPower,
							NormMeanResponse: mu * best.Metrics.MeanResponse,
						})
					}
					out.Maps = append(out.Maps, pm)
				}
			}
		}
	}
	return out, nil
}

func specByName(name string) (workload.Spec, error) {
	switch name {
	case "DNS":
		return workload.DNS(), nil
	case "Google":
		return workload.Google(), nil
	case "Mail":
		return workload.Mail(), nil
	}
	return workload.Spec{}, fmt.Errorf("experiments: unknown workload %q", name)
}

func qosFor(kind string, rhoB, mu float64) (policy.QoS, error) {
	switch kind {
	case "mean":
		return policy.NewMeanResponseQoS(rhoB, mu)
	case "p95":
		return policy.NewPercentileQoS(rhoB, mu, 0.95)
	}
	return nil, fmt.Errorf("experiments: unknown QoS kind %q", kind)
}

// Tables renders each policy map as a utilization → (frequency, state) grid.
func (r *Figure6Result) Tables() []Table {
	var tables []Table
	for _, pm := range r.Maps {
		t := Table{
			Title:  "Figure 6 " + pm.Label(),
			Header: []string{"ρ", "f", "state", "feasible", "E[P] (W)", "µE[R]"},
		}
		for _, p := range pm.Points {
			t.Rows = append(t.Rows, []string{
				fmt.Sprintf("%.2f", p.Utilization),
				fmt.Sprintf("%.2f", p.Frequency),
				p.Plan,
				fmt.Sprintf("%t", p.Feasible),
				fmt.Sprintf("%.1f", p.Power),
				fmt.Sprintf("%.2f", p.NormMeanResponse),
			})
		}
		tables = append(tables, t)
	}
	return tables
}

// Find returns the map matching the given identity, or false.
func (r *Figure6Result) Find(workloadName, qosKind string, rhoB float64, model string) (PolicyMap, bool) {
	for _, pm := range r.Maps {
		if pm.Workload == workloadName && pm.QoSKind == qosKind &&
			pm.RhoB == rhoB && pm.Model == model {
			return pm, true
		}
	}
	return PolicyMap{}, false
}
