// Package strategy implements the power-management strategies compared in
// §6.1 / Figure 9: SleepScale (SS), SleepScale restricted to a single
// low-power state (SS(C3)), DVFS-only, and race-to-halt (R2H). All satisfy
// core.Strategy and can be driven through the trace runner interchangeably.
package strategy

import (
	"fmt"

	"sleepscale/internal/core"
	"sleepscale/internal/policy"
	"sleepscale/internal/power"
)

// ManagerStrategy runs a core.Manager every epoch: it bootstraps an
// evaluation job stream from the logged events (rescaled to the predicted
// utilization), asks the manager for the minimum-power feasible policy, and
// applies the §5.2.3 frequency over-provisioning guard.
type ManagerStrategy struct {
	// Manager selects policies; its Space defines which states this
	// strategy may use.
	Manager *core.Manager
	// EvalJobs is N, the length of the bootstrap stream per selection
	// (the paper simulates 10,000 jobs; smaller values trade accuracy for
	// decision speed).
	EvalJobs int
	// OverProvision is α: when the previous epoch met its budget, the
	// selected frequency is raised to f·(1+α) as a guard band against
	// utilization surges. 0 disables over-provisioning.
	OverProvision float64
	// Label overrides the reported name.
	Label string
}

// NewSleepScale returns the full SleepScale strategy over the default
// five-state policy space.
func NewSleepScale(m *core.Manager, evalJobs int, alpha float64) (*ManagerStrategy, error) {
	return newManagerStrategy(m, evalJobs, alpha, "SS")
}

// NewFixedSleep returns SleepScale restricted to a single low-power state
// (e.g. SS(C3) in Figure 9). It replaces the manager's plan space.
func NewFixedSleep(m *core.Manager, state power.State, evalJobs int, alpha float64) (*ManagerStrategy, error) {
	m.Space.Plans = []policy.SleepPlan{policy.SingleState(state)}
	return newManagerStrategy(m, evalJobs, alpha, fmt.Sprintf("SS(%s)", state.CPU))
}

// NewDVFSOnly returns the DVFS-only baseline: frequency is optimized every
// epoch but the server is never allowed into a low-power state, idling in
// C0(a)S0(a) (§6.1: "using DVFS only wastes power as the server is not
// allowed to enter any low-power state when idling").
func NewDVFSOnly(m *core.Manager, evalJobs int, alpha float64) (*ManagerStrategy, error) {
	m.Space.Plans = []policy.SleepPlan{policy.NoSleep()}
	return newManagerStrategy(m, evalJobs, alpha, "DVFS")
}

func newManagerStrategy(m *core.Manager, evalJobs int, alpha float64, label string) (*ManagerStrategy, error) {
	if m == nil {
		return nil, fmt.Errorf("strategy: nil manager")
	}
	if err := m.Validate(); err != nil {
		return nil, err
	}
	if evalJobs < 10 {
		return nil, fmt.Errorf("strategy: eval jobs %d too small", evalJobs)
	}
	if alpha < 0 {
		return nil, fmt.Errorf("strategy: over-provision α %g < 0", alpha)
	}
	return &ManagerStrategy{Manager: m, EvalJobs: evalJobs, OverProvision: alpha, Label: label}, nil
}

// Name implements core.Strategy.
func (s *ManagerStrategy) Name() string { return s.Label }

// Decide implements core.Strategy.
func (s *ManagerStrategy) Decide(in core.DecideInput) (policy.Policy, error) {
	jobs, ok := in.Window.Jobs(s.EvalJobs, in.PredictedUtilization, in.Rng)
	if !ok {
		// Nothing logged yet (cold start): run safe — full speed, the
		// shallowest candidate state.
		return policy.Policy{Frequency: 1, Plan: s.Manager.Space.Plans[0]}, nil
	}
	best, err := s.Manager.Select(jobs, in.PredictedUtilization)
	if err != nil {
		return policy.Policy{}, err
	}
	pol := best.Policy
	if s.OverProvision > 0 && s.withinBudget(in) {
		f := pol.Frequency * (1 + s.OverProvision)
		if f > 1 {
			f = 1
		}
		pol.Frequency = f
	}
	return pol, nil
}

// withinBudget applies the §5.2.3 guard: over-provision when the previous
// epoch met its delay budget (an idle epoch counts as within budget). The
// paper notes this looks counter-intuitive but buffers against surges.
func (s *ManagerStrategy) withinBudget(in core.DecideInput) bool {
	if in.LastEpochJobs == 0 {
		return true
	}
	return s.Manager.QoS.EpochWithinBudget(in.LastEpochMeanDelay, in.LastEpochP95Delay)
}

// AnalyticSleepScale is the simulation-free variant the paper's §5.1.2
// observation 3 proposes as future work: each epoch it estimates λ and µ
// from the logged job events, then picks the policy with the idealized
// closed forms (grid search plus continuous frequency refinement) instead
// of replay simulation. Decisions cost microseconds instead of
// milliseconds; accuracy degrades when the workload departs from M/M.
type AnalyticSleepScale struct {
	// Manager supplies the space, profile and QoS.
	Manager *core.Manager
	// OverProvision is α, as in ManagerStrategy.
	OverProvision float64
}

// NewAnalyticSleepScale returns the closed-form strategy.
func NewAnalyticSleepScale(m *core.Manager, alpha float64) (*AnalyticSleepScale, error) {
	if m == nil {
		return nil, fmt.Errorf("strategy: nil manager")
	}
	if err := m.Validate(); err != nil {
		return nil, err
	}
	if alpha < 0 {
		return nil, fmt.Errorf("strategy: over-provision α %g < 0", alpha)
	}
	return &AnalyticSleepScale{Manager: m, OverProvision: alpha}, nil
}

// Name implements core.Strategy.
func (s *AnalyticSleepScale) Name() string { return "SS(analytic)" }

// Decide implements core.Strategy.
func (s *AnalyticSleepScale) Decide(in core.DecideInput) (policy.Policy, error) {
	_, sizeMean, ok := in.Window.Means()
	if !ok || sizeMean <= 0 {
		return policy.Policy{Frequency: 1, Plan: s.Manager.Space.Plans[0]}, nil
	}
	mu := 1 / sizeMean
	lambda := in.PredictedUtilization * mu
	best, err := s.Manager.SelectIdealizedRefined(lambda, mu)
	if err != nil {
		return policy.Policy{}, err
	}
	pol := best.Policy
	within := in.LastEpochJobs == 0 ||
		s.Manager.QoS.EpochWithinBudget(in.LastEpochMeanDelay, in.LastEpochP95Delay)
	if s.OverProvision > 0 && within {
		f := pol.Frequency * (1 + s.OverProvision)
		if f > 1 {
			f = 1
		}
		pol.Frequency = f
	}
	return pol, nil
}

// RaceToHalt is the §6.1 R2H baseline: always run at maximum frequency and
// drop into one fixed low-power state the moment the queue empties [25].
type RaceToHalt struct {
	plan policy.SleepPlan
	name string
}

// NewRaceToHalt returns R2H with the given state (C3S0(i) and C6S0(i) in
// Figure 9).
func NewRaceToHalt(state power.State) (*RaceToHalt, error) {
	plan := policy.SingleState(state)
	if err := plan.Validate(); err != nil {
		return nil, err
	}
	return &RaceToHalt{plan: plan, name: fmt.Sprintf("R2H(%s)", state.CPU)}, nil
}

// Name implements core.Strategy.
func (r *RaceToHalt) Name() string { return r.name }

// Decide implements core.Strategy: the policy never changes.
func (r *RaceToHalt) Decide(core.DecideInput) (policy.Policy, error) {
	return policy.Policy{Frequency: 1, Plan: r.plan}, nil
}

// Static applies one fixed policy forever; useful for ablations and as the
// simplest possible strategy.
type Static struct {
	// Policy is applied every epoch.
	Policy policy.Policy
	// Label is the reported name.
	Label string
}

// Name implements core.Strategy.
func (s *Static) Name() string {
	if s.Label != "" {
		return s.Label
	}
	return "static"
}

// Decide implements core.Strategy.
func (s *Static) Decide(core.DecideInput) (policy.Policy, error) { return s.Policy, nil }
