// Package policy defines the SleepScale decision space of §5.1: a policy is
// a DVFS frequency setting paired with a plan describing which low-power
// states the server enters when idle and after what delays. The package also
// implements the paper's two QoS constraint families (normalized mean
// response time and 95th-percentile response time, both derived from a peak
// design utilization ρ_b) and the enumeration of candidate policies the
// policy manager characterizes.
package policy

import (
	"fmt"
	"math"
	"strings"

	"sleepscale/internal/analytic"
	"sleepscale/internal/power"
	"sleepscale/internal/queue"
)

// PlanPhase is one step of a sleep plan: enter State τ seconds after the
// queue empties.
type PlanPhase struct {
	// State is the combined CPU+platform low-power state.
	State power.State
	// Enter is τᵢ in seconds; phases must be ordered by Enter.
	Enter float64
}

// SleepPlan is an ordered sequence of low-power states. The empty plan means
// the server never leaves C0(a)S0(a) (DVFS-only idling).
type SleepPlan struct {
	// Name labels the plan in reports, e.g. "C6S3" or
	// "C0(i)S0(i)→C6S3@30/µ".
	Name string
	// Phases is the ordered state sequence.
	Phases []PlanPhase
}

// NoSleep returns the empty plan: the server idles in the active state,
// modeling the DVFS-only baseline of §6.1.
func NoSleep() SleepPlan { return SleepPlan{Name: "none"} }

// SingleState returns the plan that enters s immediately when the queue
// empties (τ = 0) — the §4.2 setting.
func SingleState(s power.State) SleepPlan {
	return SleepPlan{Name: s.String(), Phases: []PlanPhase{{State: s}}}
}

// DelayedState returns the plan that enters s after waiting tau seconds.
func DelayedState(s power.State, tau float64) SleepPlan {
	return SleepPlan{
		Name:   fmt.Sprintf("%s@%.3g", s, tau),
		Phases: []PlanPhase{{State: s, Enter: tau}},
	}
}

// Sequence returns a plan walking through the given phases in order.
func Sequence(name string, phases ...PlanPhase) SleepPlan {
	if name == "" {
		parts := make([]string, len(phases))
		for i, ph := range phases {
			parts[i] = ph.State.String()
		}
		name = strings.Join(parts, "→")
	}
	return SleepPlan{Name: name, Phases: phases}
}

// FullSequence returns the §4.2 lesson-5 plan: every low-power state from
// C0(i)S0(i) to C6S3 entered in order at the given delays (which must have
// exactly five entries).
func FullSequence(delays [5]float64) SleepPlan {
	states := power.LowPowerStates()
	phases := make([]PlanPhase, len(states))
	for i, s := range states {
		phases[i] = PlanPhase{State: s, Enter: delays[i]}
	}
	return Sequence("full-sequence", phases...)
}

// Validate checks plan ordering and state validity.
func (pl SleepPlan) Validate() error {
	prev := math.Inf(-1)
	for i, ph := range pl.Phases {
		if !ph.State.Valid() {
			return fmt.Errorf("policy: plan %q phase %d: invalid state %v", pl.Name, i, ph.State)
		}
		if ph.State == power.Active {
			return fmt.Errorf("policy: plan %q phase %d: active state is not a sleep state", pl.Name, i)
		}
		if ph.Enter < 0 || ph.Enter < prev {
			return fmt.Errorf("policy: plan %q phase %d: enter %g not non-decreasing", pl.Name, i, ph.Enter)
		}
		prev = ph.Enter
	}
	return nil
}

// DeepestState reports the final state of the plan, or the active state for
// the empty plan.
func (pl SleepPlan) DeepestState() power.State {
	if len(pl.Phases) == 0 {
		return power.Active
	}
	return pl.Phases[len(pl.Phases)-1].State
}

// DefaultPlans returns SleepScale's standard candidates: each of the five
// low-power states entered immediately (§5.1.1).
func DefaultPlans() []SleepPlan {
	states := power.LowPowerStates()
	plans := make([]SleepPlan, len(states))
	for i, s := range states {
		plans[i] = SingleState(s)
	}
	return plans
}

// Policy pairs a frequency setting with a sleep plan.
type Policy struct {
	// Frequency is the DVFS factor f ∈ (0, 1].
	Frequency float64
	// Plan is the low-power state sequence used when idle.
	Plan SleepPlan
}

// String implements fmt.Stringer, e.g. "f=0.42 C6S3".
func (p Policy) String() string {
	return fmt.Sprintf("f=%.2f %s", p.Frequency, p.Plan.Name)
}

// Config resolves the policy against a power profile into the numeric
// queue.Config the simulator consumes. freqExponent is the workload's β.
func (p Policy) Config(prof *power.Profile, freqExponent float64) (queue.Config, error) {
	return p.AppendConfig(prof, freqExponent, nil)
}

// AppendConfig is Config with caller-provided phase storage: the resolved
// phases are appended to buf (normally buf[:0] of a scratch slice), so a
// selection loop resolving thousands of candidates reuses one buffer instead
// of allocating per policy. The returned Config's Phases alias buf's array
// whenever capacity suffices.
func (p Policy) AppendConfig(prof *power.Profile, freqExponent float64, buf []queue.SleepPhase) (queue.Config, error) {
	if err := p.Plan.Validate(); err != nil {
		return queue.Config{}, err
	}
	cfg := queue.Config{
		Frequency:    p.Frequency,
		FreqExponent: freqExponent,
		ActivePower:  prof.ActivePower(p.Frequency),
		IdlePower:    prof.ActivePower(p.Frequency),
		Phases:       buf,
	}
	for _, ph := range p.Plan.Phases {
		cfg.Phases = append(cfg.Phases, queue.SleepPhase{
			Name:        ph.State.String(),
			Power:       prof.SystemPower(ph.State, p.Frequency),
			WakeLatency: prof.Wake(ph.State),
			EnterAfter:  ph.Enter,
		})
	}
	if err := cfg.Validate(); err != nil {
		return queue.Config{}, err
	}
	return cfg, nil
}

// AnalyticModel resolves the policy into the Appendix model for arrival rate
// lambda and maximum service rate mu (CPU-bound service assumed, as in the
// paper's closed forms).
func (p Policy) AnalyticModel(prof *power.Profile, lambda, mu float64) (analytic.Model, error) {
	return p.AppendAnalyticModel(prof, lambda, mu, nil)
}

// AppendAnalyticModel is AnalyticModel with caller-provided state storage,
// as AppendConfig is for Config: the states are appended to buf (normally
// buf[:0] of a scratch slice), and the returned Model's States alias buf's
// array whenever capacity suffices.
func (p Policy) AppendAnalyticModel(prof *power.Profile, lambda, mu float64, buf []analytic.SleepState) (analytic.Model, error) {
	if err := p.Plan.Validate(); err != nil {
		return analytic.Model{}, err
	}
	m := analytic.Model{
		Lambda:      lambda,
		Mu:          mu,
		F:           p.Frequency,
		ActivePower: prof.ActivePower(p.Frequency),
		States:      buf,
	}
	for _, ph := range p.Plan.Phases {
		m.States = append(m.States, analytic.SleepState{
			Power: prof.SystemPower(ph.State, p.Frequency),
			Enter: ph.Enter,
			Wake:  prof.Wake(ph.State),
		})
	}
	return m, nil
}

// Metrics is the measured behaviour of one policy under one workload.
type Metrics struct {
	// AvgPower is E[P] in watts.
	AvgPower float64
	// MeanResponse is E[R] in seconds.
	MeanResponse float64
	// P95Response and P99Response are response-time percentiles in seconds.
	P95Response float64
	P99Response float64
}

// Evaluation couples a policy with its metrics and QoS feasibility.
type Evaluation struct {
	Policy   Policy
	Metrics  Metrics
	Feasible bool
}

// QoS is a quality-of-service constraint over policy metrics.
type QoS interface {
	// Satisfied reports whether the metrics meet the constraint.
	Satisfied(m Metrics) bool
	// Violation reports how far the metrics exceed the constraint in
	// seconds (≤ 0 when satisfied); the manager's fallback minimizes it
	// when no candidate is feasible.
	Violation(m Metrics) float64
	// EpochWithinBudget reports whether a realized epoch (mean and P95
	// delay) met the target; the over-provisioning guard of §5.2.3 keys
	// off this.
	EpochWithinBudget(meanDelay, p95Delay float64) bool
	// Describe renders the constraint for reports.
	Describe() string
}

// MeanResponseQoS bounds the mean response time by an absolute budget.
type MeanResponseQoS struct {
	// Budget is the maximum allowed E[R] in seconds.
	Budget float64
}

// NewMeanResponseQoS derives the §5.1.1 baseline budget from a peak design
// utilization ρ_b and service rate µ: E[R] ≤ 1/((1−ρ_b)·µ), i.e. the mean
// response of the baseline M/M/1 running at f = 1 under load ρ_b.
func NewMeanResponseQoS(rhoB, mu float64) (MeanResponseQoS, error) {
	if rhoB <= 0 || rhoB >= 1 || mu <= 0 {
		return MeanResponseQoS{}, fmt.Errorf("policy: bad baseline ρ_b=%g µ=%g", rhoB, mu)
	}
	return MeanResponseQoS{Budget: 1 / ((1 - rhoB) * mu)}, nil
}

// Satisfied implements QoS.
func (q MeanResponseQoS) Satisfied(m Metrics) bool { return m.MeanResponse <= q.Budget }

// Violation implements QoS.
func (q MeanResponseQoS) Violation(m Metrics) float64 { return m.MeanResponse - q.Budget }

// EpochWithinBudget implements QoS.
func (q MeanResponseQoS) EpochWithinBudget(meanDelay, _ float64) bool {
	return meanDelay <= q.Budget
}

// Describe implements QoS.
func (q MeanResponseQoS) Describe() string {
	return fmt.Sprintf("E[R] ≤ %.4g s", q.Budget)
}

// PercentileQoS bounds a response-time percentile by a deadline:
// Pr(R ≥ Deadline) ≤ 1 − Quantile.
type PercentileQoS struct {
	// Deadline is d in seconds.
	Deadline float64
	// Quantile selects the percentile; 0.95 and 0.99 are supported.
	Quantile float64
}

// NewPercentileQoS derives the tail-constraint analogue of the §5.1.1
// baseline: the deadline is the baseline M/M/1's own q-quantile at ρ_b and
// f = 1, i.e. d = −ln(1−q)/((1−ρ_b)µ).
func NewPercentileQoS(rhoB, mu, q float64) (PercentileQoS, error) {
	if rhoB <= 0 || rhoB >= 1 || mu <= 0 {
		return PercentileQoS{}, fmt.Errorf("policy: bad baseline ρ_b=%g µ=%g", rhoB, mu)
	}
	if q != 0.95 && q != 0.99 {
		return PercentileQoS{}, fmt.Errorf("policy: unsupported quantile %g (want 0.95 or 0.99)", q)
	}
	return PercentileQoS{
		Deadline: -math.Log(1-q) / ((1 - rhoB) * mu),
		Quantile: q,
	}, nil
}

// Satisfied implements QoS.
func (q PercentileQoS) Satisfied(m Metrics) bool {
	switch q.Quantile {
	case 0.95:
		return m.P95Response <= q.Deadline
	case 0.99:
		return m.P99Response <= q.Deadline
	}
	return false
}

// Violation implements QoS.
func (q PercentileQoS) Violation(m Metrics) float64 {
	switch q.Quantile {
	case 0.99:
		return m.P99Response - q.Deadline
	default:
		return m.P95Response - q.Deadline
	}
}

// EpochWithinBudget implements QoS.
func (q PercentileQoS) EpochWithinBudget(_, p95Delay float64) bool {
	return p95Delay <= q.Deadline
}

// Describe implements QoS.
func (q PercentileQoS) Describe() string {
	return fmt.Sprintf("P%.0f(R) ≤ %.4g s", q.Quantile*100, q.Deadline)
}

// Space is the candidate-policy grid the manager sweeps: every plan crossed
// with a frequency grid from the stability floor to 1.
type Space struct {
	// Plans are the candidate sleep plans.
	Plans []SleepPlan
	// FreqStep is the frequency grid step (paper: 0.01 for smooth plots,
	// "about 10 distinct frequencies" in a real system).
	FreqStep float64
	// MinFreq is the absolute frequency floor (also the floor for
	// memory-bound workloads, which any f serves stably).
	MinFreq float64
}

// DefaultSpace returns the five single-state plans on a 0.01 grid.
func DefaultSpace() Space {
	return Space{Plans: DefaultPlans(), FreqStep: 0.01, MinFreq: 0.05}
}

// Frequencies returns the ascending frequency grid for utilization rho and
// frequency exponent beta. The floor is the paper's stability margin
// f ≥ ρ^(1/β) + step (the smallest f with µ·f^β > λ), clamped to
// [MinFreq, 1]; 1.0 is always included.
func (s Space) Frequencies(rho, beta float64) []float64 {
	return s.AppendFrequencies(nil, rho, beta)
}

// AppendFrequencies appends the grid Frequencies returns to buf (normally
// buf[:0] of a scratch slice), so a per-epoch selection enumerates its grid
// without allocating.
func (s Space) AppendFrequencies(buf []float64, rho, beta float64) []float64 {
	step := s.FreqStep
	if step <= 0 {
		step = 0.01
	}
	floor := s.MinFreq
	if floor <= 0 {
		floor = step
	}
	if beta > 0 && rho > 0 {
		stab := math.Pow(rho, 1/beta) + step
		if stab > floor {
			floor = stab
		}
	}
	if floor > 1 {
		return append(buf, 1)
	}
	start := math.Ceil(floor/step-1e-9) * step
	out := buf
	for f := start; f < 1-1e-9; f += step {
		out = append(out, math.Round(f/step)*step)
	}
	out = append(out, 1)
	return out
}

// Policies enumerates every (plan, frequency) pair for the given utilization
// and frequency exponent.
func (s Space) Policies(rho, beta float64) []Policy {
	freqs := s.Frequencies(rho, beta)
	out := make([]Policy, 0, len(freqs)*len(s.Plans))
	for _, pl := range s.Plans {
		for _, f := range freqs {
			out = append(out, Policy{Frequency: f, Plan: pl})
		}
	}
	return out
}
