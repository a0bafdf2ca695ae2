// Package analytic implements the closed-form results from the SleepScale
// paper's Appendix: average power E[P], mean response time E[R], and the
// response-time tail Pr(R ≥ d) for a single-server FCFS queue with Poisson
// arrivals, exponential service, linear DVFS, and a sequence of n low-power
// states (Pᵢ, τᵢ, wᵢ). It also carries the M/G/1 extension the Appendix
// mentions (general service times via Pollaczek–Khinchine plus Welch's
// exceptional-first-service term).
//
// These formulas are what the paper uses to verify the simulator ("results
// obtained from the closed-form expressions match those presented in
// Figure 1") and what the idealized model in Figure 6 computes. Tests in
// this package cross-validate every formula against internal/queue.
package analytic

import (
	"errors"
	"fmt"
	"math"
)

// SleepState mirrors the paper's (Pᵢ, τᵢ, wᵢ) triple for low-power state i.
type SleepState struct {
	// Power is Pᵢ, watts while resident.
	Power float64
	// Enter is τᵢ, seconds after the queue empties at which the state is
	// entered. Must be non-decreasing across the sequence.
	Enter float64
	// Wake is wᵢ, the average wake-up latency in seconds.
	Wake float64
}

// Model is the M/M/1-with-sleep-states system of §4.3 and the Appendix.
type Model struct {
	// Lambda is the job arrival rate λ (jobs/second).
	Lambda float64
	// Mu is the maximum service rate µ (jobs/second at f = 1).
	Mu float64
	// F is the DVFS factor f ∈ (0, 1]; the effective rate is µ·f.
	F float64
	// ActivePower is P₀, the power while serving, waking, or idling before
	// the first sleep state, at this frequency (watts).
	ActivePower float64
	// States is the low-power sequence, shallow to deep.
	States []SleepState
}

// ErrUnstable reports λ ≥ µ·f.
var ErrUnstable = errors.New("analytic: unstable queue (λ ≥ µf)")

// ErrBadModel reports invalid model parameters.
var ErrBadModel = errors.New("analytic: invalid model")

// Validate checks the model parameters.
func (m Model) Validate() error {
	if m.Lambda <= 0 || m.Mu <= 0 {
		return fmt.Errorf("%w: λ=%g µ=%g", ErrBadModel, m.Lambda, m.Mu)
	}
	if !(m.F > 0 && m.F <= 1) {
		return fmt.Errorf("%w: f=%g", ErrBadModel, m.F)
	}
	if m.Lambda >= m.Mu*m.F {
		return fmt.Errorf("%w: λ=%g ≥ µf=%g", ErrUnstable, m.Lambda, m.Mu*m.F)
	}
	prev := math.Inf(-1)
	for i, s := range m.States {
		if s.Enter < 0 || s.Enter < prev {
			return fmt.Errorf("%w: state %d enter %g not non-decreasing", ErrBadModel, i, s.Enter)
		}
		if s.Power < 0 || s.Wake < 0 {
			return fmt.Errorf("%w: state %d negative power/wake", ErrBadModel, i)
		}
		prev = s.Enter
	}
	return nil
}

// stateWeight returns e^{−λτᵢ} − e^{−λτᵢ₊₁} for i < n and e^{−λτₙ} for the
// last state: the probability that an exponential idle period of rate λ ends
// while the server occupies state i.
func (m Model) stateWeight(i int) float64 {
	w := math.Exp(-m.Lambda * m.States[i].Enter)
	if i+1 < len(m.States) {
		w -= math.Exp(-m.Lambda * m.States[i+1].Enter)
	}
	return w
}

// wakeMoment returns E[D^α] = Σᵢ wᵢ^α · weight(i): the α-th moment of the
// wake-up delay experienced by the job that ends an idle period.
func (m Model) wakeMoment(alpha float64) float64 {
	var sum float64
	for i, s := range m.States {
		if s.Wake == 0 {
			continue
		}
		sum += math.Pow(s.Wake, alpha) * m.stateWeight(i)
	}
	return sum
}

// CycleLength returns L, the renewal cycle length from the Appendix:
//
//	L = [µf + µfλ·E[D]] / (λ(µf − λ))
//
// where E[D] is the mean wake delay per cycle.
func (m Model) CycleLength() (float64, error) {
	if err := m.Validate(); err != nil {
		return 0, err
	}
	muf := m.Mu * m.F
	return (muf + muf*m.Lambda*m.wakeMoment(1)) / (m.Lambda * (muf - m.Lambda)), nil
}

// MeanPower returns E[P] from the Appendix:
//
//	E[P] = (1/λL)·[Σᵢ Pᵢ(e^{−λτᵢ} − e^{−λτᵢ₊₁}) + Pₙe^{−λτₙ}]
//	       + P₀·(1 − e^{−λτ₁}/(λL))
//
// With no sleep states the server idles at P₀ and E[P] = P₀.
func (m Model) MeanPower() (float64, error) {
	L, err := m.CycleLength()
	if err != nil {
		return 0, err
	}
	if len(m.States) == 0 {
		return m.ActivePower, nil
	}
	lamL := m.Lambda * L
	var sleep float64
	for i, s := range m.States {
		sleep += s.Power * m.stateWeight(i)
	}
	tau1 := m.States[0].Enter
	return sleep/lamL + m.ActivePower*(1-math.Exp(-m.Lambda*tau1)/lamL), nil
}

// MeanResponse returns E[R] from the Appendix:
//
//	E[R] = 1/(µf − λ) + (2E[D] + λE[D²]) / (2(1 + λE[D]))
//
// Welch's exceptional-first-service result applied to the wake delay D.
func (m Model) MeanResponse() (float64, error) {
	if err := m.Validate(); err != nil {
		return 0, err
	}
	base := m.QueueingResponse()
	d1 := m.wakeMoment(1)
	d2 := m.wakeMoment(2)
	return base + (2*d1+m.Lambda*d2)/(2*(1+m.Lambda*d1)), nil
}

// QueueingResponse returns 1/(µf − λ), the M/M/1 mean response without
// wake-ups. MeanResponse adds a wake term to exactly this float, and the term
// is non-negative whenever every state weight is (always with at most one
// state), so it bounds MeanResponse from below. The conversion keeps µf
// rounded on its own, so no compiler fuses the product into the subtraction.
// The model must be valid.
func (m Model) QueueingResponse() float64 {
	return 1 / (float64(m.Mu*m.F) - m.Lambda)
}

// TailResponse returns Pr(R ≥ d) from the Appendix:
//
//	Pr(R ≥ d) = [e^{−(µf−λ)d} − w₁(µf−λ)e^{−d/w₁}] / (1 − w₁(µf−λ))
//
// which is exact for a single low-power state entered immediately (τ₁ = 0)
// with exponentially distributed wake-up latency of mean w₁; it is the tail
// of Exp(µf−λ) + Exp(1/w₁). With w₁ = 0 it reduces to the M/M/1 tail
// e^{−(µf−λ)d}. Models with more than one state are rejected — the paper
// gives no closed form for that case (use the simulator).
func (m Model) TailResponse(d float64) (float64, error) {
	if err := m.Validate(); err != nil {
		return 0, err
	}
	if len(m.States) > 1 {
		return 0, fmt.Errorf("%w: tail formula needs ≤1 sleep state, have %d",
			ErrBadModel, len(m.States))
	}
	if len(m.States) == 1 && m.States[0].Enter != 0 {
		return 0, fmt.Errorf("%w: tail formula needs τ₁ = 0, have %g",
			ErrBadModel, m.States[0].Enter)
	}
	if d <= 0 {
		return 1, nil
	}
	rate := m.Mu*m.F - m.Lambda
	w1 := 0.0
	if len(m.States) == 1 {
		w1 = m.States[0].Wake
	}
	if w1 == 0 {
		return math.Exp(-rate * d), nil
	}
	denom := 1 - w1*rate
	if math.Abs(denom) < 1e-12 {
		// Degenerate equal-rate case: Erlang(2) tail.
		return (1 + rate*d) * math.Exp(-rate*d), nil
	}
	return (math.Exp(-rate*d) - w1*rate*math.Exp(-d/w1)) / denom, nil
}

// ResponseQuantile returns the p-quantile (0 < p < 1) of the response time
// by bisecting TailResponse; e.g. p = 0.95 gives the 95th percentile.
func (m Model) ResponseQuantile(p float64) (float64, error) {
	if p <= 0 || p >= 1 {
		return 0, fmt.Errorf("%w: quantile p=%g outside (0,1)", ErrBadModel, p)
	}
	if _, err := m.TailResponse(1); err != nil {
		return 0, err
	}
	target := 1 - p
	lo, hi := 0.0, 1/(m.Mu*m.F-m.Lambda)
	for {
		tail, _ := m.TailResponse(hi)
		if tail < target || hi > 1e18 {
			break
		}
		hi *= 2
	}
	for i := 0; i < 200; i++ {
		mid := (lo + hi) / 2
		tail, _ := m.TailResponse(mid)
		if tail > target {
			lo = mid
		} else {
			hi = mid
		}
	}
	return (lo + hi) / 2, nil
}

// ResidencyFractions returns the long-run fraction of time the system
// spends serving-or-waking ("active"), idling before the first sleep state
// ("pre-sleep"), and resident in each low-power state (indexed as the
// States slice), derived from the same renewal-cycle analysis as E[P].
// The fractions sum to 1.
func (m Model) ResidencyFractions() (active, preSleep float64, states []float64, err error) {
	L, err := m.CycleLength()
	if err != nil {
		return 0, 0, nil, err
	}
	lamL := m.Lambda * L
	states = make([]float64, len(m.States))
	if len(m.States) == 0 {
		// Idle time is the whole non-busy fraction; with no sleep states
		// the server idles "actively".
		rhoEff := m.Lambda / (m.Mu * m.F)
		return rhoEff, 1 - rhoEff, states, nil
	}
	var sleepTotal float64
	for i := range m.States {
		states[i] = m.stateWeight(i) / lamL
		sleepTotal += states[i]
	}
	tau1 := m.States[0].Enter
	preSleep = (1 - math.Exp(-m.Lambda*tau1)) / lamL
	active = 1 - sleepTotal - preSleep
	return active, preSleep, states, nil
}

// MG1Model extends Model with a general service-time distribution given by
// its squared coefficient of variation; the Appendix notes E[R] and E[P]
// extend to general service times.
type MG1Model struct {
	Model
	// ServiceSCV is Cs², the squared coefficient of variation of service
	// times (1 for exponential).
	ServiceSCV float64
}

// MeanResponse returns E[R] for the M/G/1 queue with wake-up delays:
// Pollaczek–Khinchine waiting plus service plus Welch's setup term.
func (m MG1Model) MeanResponse() (float64, error) {
	if err := m.Validate(); err != nil {
		return 0, err
	}
	if m.ServiceSCV < 0 {
		return 0, fmt.Errorf("%w: service SCV %g", ErrBadModel, m.ServiceSCV)
	}
	es := 1 / (m.Mu * m.F)
	es2 := (1 + m.ServiceSCV) * es * es
	rho := m.Lambda * es
	pk := m.Lambda * es2 / (2 * (1 - rho))
	d1 := m.wakeMoment(1)
	d2 := m.wakeMoment(2)
	setup := (2*d1 + m.Lambda*d2) / (2 * (1 + m.Lambda*d1))
	return es + pk + setup, nil
}

// MeanPower returns E[P] for the M/G/1 queue with wake-up delays. The
// Appendix power formula depends on the service distribution only through
// its mean (busy fraction), so it carries over unchanged.
func (m MG1Model) MeanPower() (float64, error) { return m.Model.MeanPower() }
