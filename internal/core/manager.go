// Package core implements SleepScale itself (§5): the policy manager that
// selects, against observed workload statistics, the cheapest candidate
// (frequency, low-power state) policy meeting the QoS constraint —
// characterizing only the candidates that can still win — and the
// epoch-driven runtime that couples the manager to a utilization predictor
// over real traces.
package core

import (
	"errors"
	"fmt"
	"math"

	"sleepscale/internal/analytic"
	"sleepscale/internal/policy"
	"sleepscale/internal/power"
	"sleepscale/internal/queue"
)

// analyticUnstable aliases the analytic package's stability error for the
// idealized sweep, which simply skips infeasible frequencies.
var analyticUnstable = analytic.ErrUnstable

// Manager is the policy manager of §5.1.1: it owns the candidate space, the
// power profile, and the QoS constraint, and selects the minimum-power
// feasible policy by simulating candidates over the same job stream (common
// random numbers, the rescaled-log replay of §5.2.1). A Manager holds only
// configuration, so concurrent selections may share one.
type Manager struct {
	// Profile supplies state powers and wake latencies.
	Profile *power.Profile
	// FreqExponent is the workload's β (1 = CPU-bound).
	FreqExponent float64
	// Space is the candidate grid.
	Space policy.Space
	// QoS is the constraint policies must satisfy.
	QoS policy.QoS
}

// ErrNoJobs reports a selection attempted with an empty evaluation stream.
var ErrNoJobs = errors.New("core: no jobs to evaluate policies against")

// Validate checks the manager's configuration.
func (m *Manager) Validate() error {
	if m.Profile == nil {
		return fmt.Errorf("core: manager needs a power profile")
	}
	if m.QoS == nil {
		return fmt.Errorf("core: manager needs a QoS constraint")
	}
	if len(m.Space.Plans) == 0 {
		return fmt.Errorf("core: manager needs at least one sleep plan")
	}
	if m.FreqExponent < 0 || m.FreqExponent > 1 {
		return fmt.Errorf("core: frequency exponent %g outside [0,1]", m.FreqExponent)
	}
	return nil
}

// Evaluate runs Algorithm 1 for one policy over the given job stream and
// reports its full metrics and feasibility. Select scores the candidates it
// simulates with the same kernel, so they match Evaluate bit for bit.
func (m *Manager) Evaluate(jobs []queue.Job, p policy.Policy) (policy.Evaluation, error) {
	ev := queue.GetEvaluator(jobs, queue.Options{})
	defer ev.Release()
	e, _, err := m.evaluateInto(ev, p, nil)
	return e, err
}

// evaluateInto is the zero-allocation inner loop of Select: it resolves the
// policy's configuration into the scratch phase buffer, scores it on the
// evaluator, and hands the (possibly grown) buffer back for the next
// candidate.
func (m *Manager) evaluateInto(ev *queue.Evaluator, p policy.Policy, buf []queue.SleepPhase) (policy.Evaluation, []queue.SleepPhase, error) {
	cfg, err := p.AppendConfig(m.Profile, m.FreqExponent, buf[:0])
	if err != nil {
		return policy.Evaluation{}, buf, err
	}
	sum, err := ev.Evaluate(cfg)
	if err != nil {
		return policy.Evaluation{}, cfg.Phases, err
	}
	met := policy.Metrics{
		AvgPower:     sum.AvgPower,
		MeanResponse: sum.MeanResponse,
		P95Response:  sum.ResponseP95,
		P99Response:  sum.ResponseP99,
	}
	return policy.Evaluation{Policy: p, Metrics: met, Feasible: m.QoS.Satisfied(met)}, cfg.Phases, nil
}

// Select returns the feasible policy with the lowest average power over the
// given job stream, or, when no policy is feasible, the one with the smallest
// QoS violation — the closest the server can get to restoring its target.
// Among equal powers (or violations) the policy Space.Policies lists first
// wins. rho is the (predicted) utilization, used only to set the frequency
// grid's stability floor.
//
// The answer is the exhaustive one — every candidate simulated — but Select
// simulates only candidates that can still win. One wake-free pass per grid
// frequency (queue.WakeFree) bounds every candidate's power and mean
// response from below. Under MeanResponseQoS a candidate whose response
// bound misses the budget is never simulated; the rest are simulated in
// increasing power-bound order, and the search stops at the first bound
// above the best feasible power found. It runs on the calling goroutine and
// allocates nothing in steady state.
//
// The winner carries what the QoS reads. Under MeanResponseQoS candidates are
// scored from response moments alone, so AvgPower, MeanResponse and Feasible
// match Evaluate bit for bit while P95Response and P99Response read 0; every
// other QoS gets all four metrics. Call Evaluate for a policy's full metrics.
func (m *Manager) Select(jobs []queue.Job, rho float64) (policy.Evaluation, error) {
	best, _, err := m.selectCounted(jobs, rho)
	return best, err
}

// selectCounted is Select that also reports how many candidates it
// simulated.
func (m *Manager) selectCounted(jobs []queue.Job, rho float64) (policy.Evaluation, int, error) {
	if err := m.Validate(); err != nil {
		return policy.Evaluation{}, 0, err
	}
	if len(jobs) == 0 {
		return policy.Evaluation{}, 0, ErrNoJobs
	}
	s := m.getSearch(rho, m.FreqExponent)
	defer searchPool.Put(s)
	ev := queue.GetEvaluator(jobs, queue.Options{})
	defer ev.Release()
	// A QoS that reads no tail scores moments only: no candidate's response
	// sample is stored or ordered.
	ev.SetRetainResponses(readsTail(m.QoS))
	score := func(i int) (policy.Metrics, error) {
		e, buf, err := m.evaluateInto(ev, s.candidate(m, i), s.phases)
		s.phases = buf
		return e.Metrics, err
	}

	// Bound every candidate, frequency by frequency. Resolving each one's
	// configuration here also finds the configuration error the exhaustive
	// search would return: the lowest-index candidate that fails, unless a
	// candidate before it resolves and then fails on the stream.
	nf := len(s.freqs)
	errIdx, firstErr := -1, error(nil)
	for fi, f := range s.freqs {
		passed := false
		for pi, plan := range m.Space.Plans {
			i := pi*nf + fi
			cfg, err := policy.Policy{Frequency: f, Plan: plan}.AppendConfig(m.Profile, m.FreqExponent, s.phases[:0])
			if err != nil {
				if errIdx < 0 || i < errIdx {
					errIdx, firstErr = i, err
				}
				continue
			}
			s.phases = cfg.Phases
			if !passed {
				s.wf.Run(jobs, &cfg)
				passed = true
			}
			b := s.wf.Bound(&cfg)
			s.power[i], s.resp[i] = b.AvgPower, b.MeanResponse
		}
	}
	if errIdx >= 0 {
		if errIdx > 0 {
			if _, err := score(0); err != nil {
				return policy.Evaluation{}, 1, err
			}
		}
		return policy.Evaluation{}, 0, firstErr
	}
	best, n, err := s.run(m.QoS, score)
	if err != nil {
		return policy.Evaluation{}, n, err
	}
	return s.evaluation(m, best), n, nil
}

// SelectIdealized is the §4 idealized model: it selects as Select does, but
// scores candidates with the closed-form Appendix results for Poisson(λ)
// arrivals and exponential service at maximum rate µ, with no simulation.
// Policies whose metrics the closed forms cannot produce under the
// configured QoS (multi-state plans under any QoS that reads the tail) are
// rejected with an error, whether or not they could win.
//
// It shares Select's search with closed-form bounds: 1/(µf − λ) bounds the
// mean response, and P_min + (P₀ − P_min)·λ/(µf) the power, since the server
// is busy a λ/(µf) share of the time and idles at P_min or more otherwise.
func (m *Manager) SelectIdealized(lambda, mu float64) (policy.Evaluation, error) {
	if err := m.Validate(); err != nil {
		return policy.Evaluation{}, err
	}
	if lambda <= 0 || mu <= 0 || lambda >= mu {
		return policy.Evaluation{}, fmt.Errorf("core: idealized needs 0 < λ < µ, got λ=%g µ=%g", lambda, mu)
	}
	needTail := readsTail(m.QoS)
	s := m.getSearch(lambda/mu, 1) // closed forms assume CPU-bound scaling
	defer searchPool.Put(s)
	model := func(i int) (analytic.Model, error) {
		am, err := s.candidate(m, i).AppendAnalyticModel(m.Profile, lambda, mu, s.states[:0])
		s.states = am.States
		return am, err
	}
	// Bound in index order, surfacing the first error the exhaustive sweep
	// would meet.
	for i := range s.state {
		am, err := model(i)
		if err != nil {
			return policy.Evaluation{}, err
		}
		if err := am.Validate(); err != nil {
			if errors.Is(err, analyticUnstable) {
				s.state[i] = skipped // below the stability floor after rounding
				continue
			}
			return policy.Evaluation{}, err
		}
		if needTail {
			// ResponseQuantile fails exactly when the tail formula does.
			if _, err := am.TailResponse(1); err != nil {
				return policy.Evaluation{}, fmt.Errorf("core: idealized percentile QoS for %v: %w", s.candidate(m, i), err)
			}
		}
		s.power[i], s.resp[i] = idealizedBounds(am)
	}
	best, _, err := s.run(m.QoS, func(i int) (policy.Metrics, error) {
		am, err := model(i)
		if err != nil {
			return policy.Metrics{}, err
		}
		return idealizedMetrics(am, needTail)
	})
	if err != nil {
		return policy.Evaluation{}, err
	}
	return s.evaluation(m, best), nil
}

// idealizedMetrics scores a valid model with the closed forms.
func idealizedMetrics(am analytic.Model, needTail bool) (policy.Metrics, error) {
	er, err := am.MeanResponse()
	if err != nil {
		return policy.Metrics{}, err
	}
	ep, err := am.MeanPower()
	if err != nil {
		return policy.Metrics{}, err
	}
	met := policy.Metrics{AvgPower: ep, MeanResponse: er}
	if needTail {
		if met.P95Response, err = am.ResponseQuantile(0.95); err != nil {
			return policy.Metrics{}, err
		}
		if met.P99Response, err = am.ResponseQuantile(0.99); err != nil {
			return policy.Metrics{}, err
		}
	}
	return met, nil
}

// idealizedBounds bounds a valid model's MeanPower and MeanResponse from
// below.
//
// Response: MeanResponse adds a non-negative wake term to QueueingResponse's
// float when the model has at most one state, so that bound is exact with no
// slack. With more states a state weight is a difference of two exponentials
// that rounding could push below 0, so the bound is MeanResponse itself.
//
// Power: with q = e^{−λτ₁}/(λL) ≤ 1 − λ/(µf) the idle share spent in sleep
// states, E[P] = P₀ − q(P₀ − P_min') ≥ P_min + (P₀ − P_min)·λ/(µf), where
// P_min' is the lowest state power and P_min = min(P₀, P_min'); with
// P₀ < P_min the bound is P₀. While λ(µf − λ), the cycle length's
// denominator, is a normal float, MeanPower's rounding with k states and
// every exponential within 2u of its value stays within (24 + 9k +
// 8k·λ·w_max)·u of P_max, and the bound's own within 4u; the slack rounds
// that up to 32(k+1)(1 + λ·w_max)·u·P_max. Outside that range there is no
// power bound.
func idealizedBounds(am analytic.Model) (powerLB, respLB float64) {
	if len(am.States) <= 1 {
		respLB = am.QueueingResponse()
	} else {
		respLB, _ = am.MeanResponse()
	}
	p0 := am.ActivePower
	pmin, pmax, wmax := p0, p0, 0.0
	for _, st := range am.States {
		pmin, pmax, wmax = min(pmin, st.Power), max(pmax, st.Power), max(wmax, st.Wake)
	}
	powerLB = math.Inf(-1)
	if d := am.Lambda * (am.Mu*am.F - am.Lambda); d >= 0x1p-1022 && d <= math.MaxFloat64 {
		k := float64(len(am.States))
		powerLB = pmin + (p0-pmin)*(am.Lambda/(am.Mu*am.F)) -
			32*(k+1)*(1+am.Lambda*wmax)*0x1p-53*pmax
	}
	if math.IsNaN(powerLB) {
		powerLB = math.Inf(-1)
	}
	if math.IsNaN(respLB) {
		respLB = math.Inf(-1)
	}
	return powerLB, respLB
}

// readsTail reports whether qos may read a response percentile. Only
// MeanResponseQoS is known to read the mean alone; every other QoS, a
// caller-defined one included, gets exact tails.
func readsTail(qos policy.QoS) bool {
	_, meanOnly := qos.(policy.MeanResponseQoS)
	return !meanOnly
}
