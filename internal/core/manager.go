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
	cfg, err := p.Config(m.Profile, m.FreqExponent)
	if err != nil {
		return policy.Evaluation{}, err
	}
	ev := queue.GetEvaluator(jobs)
	defer ev.Release()
	met, err := simulate(ev, cfg)
	if err != nil {
		return policy.Evaluation{}, err
	}
	return policy.Evaluation{Policy: p, Metrics: met, Feasible: m.QoS.Satisfied(met)}, nil
}

// simulate is the kernel Evaluate and Select share: it scores cfg on the
// evaluator's stream.
func simulate(ev *queue.Evaluator, cfg queue.Config) (policy.Metrics, error) {
	sum, err := ev.Evaluate(cfg)
	if err != nil {
		return policy.Metrics{}, err
	}
	return policy.Metrics{
		AvgPower:     sum.AvgPower,
		MeanResponse: sum.MeanResponse,
		P95Response:  sum.ResponseP95,
		P99Response:  sum.ResponseP99,
	}, nil
}

// Select returns the feasible policy with the lowest average power over the
// given job stream, or, when no policy is feasible, the one with the smallest
// QoS violation — the closest the server can get to restoring its target.
// Among equal powers (or violations) the policy Space.Policies lists first
// wins. rho is the (predicted) utilization, used only to set the frequency
// grid's stability floor.
//
// The answer is the exhaustive one — every candidate simulated — but Select
// simulates only candidates that can still win. It resolves every
// candidate's configuration once, then bounds every candidate's power and
// mean response from below with one wake-free pass (queue.WakeFree) per grid
// frequency, from f = 1 down. Under MeanResponseQoS a candidate whose
// response bound misses the budget is never simulated, and the passes stop
// at the top of the response-pruned prefix: the low frequencies at which no
// plan can meet the budget. The rest are simulated in increasing power-bound
// order, and the search stops at the first bound above the best feasible
// power found. It runs on the calling goroutine and allocates nothing in
// steady state.
//
// The winner carries what the QoS reads. Under MeanResponseQoS candidates are
// scored from response moments alone, so AvgPower, MeanResponse and Feasible
// match Evaluate bit for bit while P95Response and P99Response read 0; every
// other QoS gets all four metrics. Call Evaluate for a policy's full metrics.
func (m *Manager) Select(jobs []queue.Job, rho float64) (policy.Evaluation, error) {
	best, _, err := m.selectCounted(jobs, rho)
	return best, err
}

// work counts what one selection did: the candidates it simulated and the
// wake-free passes it ran.
type work struct{ simulated, passes int }

// selectCounted is Select that also reports its work.
func (m *Manager) selectCounted(jobs []queue.Job, rho float64) (policy.Evaluation, work, error) {
	if err := m.Validate(); err != nil {
		return policy.Evaluation{}, work{}, err
	}
	if len(jobs) == 0 {
		return policy.Evaluation{}, work{}, ErrNoJobs
	}
	s := m.getSearch(rho, m.FreqExponent)
	defer s.release()
	ev := queue.GetEvaluator(jobs)
	defer ev.Release()
	// A QoS that reads no tail scores moments only: no candidate's response
	// sample is stored or ordered.
	ev.SetRetainResponses(readsTail(m.QoS))
	score := func(i int) (policy.Metrics, error) { return simulate(ev, s.cfg[i]) }

	// Resolving every candidate also finds the configuration error the
	// exhaustive search would return: the lowest-index candidate that
	// fails, unless candidate 0 resolves and then fails on the stream.
	bad, wmax := s.resolve(m)
	if bad >= 0 {
		if bad > 0 {
			if _, err := score(0); err != nil {
				return policy.Evaluation{}, work{simulated: 1}, err
			}
		}
		_, err := s.candidate(m, bad).Config(m.Profile, m.FreqExponent)
		return policy.Evaluation{}, work{}, err
	}
	lo := s.boundGrid(m, jobs, wmax)
	best, n, err := s.run(m.QoS, score, func() {
		for fi := lo - 1; fi >= 0; fi-- {
			s.boundAt(jobs, fi)
		}
	})
	w := work{simulated: n, passes: s.passes}
	if err != nil {
		return policy.Evaluation{}, w, err
	}
	return s.evaluation(m, best), w, nil
}

// resolve builds every candidate's configuration into s.cfg as
// policy.Policy.Config would, but resolves each plan's states, wake
// latencies and validation once and each frequency's powers once. It
// returns the lowest candidate index whose configuration Config rejects, or
// −1, and the largest wake latency of any plan.
func (s *search) resolve(m *Manager) (bad int, wmax float64) {
	plans, nf := m.Space.Plans, len(s.freqs)
	np := 0
	for _, pl := range plans {
		np += len(pl.Phases)
	}
	s.cfg = resize(s.cfg, len(plans)*nf)
	s.phases = resize(s.phases, np*nf)
	// Row 0 of the phase table, one row per frequency, is the template the
	// other rows copy. A plan that fails at every frequency fails first at
	// its lowest index, so only the plans before it can fail lower.
	bad, firstBad := -1, len(plans)
	tmpl, off := s.phases[:np], 0
	for pi, pl := range plans {
		ok := pl.Validate() == nil
		for _, ph := range pl.Phases {
			w := m.Profile.Wake(ph.State)
			tmpl[off] = queue.SleepPhase{Name: ph.State.String(), WakeLatency: w, EnterAfter: ph.Enter}
			off++
			ok = ok && !(w < 0)
			wmax = max(wmax, w)
		}
		if !ok && bad < 0 {
			bad, firstBad = pi*nf, pi
		}
	}
	for fi, f := range s.freqs {
		pa := m.Profile.ActivePower(f)
		row := s.phases[fi*np : (fi+1)*np]
		copy(row, tmpl)
		valid := f > 0 && f <= 1 && !(pa < 0)
		off := 0
		for pi, pl := range plans[:firstBad] {
			phs := row[off : off+len(pl.Phases) : off+len(pl.Phases)]
			ok := valid
			for j, ph := range pl.Phases {
				phs[j].Power = m.Profile.SystemPower(ph.State, f)
				ok = ok && !(phs[j].Power < 0)
			}
			i := pi*nf + fi
			s.cfg[i] = queue.Config{Frequency: f, FreqExponent: m.FreqExponent, ActivePower: pa, IdlePower: pa, Phases: phs}
			if !ok && (bad < 0 || i < bad) {
				bad = i
			}
			off += len(pl.Phases)
		}
	}
	return bad, wmax
}

// boundGrid bounds every candidate from f = 1 down, one wake-free pass per
// frequency, and returns the lowest frequency index it bounded. Under
// MeanResponseQoS it stops after the first frequency whose ResponseFloor
// exceeds the budget, provided the grid's speeds are non-decreasing (f^β
// need not round monotonically): every frequency below has a speed no
// higher, so a floor no lower, and each of its candidates is infeasible.
// Their response bounds read +Inf until the fallback bounds them.
func (s *search) boundGrid(m *Manager, jobs []queue.Job, wmax float64) int {
	nf := len(s.freqs)
	s.wf.Reset(jobs)
	for pi := range m.Space.Plans {
		s.wf.Count(&s.cfg[pi*nf])
	}
	meanQoS, prune := m.QoS.(policy.MeanResponseQoS)
	slowest := s.cfg[0].Speed()
	for fi, prev := 1, slowest; fi < nf && prune; fi++ {
		v := s.cfg[fi].Speed()
		prune, prev = prev <= v, v
	}
	for fi := nf - 1; fi >= 0; fi-- {
		s.boundAt(jobs, fi)
		if prune && s.wf.ResponseFloor(slowest, wmax) > meanQoS.Budget {
			for i := 0; i < len(s.resp); i += nf {
				for j := i; j < i+fi; j++ {
					s.resp[j] = math.Inf(1)
				}
			}
			return fi
		}
	}
	return 0
}

// boundAt runs the wake-free pass at frequency index fi and bounds every
// plan there.
func (s *search) boundAt(jobs []queue.Job, fi int) {
	s.wf.Run(jobs, &s.cfg[fi])
	s.passes++
	for i := fi; i < len(s.cfg); i += len(s.freqs) {
		b := s.wf.Bound(&s.cfg[i])
		s.power[i], s.resp[i] = b.AvgPower, b.MeanResponse
	}
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
	defer s.release()
	// Each plan is validated, and its states' entry delays and wake
	// latencies resolved, once: a candidate's model needs only its
	// frequency's powers. The first invalid plan fails at its first
	// candidate.
	nf, badAt, planErr := len(s.freqs), len(s.state), error(nil)
	s.states = s.states[:0]
	for pi, pl := range m.Space.Plans {
		if err := pl.Validate(); err != nil && planErr == nil {
			badAt, planErr = pi*nf, err
		}
		s.states = appendStates(s.states, m.Profile, pl)
	}
	model := func(i int) analytic.Model {
		off := 0
		for _, pl := range m.Space.Plans[:i/nf] {
			off += len(pl.Phases)
		}
		pl := m.Space.Plans[i/nf]
		return analyticModel(m.Profile, pl, s.states[off:off+len(pl.Phases)], lambda, mu, s.freqs[i%nf])
	}
	// Bound in index order, surfacing the first error the exhaustive sweep
	// would meet.
	for i := range s.state {
		if i == badAt {
			return policy.Evaluation{}, planErr
		}
		am := model(i)
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
		return idealizedMetrics(model(i), needTail)
	}, nil)
	if err != nil {
		return policy.Evaluation{}, err
	}
	return s.evaluation(m, best), nil
}

// appendStates appends plan's analytic states with their entry delays and
// wake latencies resolved; analyticModel fills in their powers.
func appendStates(buf []analytic.SleepState, prof *power.Profile, plan policy.SleepPlan) []analytic.SleepState {
	for _, ph := range plan.Phases {
		buf = append(buf, analytic.SleepState{Enter: ph.Enter, Wake: prof.Wake(ph.State)})
	}
	return buf
}

// analyticModel is policy.Policy.AppendAnalyticModel at frequency f for a
// valid plan whose states appendStates resolved: it sets only their powers.
func analyticModel(prof *power.Profile, plan policy.SleepPlan, states []analytic.SleepState, lambda, mu, f float64) analytic.Model {
	for j, ph := range plan.Phases {
		states[j].Power = prof.SystemPower(ph.State, f)
	}
	return analytic.Model{Lambda: lambda, Mu: mu, F: f, ActivePower: prof.ActivePower(f), States: states}
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
