// Package core implements SleepScale itself (§5): the policy manager that
// characterizes every candidate (frequency, low-power state) policy against
// observed workload statistics and selects the cheapest one meeting the QoS
// constraint, and the epoch-driven runtime that couples the manager to a
// utilization predictor over real traces.
package core

import (
	"errors"
	"fmt"
	"math"

	"sleepscale/internal/analytic"
	"sleepscale/internal/par"
	"sleepscale/internal/policy"
	"sleepscale/internal/power"
	"sleepscale/internal/queue"
)

// analyticUnstable aliases the analytic package's stability error for the
// idealized sweep, which simply skips infeasible frequencies.
var analyticUnstable = analytic.ErrUnstable

// Manager is the policy manager of §5.1.1: it owns the candidate space, the
// power profile, and the QoS constraint, and selects the minimum-power
// feasible policy by simulating each candidate over the same job stream
// (common random numbers, the rescaled-log replay of §5.2.1).
type Manager struct {
	// Profile supplies state powers and wake latencies.
	Profile *power.Profile
	// FreqExponent is the workload's β (1 = CPU-bound).
	FreqExponent float64
	// Space is the candidate grid.
	Space policy.Space
	// QoS is the constraint policies must satisfy.
	QoS policy.QoS
	// Parallelism bounds the persistent worker-pool executors a selection
	// may use; 0 (or anything above the pool size) uses the whole
	// process-wide pool — GOMAXPROCS executors — and 1 scores candidates
	// serially on the calling goroutine. The selected policy is identical
	// for every setting.
	Parallelism int
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
// reports its metrics and feasibility. It is the thin public wrapper around
// the pooled-evaluator path Select uses per worker; callers scoring many
// policies should prefer Select, which amortizes the simulation buffers.
func (m *Manager) Evaluate(jobs []queue.Job, p policy.Policy) (policy.Evaluation, error) {
	ev := queue.GetEvaluator(jobs, queue.Options{})
	defer ev.Release()
	e, _, err := m.evaluateInto(ev, p, nil)
	return e, err
}

// evaluateInto is the zero-allocation inner loop of Select: it resolves the
// policy's configuration into the scratch phase buffer, scores it on the
// worker's evaluator, and hands the (possibly grown) buffer back for the next
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

// Select evaluates every policy in the space against the same job stream and
// returns the feasible policy with the lowest average power, plus all
// evaluations. rho is the (predicted) utilization, used only to set the
// frequency grid's stability floor. When no policy is feasible the policy
// with the smallest QoS violation is returned — the closest the server can
// get to restoring its target.
//
// The evaluations carry what the QoS reads. Under MeanResponseQoS the
// candidates are scored from response moments alone, so AvgPower,
// MeanResponse and Feasible match Evaluate bit for bit while P95Response
// and P99Response read 0; every other QoS gets all four metrics. Call
// Evaluate for a policy's full metrics.
func (m *Manager) Select(jobs []queue.Job, rho float64) (policy.Evaluation, []policy.Evaluation, error) {
	if err := m.Validate(); err != nil {
		return policy.Evaluation{}, nil, err
	}
	if len(jobs) == 0 {
		return policy.Evaluation{}, nil, ErrNoJobs
	}
	pols := m.Space.Policies(rho, m.FreqExponent)
	evals := make([]policy.Evaluation, len(pols))
	errs := make([]error, len(pols))

	// Candidates are scored on the persistent worker pool: each pool
	// executor lazily acquires one pooled evaluator and one phase scratch
	// buffer (executor slots are sequential, so the per-slot state needs no
	// locking), and candidate evaluation allocates nothing in steady state.
	// Parallelism bounds the executors; every bound — including 1, the
	// inline serial loop — scores candidates into per-index slots, so the
	// selection is bit-identical regardless of pool size or interleaving.
	// A QoS that reads no tail scores moments only: no candidate's response
	// sample is stored or ordered.
	tail := readsTail(m.QoS)
	pool := par.Default()
	workers := m.Parallelism
	if workers <= 0 || workers > pool.Size() {
		workers = pool.Size()
	}
	if workers > len(pols) {
		workers = len(pols)
	}
	type workerState struct {
		ev     *queue.Evaluator
		phases []queue.SleepPhase
	}
	states := make([]workerState, workers)
	// Deferred so the evaluators return to their pool even when a candidate
	// evaluation panics (pool.Run re-raises it on this goroutine).
	defer func() {
		for _, st := range states {
			if st.ev != nil {
				st.ev.Release()
			}
		}
	}()
	pool.Run(len(pols), workers, func(w, i int) {
		st := &states[w]
		if st.ev == nil {
			st.ev = queue.GetEvaluator(jobs, queue.Options{})
			st.ev.SetRetainResponses(tail)
		}
		evals[i], st.phases, errs[i] = m.evaluateInto(st.ev, pols[i], st.phases)
	})
	for _, err := range errs {
		if err != nil {
			return policy.Evaluation{}, nil, err
		}
	}
	best, err := pickBest(evals, m.QoS)
	if err != nil {
		return policy.Evaluation{}, nil, err
	}
	return best, evals, nil
}

// SelectIdealized is the §4 idealized model: it scores every candidate with
// the closed-form Appendix results for Poisson(λ) arrivals and exponential
// service at maximum rate µ, with no simulation. Policies whose metrics the
// closed forms cannot produce under the configured QoS (multi-state plans
// under any QoS that reads the tail) are rejected with an error.
func (m *Manager) SelectIdealized(lambda, mu float64) (policy.Evaluation, []policy.Evaluation, error) {
	if err := m.Validate(); err != nil {
		return policy.Evaluation{}, nil, err
	}
	if lambda <= 0 || mu <= 0 || lambda >= mu {
		return policy.Evaluation{}, nil, fmt.Errorf("core: idealized needs 0 < λ < µ, got λ=%g µ=%g", lambda, mu)
	}
	needTail := readsTail(m.QoS)
	rho := lambda / mu
	pols := m.Space.Policies(rho, 1) // closed forms assume CPU-bound scaling
	evals := make([]policy.Evaluation, 0, len(pols))
	for _, p := range pols {
		am, err := p.AnalyticModel(m.Profile, lambda, mu)
		if err != nil {
			return policy.Evaluation{}, nil, err
		}
		if err := am.Validate(); err != nil {
			if errors.Is(err, analyticUnstable) {
				continue // below the stability floor after rounding; skip
			}
			return policy.Evaluation{}, nil, err
		}
		er, err := am.MeanResponse()
		if err != nil {
			return policy.Evaluation{}, nil, err
		}
		ep, err := am.MeanPower()
		if err != nil {
			return policy.Evaluation{}, nil, err
		}
		met := policy.Metrics{AvgPower: ep, MeanResponse: er}
		if needTail {
			p95, err := am.ResponseQuantile(0.95)
			if err != nil {
				return policy.Evaluation{}, nil,
					fmt.Errorf("core: idealized percentile QoS for %v: %w", p, err)
			}
			p99, err := am.ResponseQuantile(0.99)
			if err != nil {
				return policy.Evaluation{}, nil, err
			}
			met.P95Response, met.P99Response = p95, p99
		}
		evals = append(evals, policy.Evaluation{
			Policy: p, Metrics: met, Feasible: m.QoS.Satisfied(met),
		})
	}
	best, err := pickBest(evals, m.QoS)
	if err != nil {
		return policy.Evaluation{}, nil, err
	}
	return best, evals, nil
}

// readsTail reports whether qos may read a response percentile. Only
// MeanResponseQoS is known to read the mean alone; every other QoS, a
// caller-defined one included, gets exact tails.
func readsTail(qos policy.QoS) bool {
	_, meanOnly := qos.(policy.MeanResponseQoS)
	return !meanOnly
}

// pickBest returns the feasible minimum-power evaluation, falling back to
// the minimum-violation one when nothing is feasible.
func pickBest(evals []policy.Evaluation, qos policy.QoS) (policy.Evaluation, error) {
	if len(evals) == 0 {
		return policy.Evaluation{}, fmt.Errorf("core: no candidate policies")
	}
	bestIdx := -1
	for i, e := range evals {
		if !e.Feasible {
			continue
		}
		if bestIdx < 0 || e.Metrics.AvgPower < evals[bestIdx].Metrics.AvgPower {
			bestIdx = i
		}
	}
	if bestIdx >= 0 {
		return evals[bestIdx], nil
	}
	// Nothing feasible: minimize the violation.
	bestIdx = 0
	bestV := math.Inf(1)
	for i, e := range evals {
		if v := qos.Violation(e.Metrics); v < bestV {
			bestV, bestIdx = v, i
		}
	}
	return evals[bestIdx], nil
}
