package core

import (
	"errors"
	"fmt"
	"math"

	"sleepscale/internal/policy"
	"sleepscale/internal/queue"
)

// exhaustiveSelect is the reference Select: it scores every candidate of
// Space.Policies with Evaluate and applies pickBest. Under MeanResponseQoS
// the evaluations carry no tail, as Select's do.
func exhaustiveSelect(m *Manager, jobs []queue.Job, rho float64) (policy.Evaluation, []policy.Evaluation, error) {
	if err := m.Validate(); err != nil {
		return policy.Evaluation{}, nil, err
	}
	if len(jobs) == 0 {
		return policy.Evaluation{}, nil, ErrNoJobs
	}
	pols := m.Space.Policies(rho, m.FreqExponent)
	evals := make([]policy.Evaluation, len(pols))
	for i, p := range pols {
		e, err := m.Evaluate(jobs, p)
		if err != nil {
			return policy.Evaluation{}, nil, err
		}
		if !readsTail(m.QoS) {
			e.Metrics.P95Response, e.Metrics.P99Response = 0, 0
		}
		evals[i] = e
	}
	best, err := pickBest(evals, m.QoS)
	return best, evals, err
}

// exhaustiveIdealized is the reference SelectIdealized: every candidate
// scored with the closed forms, then pickBest.
func exhaustiveIdealized(m *Manager, lambda, mu float64) (policy.Evaluation, []policy.Evaluation, error) {
	if err := m.Validate(); err != nil {
		return policy.Evaluation{}, nil, err
	}
	if lambda <= 0 || mu <= 0 || lambda >= mu {
		return policy.Evaluation{}, nil, fmt.Errorf("core: idealized needs 0 < λ < µ, got λ=%g µ=%g", lambda, mu)
	}
	needTail := readsTail(m.QoS)
	var evals []policy.Evaluation
	for _, p := range m.Space.Policies(lambda/mu, 1) {
		am, err := p.AnalyticModel(m.Profile, lambda, mu)
		if err != nil {
			return policy.Evaluation{}, nil, err
		}
		if err := am.Validate(); err != nil {
			if errors.Is(err, analyticUnstable) {
				continue
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
				return policy.Evaluation{}, nil, fmt.Errorf("core: idealized percentile QoS for %v: %w", p, err)
			}
			p99, err := am.ResponseQuantile(0.99)
			if err != nil {
				return policy.Evaluation{}, nil, err
			}
			met.P95Response, met.P99Response = p95, p99
		}
		evals = append(evals, policy.Evaluation{Policy: p, Metrics: met, Feasible: m.QoS.Satisfied(met)})
	}
	best, err := pickBest(evals, m.QoS)
	return best, evals, err
}

// pickBest is the exhaustive selection rule: the feasible minimum power,
// falling back to the minimum violation; the first evaluation wins ties.
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
	bestIdx = 0
	bestV := math.Inf(1)
	for i, e := range evals {
		if v := qos.Violation(e.Metrics); v < bestV {
			bestV, bestIdx = v, i
		}
	}
	return evals[bestIdx], nil
}

// sameEvaluation reports whether two evaluations name the same policy with
// bit-identical metrics and the same feasibility.
func sameEvaluation(a, b policy.Evaluation) bool {
	return a.Policy.Frequency == b.Policy.Frequency && a.Policy.Plan.Name == b.Policy.Plan.Name &&
		sameMetricBits(a.Metrics, b.Metrics) && a.Feasible == b.Feasible
}
