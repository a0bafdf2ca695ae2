package core

import (
	"errors"
	"fmt"
	"math"

	"sleepscale/internal/analytic"
	"sleepscale/internal/policy"
)

// SelectIdealizedRefined runs the idealized grid selection and then polishes
// the winning plan's frequency continuously: first the QoS-feasibility
// boundary is located by bisection (mean response is strictly decreasing in
// f), then the closed-form power is minimized over the feasible band with a
// golden-section search. This realizes §5.1.2 observation 3 — "if there is
// a way to adjust the frequency in runtime, one can rely simply on the
// idealized model without simulation" — which the paper leaves as future
// work. The power curve is a single bowl for the profiles modeled here;
// the refined result is cross-checked against the grid winner and the
// better of the two is returned.
func (m *Manager) SelectIdealizedRefined(lambda, mu float64) (policy.Evaluation, error) {
	gridBest, err := m.SelectIdealized(lambda, mu)
	if err != nil {
		return policy.Evaluation{}, err
	}
	refined, err := m.refinePlan(gridBest.Policy.Plan, lambda, mu)
	if err != nil {
		// Refinement is best-effort; the grid winner stands.
		return gridBest, nil
	}
	if refined.Feasible && refined.Metrics.AvgPower < gridBest.Metrics.AvgPower {
		return refined, nil
	}
	return gridBest, nil
}

// refinePlan finds the continuous minimum-power feasible frequency for one
// plan under the idealized model.
func (m *Manager) refinePlan(plan policy.SleepPlan, lambda, mu float64) (policy.Evaluation, error) {
	// One state buffer serves every step: the closed forms are cheap enough
	// that allocating a model per step would dominate them.
	var states []analytic.SleepState
	needTail := readsTail(m.QoS)
	evalAt := func(f float64) (policy.Metrics, error) {
		am, err := policy.Policy{Frequency: f, Plan: plan}.AppendAnalyticModel(m.Profile, lambda, mu, states[:0])
		if err != nil {
			return policy.Metrics{}, err
		}
		states = am.States
		return idealizedMetrics(am, needTail)
	}

	lo := lambda/mu + 1e-6 // stability floor (CPU-bound closed forms)
	hi := 1.0
	if lo >= hi {
		return policy.Evaluation{}, errors.New("core: no stable frequency band")
	}
	// Feasibility boundary: response metrics decrease in f, so the
	// feasible set is [fFeas, 1] (possibly empty).
	metHi, err := evalAt(hi)
	if err != nil {
		return policy.Evaluation{}, err
	}
	if !m.QoS.Satisfied(metHi) {
		return policy.Evaluation{}, fmt.Errorf("core: plan %q infeasible even at f=1", plan.Name)
	}
	fFeas := lo
	if metLo, err := evalAt(lo + 1e-9); err != nil || !m.QoS.Satisfied(metLo) {
		// Once the midpoint rounds to an end it can no longer move either
		// one: b and every a after the first were evaluated already, and
		// evalAt is deterministic. Only lo itself is unevaluated.
		a, b := lo, hi
		aSeen := false
		for i := 0; i < 100; i++ {
			mid := (a + b) / 2
			if mid == b || (mid == a && aSeen) {
				break
			}
			met, err := evalAt(mid)
			if err != nil || !m.QoS.Satisfied(met) {
				a, aSeen = mid, true
			} else {
				b = mid
			}
		}
		fFeas = b
	}

	// Golden-section minimization of power over [fFeas, 1].
	const invPhi = 0.6180339887498949
	a, b := fFeas, hi
	x1 := b - invPhi*(b-a)
	x2 := a + invPhi*(b-a)
	m1, err := evalAt(x1)
	if err != nil {
		return policy.Evaluation{}, err
	}
	m2, err := evalAt(x2)
	if err != nil {
		return policy.Evaluation{}, err
	}
	for i := 0; i < 120 && b-a > 1e-6; i++ {
		if m1.AvgPower <= m2.AvgPower {
			b, x2, m2 = x2, x1, m1
			x1 = b - invPhi*(b-a)
			m1, err = evalAt(x1)
		} else {
			a, x1, m1 = x1, x2, m2
			x2 = a + invPhi*(b-a)
			m2, err = evalAt(x2)
		}
		if err != nil {
			return policy.Evaluation{}, err
		}
	}
	f := (a + b) / 2
	met, err := evalAt(f)
	if err != nil {
		return policy.Evaluation{}, err
	}
	// Guard against non-unimodal corner cases: also consider the band ends.
	if metFeas, err := evalAt(fFeas); err == nil && metFeas.AvgPower < met.AvgPower &&
		m.QoS.Satisfied(metFeas) {
		f, met = fFeas, metFeas
	}
	if metHi.AvgPower < met.AvgPower {
		f, met = hi, metHi
	}
	if math.IsNaN(met.AvgPower) {
		return policy.Evaluation{}, errors.New("core: refinement produced NaN")
	}
	return policy.Evaluation{
		Policy:   policy.Policy{Frequency: f, Plan: plan},
		Metrics:  met,
		Feasible: m.QoS.Satisfied(met),
	}, nil
}
