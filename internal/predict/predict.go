// Package predict implements the utilization predictors of §5.2.2: the
// naive-previous predictor, a (normalized) least-mean-square adaptive
// filter, the LMS + CUSUM change-point combination of Algorithm 2, a moving
// average baseline, and the offline genie the evaluation compares against.
//
// All predictors share the same epoch protocol: Predict() forecasts the
// utilization of the upcoming slot, then Observe(actual) feeds back the
// realized value once the slot ends. Forecasts are clamped to [0, 1].
package predict

import (
	"fmt"
	"math"
)

// Predictor forecasts per-slot utilization from causally observed history.
type Predictor interface {
	// Predict returns the forecast for the next slot.
	Predict() float64
	// Observe records the realized utilization of the slot just ended.
	Observe(actual float64)
	// Name identifies the predictor in reports ("NP", "LMS", "LC", …).
	Name() string
}

func clamp01(x float64) float64 {
	if x < 0 {
		return 0
	}
	if x > 1 {
		return 1
	}
	return x
}

// NaivePrevious predicts the most recently observed utilization: best at
// tracking sudden changes, worst at stationary noise.
type NaivePrevious struct {
	last float64
	seen bool
}

// NewNaivePrevious returns a naive-previous predictor.
func NewNaivePrevious() *NaivePrevious { return &NaivePrevious{} }

// Predict implements Predictor. Before any observation it returns 0.
func (n *NaivePrevious) Predict() float64 {
	if !n.seen {
		return 0
	}
	return clamp01(n.last)
}

// Observe implements Predictor.
func (n *NaivePrevious) Observe(actual float64) { n.last, n.seen = actual, true }

// Name implements Predictor.
func (n *NaivePrevious) Name() string { return "NP" }

// MovingAverage predicts the mean of the last p observations. The paper uses
// it only as the strawman LMS beats; it is here for the same comparison.
type MovingAverage struct {
	window []float64
	p      int
}

// NewMovingAverage returns a moving-average predictor over p slots.
func NewMovingAverage(p int) *MovingAverage {
	if p < 1 {
		p = 1
	}
	return &MovingAverage{p: p}
}

// Predict implements Predictor.
func (m *MovingAverage) Predict() float64 {
	if len(m.window) == 0 {
		return 0
	}
	var sum float64
	for _, x := range m.window {
		sum += x
	}
	return clamp01(sum / float64(len(m.window)))
}

// Observe implements Predictor.
func (m *MovingAverage) Observe(actual float64) {
	m.window = append(m.window, actual)
	if len(m.window) > m.p {
		m.window = m.window[1:]
	}
}

// Name implements Predictor.
func (m *MovingAverage) Name() string { return "MA" }

// LMS is a normalized least-mean-square adaptive filter over the last p
// observations. Weights are updated on every observation by the NLMS rule
// v ← v + µ·e·x/(ε+‖x‖²), which outperforms a fixed moving average because
// the weights adapt to the signal (§5.2.2).
type LMS struct {
	hist    int       // maximum history depth
	p       int       // current depth (< hist while recovering from reset)
	weights []float64 // weights[0] applies to the most recent observation
	history []float64 // history[0] is the most recent observation
	step    float64   // NLMS step size µ
}

// NewLMS returns an LMS predictor with history depth p (the paper uses 10)
// and NLMS step size step (0.5 is a robust default; must be in (0, 2) for
// stability).
func NewLMS(p int, step float64) (*LMS, error) {
	if p < 1 {
		return nil, fmt.Errorf("predict: history depth %d < 1", p)
	}
	if step <= 0 || step >= 2 {
		return nil, fmt.Errorf("predict: NLMS step %g outside (0,2)", step)
	}
	l := &LMS{hist: p, p: p, step: step, weights: make([]float64, p)}
	for i := range l.weights {
		l.weights[i] = 1 / float64(p)
	}
	return l, nil
}

// Predict implements Predictor: ρ'(t) = clamp(Σᵢ vᵢ·ρ(t−i)).
func (l *LMS) Predict() float64 {
	if len(l.history) == 0 {
		return 0
	}
	var sum float64
	n := min(l.p, len(l.history))
	var wsum float64
	for i := 0; i < n; i++ {
		sum += l.weights[i] * l.history[i]
		wsum += l.weights[i]
	}
	if n < l.p && wsum != 0 {
		// Not enough history yet: renormalize the visible weights so the
		// forecast is not biased toward zero.
		sum /= wsum
	}
	return clamp01(sum)
}

// Observe implements Predictor: computes the prediction error and applies
// the NLMS update.
func (l *LMS) Observe(actual float64) {
	if len(l.history) > 0 {
		pred := l.Predict()
		err := actual - pred
		n := min(l.p, len(l.history))
		var norm float64
		for i := 0; i < n; i++ {
			norm += l.history[i] * l.history[i]
		}
		const eps = 1e-6
		for i := 0; i < n; i++ {
			l.weights[i] += l.step * err * l.history[i] / (eps + norm)
		}
	}
	l.push(actual)
}

func (l *LMS) push(x float64) {
	if cap(l.history) < l.hist {
		// First pushes (or a restore that handed us a tight slice): move to
		// a full-depth buffer once, then shift in place forever after.
		h := make([]float64, len(l.history), l.hist)
		copy(h, l.history)
		l.history = h
	}
	if len(l.history) < l.hist {
		l.history = l.history[:len(l.history)+1]
	}
	copy(l.history[1:], l.history)
	l.history[0] = x
}

// Name implements Predictor.
func (l *LMS) Name() string { return "LMS" }

// weightSum reports Σ vᵢ over the active depth.
func (l *LMS) weightSum() float64 {
	var s float64
	for i := 0; i < l.p; i++ {
		s += l.weights[i]
	}
	return s
}

// LMSCUSUM is Algorithm 2: an LMS filter guarded by a CUSUM change-point
// test on the prediction error. When an abrupt utilization change is
// detected the look-back depth p resets to 1 (dropping the smoothing so the
// filter can track the change), then grows back to the maximum as long as no
// further change fires.
type LMSCUSUM struct {
	lms *LMS
	// CUSUM state: EWMA estimates of the absolute error and its square,
	// used as the adaptive threshold ("some adaptive threshold", line 8).
	ewmaAbs float64
	ewmaSq  float64
	warm    int
	// K is the alarm sensitivity in standard deviations, Floor the minimum
	// absolute error that can fire.
	K     float64
	Floor float64
	// alarms counts detected change points (exported via Alarms).
	alarms int
}

// NewLMSCUSUM returns an Algorithm 2 predictor with history depth p and NLMS
// step size step. Sensitivity defaults: K = 4 standard deviations with an
// absolute floor of 0.04 utilization.
func NewLMSCUSUM(p int, step float64) (*LMSCUSUM, error) {
	l, err := NewLMS(p, step)
	if err != nil {
		return nil, err
	}
	return &LMSCUSUM{lms: l, K: 4, Floor: 0.04}, nil
}

// Predict implements Predictor.
func (c *LMSCUSUM) Predict() float64 { return c.lms.Predict() }

// Observe implements Predictor, applying lines 6–13 of Algorithm 2.
func (c *LMSCUSUM) Observe(actual float64) {
	if len(c.lms.history) == 0 {
		c.lms.Observe(actual)
		return
	}
	absErr := math.Abs(actual - c.lms.Predict())
	// Adaptive threshold from EWMA error statistics (computed before this
	// observation so a surge does not raise its own threshold).
	const alpha = 0.05
	mean := c.ewmaAbs
	sd := math.Sqrt(math.Max(0, c.ewmaSq-mean*mean))
	threshold := math.Max(c.Floor, mean+c.K*sd)
	c.ewmaAbs = (1-alpha)*c.ewmaAbs + alpha*absErr
	c.ewmaSq = (1-alpha)*c.ewmaSq + alpha*absErr*absErr
	if c.warm < 5 {
		// Do not alarm while the error statistics are still warming up.
		c.warm++
		c.lms.Observe(actual)
		c.growDepth()
		return
	}
	if absErr > threshold {
		// Line 10: reset p = 1, v(1) = sum(v) — drop the smoothing. The
		// weight sum is taken before any NLMS update: updating against a
		// regime that just ended would only corrupt the weights (a
		// converged filter has Σv ≈ 1, so the reset behaves like
		// naive-previous until the depth regrows).
		c.alarms++
		total := c.lms.weightSum()
		c.lms.p = 1
		c.lms.weights[0] = total
		c.lms.push(actual)
		return
	}
	c.lms.Observe(actual)
	c.growDepth()
}

// growDepth implements line 12: grow p toward hist, redistributing the
// weight mass uniformly over the wider window while recovering.
func (c *LMSCUSUM) growDepth() {
	l := c.lms
	if l.p >= l.hist {
		return
	}
	total := l.weightSum()
	l.p++
	for i := 0; i < l.p; i++ {
		l.weights[i] = total / float64(l.p)
	}
	for i := l.p; i < l.hist; i++ {
		l.weights[i] = 0
	}
}

// Alarms reports the number of change points detected so far.
func (c *LMSCUSUM) Alarms() int { return c.alarms }

// Depth reports the current look-back depth (1 right after a reset).
func (c *LMSCUSUM) Depth() int { return c.lms.p }

// Name implements Predictor.
func (c *LMSCUSUM) Name() string { return "LC" }

// Seasonal augments a base predictor with the day-over-day correlation
// §5.2.2 points at ("the accuracy of these predictors can be further
// improved by considering the correlation (i.e., repeated daily patterns)
// across past days"): the forecast blends the base predictor's output with
// the utilization observed exactly one period (e.g. 1440 minutes) earlier.
// The blend weight adapts by comparing the two sources' recent errors.
type Seasonal struct {
	base    Predictor
	period  int
	history []float64
	// EWMA absolute errors of the two sources drive the blend.
	baseErr   float64
	seasonErr float64
	warm      bool
}

// NewSeasonal wraps base with a periodic memory of the given period (in
// slots; 1440 for daily patterns on minute traces).
func NewSeasonal(base Predictor, period int) (*Seasonal, error) {
	if base == nil {
		return nil, fmt.Errorf("predict: nil base predictor")
	}
	if period < 1 {
		return nil, fmt.Errorf("predict: period %d < 1", period)
	}
	return &Seasonal{base: base, period: period}, nil
}

// seasonal returns last period's value for the upcoming slot, or ok=false
// before one full period has been observed.
func (s *Seasonal) seasonal() (float64, bool) {
	if len(s.history) < s.period {
		return 0, false
	}
	return s.history[len(s.history)-s.period], true
}

// Predict implements Predictor.
func (s *Seasonal) Predict() float64 {
	b := s.base.Predict()
	sv, ok := s.seasonal()
	if !ok {
		return b
	}
	// Inverse-error weighting with a floor so neither source is silenced.
	const eps = 1e-3
	wb := 1 / (eps + s.baseErr)
	ws := 1 / (eps + s.seasonErr)
	return clamp01((wb*b + ws*sv) / (wb + ws))
}

// Observe implements Predictor.
func (s *Seasonal) Observe(actual float64) {
	const alpha = 0.05
	be := math.Abs(s.base.Predict() - actual)
	if sv, ok := s.seasonal(); ok {
		se := math.Abs(sv - actual)
		if !s.warm {
			s.baseErr, s.seasonErr, s.warm = be, se, true
		} else {
			s.baseErr = (1-alpha)*s.baseErr + alpha*be
			s.seasonErr = (1-alpha)*s.seasonErr + alpha*se
		}
	}
	s.base.Observe(actual)
	s.history = append(s.history, actual)
	if len(s.history) > 2*s.period {
		// Keep a bounded window: only the last period is ever read.
		s.history = s.history[len(s.history)-s.period:]
	}
}

// Name implements Predictor.
func (s *Seasonal) Name() string { return s.base.Name() + "+seasonal" }

// Offline is the genie-aided predictor of §6.1: it knows the true
// utilization sequence non-causally and predicts it exactly.
type Offline struct {
	values []float64
	idx    int
}

// NewOffline returns an offline predictor over the given true sequence.
func NewOffline(values []float64) *Offline {
	vs := make([]float64, len(values))
	copy(vs, values)
	return &Offline{values: vs}
}

// Predict implements Predictor: the true value of the upcoming slot (or the
// final value once the sequence is exhausted).
func (o *Offline) Predict() float64 {
	if len(o.values) == 0 {
		return 0
	}
	i := o.idx
	if i >= len(o.values) {
		i = len(o.values) - 1
	}
	return clamp01(o.values[i])
}

// Observe implements Predictor: advances to the next slot.
func (o *Offline) Observe(float64) { o.idx++ }

// Name implements Predictor.
func (o *Offline) Name() string { return "Offline" }
