package queue

import "math"

// WakeFree is Engine.Process's availability recursion with every wake
// latency set to 0, run once over a job stream at one service speed:
//
//	Gᵢ = max(aᵢ, Gᵢ₋₁) + svcᵢ,  G₀ = 0.
//
// It depends on a configuration only through its speed f^β, so one O(n)
// pass serves every sleep plan at that frequency, and Bound turns it into
// lower bounds on what Evaluator.Evaluate reports for each of them. The
// policy manager uses the bounds to skip candidates that cannot win. Run
// keeps the pass's buffer, so a reused WakeFree allocates nothing.
type WakeFree struct {
	speed   float64
	n       int
	gn      float64   // Gₙ
	sumResp float64   // Σ(Gᵢ − aᵢ)
	sumSvc  float64   // Σ svcᵢ
	gaps    []float64 // aᵢ − Gᵢ₋₁: how long job i finds the wake-free server idle
}

// Run makes the pass over jobs at cfg's speed. The service times are the
// floats Process computes. A NaN arrival makes Gₙ NaN, and with it every
// bound −Inf.
func (w *WakeFree) Run(jobs []Job, cfg *Config) {
	v := cfg.speed()
	w.speed, w.n = v, len(jobs)
	if cap(w.gaps) < len(jobs) {
		w.gaps = make([]float64, len(jobs))
	}
	gaps := w.gaps[:len(jobs)]
	var g, sumResp, sumSvc float64
	for i, j := range jobs {
		svc := j.Size / v
		gaps[i] = j.Arrival - g
		g = max(g, j.Arrival) + svc
		sumResp += g - j.Arrival
		sumSvc += svc
	}
	w.gaps, w.gn, w.sumResp, w.sumSvc = gaps, g, sumResp, sumSvc
}

// Bound holds lower bounds on one configuration's Evaluate metrics over the
// stream of the last Run. Each is already reduced by its rounding slack, so
// it is at most the float Evaluate returns; −Inf means no bound.
type Bound struct {
	AvgPower     float64
	MeanResponse float64
}

// Rounding model: one float64 operation errs by at most u = 2⁻⁵³ relative
// to its result, plus, for a product or quotient in the subnormal range, at
// most η absolute (sums and differences that underflow are exact).
const (
	unitRoundoff = 0x1p-53
	underflow    = math.SmallestNonzeroFloat64 // η, over-estimated by 2×
)

// Bound bounds cfg, which must share the speed of the last Run (otherwise
// both bounds are −Inf). Let F be the engine's completion times, T = Gₙ +
// w_max, w_min and w_max the extreme wake latencies and P_min the lowest idle
// power: the phase powers, plus IdlePower when the server can idle before the
// first phase (no phases, or τ₁ > 0).
//
//   - Fᵢ ≥ Gᵢ holds exactly in floats: rounding is monotone, and each step
//     of Process starts no earlier than max(aᵢ, Fᵢ₋₁). So every response is
//     at least Gᵢ − aᵢ, and the duration Fₙ is at least Gₙ.
//   - Fᵢ ≤ Gᵢ + w_max + 3i·u·T: an idle step resets the excess to one wake
//     plus three roundings, a busy step adds two roundings.
//   - If τ₁ = 0, a job with aᵢ − Gᵢ₋₁ > w_max + 4n·u·T arrives after Fᵢ₋₁,
//     finds the server asleep and pays at least w_min. W is w_min times the
//     number of such jobs, so R = (Σ(Gᵢ − aᵢ) + W)/n ≤ mean response.
//   - Idle is billed at P_min or more, and busy plus wake time is at least
//     Σsvc + W. With P_active ≥ P_min that gives average power ≥ P_min +
//     (Σsvc + W)(P_active − P_min)/T, since Fₙ ≤ T; otherwise ≥ P_active.
//
// The slacks are forward error bounds on both computations, to first order
// in n·u, doubled to cover the second-order terms (n·u ≪ 1). Response: the
// Welford mean drifts by ≤ 5n·u·T, the bound's sum by ≤ n·u·T, a counted
// wake by ≤ 5u·T, and the final additions and division by ≤ 6u·T, so the
// slack is 2(6n + 11)·u·T, plus (n + 3)·η for the Welford and final
// quotients. Power, in units of u·P_max·T/Gₙ with k phases: at most n(k+3)
// rounded energy terms summed (n(k+3) + 1), the time telescoping (2n) and
// idle segments (2), the final division (1), Fₙ's excess over T (3n), and
// the bound's own sum and arithmetic (n + 7): the slack is 2(n(k+9) + 11) of
// them, plus 2(n(k+3) + 3)·η/Gₙ for the energy products and the bound's
// product and quotients. Both grow with the stream's time magnitude T, so on
// arrivals near 10⁹ s they switch pruning off rather than break it; a Gₙ of 0
// or an energy that could overflow disables the power bound outright.
func (w *WakeFree) Bound(cfg *Config) Bound {
	none := Bound{AvgPower: math.Inf(-1), MeanResponse: math.Inf(-1)}
	if w.n == 0 || cfg.speed() != w.speed {
		return none
	}
	pa := cfg.ActivePower
	pmin, pmax := math.Inf(1), pa
	if len(cfg.Phases) == 0 || cfg.Phases[0].EnterAfter != 0 {
		pmin, pmax = cfg.IdlePower, max(pmax, cfg.IdlePower)
	}
	wmin, wmax := math.Inf(1), 0.0
	for _, ph := range cfg.Phases {
		if math.IsNaN(ph.EnterAfter) {
			return none // the engine bills no idle against a NaN schedule
		}
		pmin, pmax = min(pmin, ph.Power), max(pmax, ph.Power)
		wmin, wmax = min(wmin, ph.WakeLatency), max(wmax, ph.WakeLatency)
	}
	n := float64(w.n)
	t := w.gn + wmax
	var wakes float64
	if len(cfg.Phases) > 0 && cfg.Phases[0].EnterAfter == 0 && wmin > 0 {
		// Count the gaps above thr without a branch: thr − g is negative,
		// its sign bit set, exactly when g > thr. A NaN gap leaves Gₙ NaN.
		thr := wmax + 4*n*unitRoundoff*t
		var c uint64
		for _, g := range w.gaps {
			c += math.Float64bits(thr-g) >> 63
		}
		wakes = wmin * float64(c)
	}
	b := Bound{
		MeanResponse: (w.sumResp+wakes)/n - 2*(6*n+11)*unitRoundoff*t - (n+3)*underflow,
		AvgPower:     math.Inf(-1),
	}
	k := float64(len(cfg.Phases))
	if w.gn > 0 && (k+3)*n*(pmax+1)*t < math.MaxFloat64/4 {
		p := pa
		if pa >= pmin {
			p = pmin + (w.sumSvc+wakes)*(pa-pmin)/t
		}
		b.AvgPower = p - 2*(n*(k+9)+11)*unitRoundoff*pmax*t/w.gn - 2*(n*(k+3)+3)*underflow/w.gn
	}
	b.AvgPower, b.MeanResponse = orNone(b.AvgPower), orNone(b.MeanResponse)
	return b
}

// orNone maps a NaN bound to −Inf, the bound that prunes nothing.
func orNone(x float64) float64 {
	if math.IsNaN(x) {
		return math.Inf(-1)
	}
	return x
}
