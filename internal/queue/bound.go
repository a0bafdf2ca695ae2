package queue

import (
	"math"
	"slices"
)

// WakeFree is Engine.Process's availability recursion with every wake
// latency set to 0, run once over a job stream at one service speed:
//
//	Gᵢ = max(aᵢ, Gᵢ₋₁) + svcᵢ,  G₀ = 0.
//
// It depends on a configuration only through its speed f^β, so one O(n)
// pass serves every sleep plan at that frequency, and Bound turns it into
// lower bounds on what Evaluator.Evaluate reports for each of them. The
// policy manager uses the bounds to skip candidates that cannot win.
//
// Reset binds a stream and Count registers the wake counts the plans'
// bounds need, so that each Run over that stream counts them inside its
// pass and Bound costs O(phases). BoundBetween bounds a configuration at a
// speed between the last two Runs' from those two passes alone, with no
// pass of its own. A reused WakeFree allocates nothing.
type WakeFree struct {
	jobs       []Job
	n          int
	maxArrival float64   // max(0, max aᵢ)
	sumSize    float64   // Σ sizeᵢ
	wake       []float64 // the w_max of each registered count
	// In blocks of four, one per pass, the unused ones last: the threshold
	// of each w_max in the last Run, else +Inf.
	thr []float64

	last, prev pass // the last Run's pass and the one before it
}

// pass is what one Run found at its speed.
type pass struct {
	speed   float64
	gn      float64 // Gₙ
	sumResp float64 // Σ(Gᵢ − aᵢ)
	sumSvc  float64 // Σ svcᵢ
	// In blocks of four, as WakeFree.thr:
	count []uint64 // the gaps above each threshold
	carry []uint64 // the jobs of the busy periods those gaps start
}

// Reset binds w to the stream jobs and drops every registered count; no
// configuration has a bound until the next Run. Reset(nil) releases the
// stream. Call it again after changing a bound stream in place.
func (w *WakeFree) Reset(jobs []Job) {
	w.jobs, w.n = jobs, len(jobs)
	w.wake, w.thr = w.wake[:0], w.thr[:0]
	for _, p := range []*pass{&w.last, &w.prev} {
		p.speed, p.count, p.carry = math.NaN(), p.count[:0], p.carry[:0]
	}
	w.addBlock()
	var a, s float64
	for _, j := range jobs {
		a, s = max(a, j.Arrival), s+j.Size
	}
	w.maxArrival, w.sumSize = a, s
}

// Count makes every later Run count the wakes cfg's bound needs, if it
// needs any (see Bound). Configurations with the same w_max share a count;
// one whose count is not registered is bounded without a wake term, and so
// is every configuration over a stream of 2³² jobs or more, whose counts
// would overflow Run's 32-bit lanes.
func (w *WakeFree) Count(cfg *Config) {
	if _, wmax, ok := wakeRange(cfg); ok && uint64(w.n) < 1<<32 && !slices.Contains(w.wake, wmax) {
		if len(w.wake) == len(w.thr) {
			w.addBlock()
		}
		w.wake = append(w.wake, wmax)
	}
}

// addBlock adds a block of four unused counts, whose +Inf thresholds no gap
// exceeds.
func (w *WakeFree) addBlock() {
	inf := math.Inf(1)
	w.thr = append(w.thr, inf, inf, inf, inf)
	for _, p := range []*pass{&w.last, &w.prev} {
		p.count = append(p.count, 0, 0, 0, 0)
		p.carry = append(p.carry, 0, 0, 0, 0)
	}
}

// Run makes the pass over jobs at cfg's speed. For each registered w_max it
// counts the gaps aᵢ − Gᵢ₋₁ above its threshold, and the jobs of the
// wake-free busy periods those gaps start: the job with the gap, and each
// later one with aᵢ ≤ Gᵢ₋₁ up to the next positive gap. The service times
// are the floats Process computes. A NaN arrival makes Gₙ NaN, and with it
// every bound −Inf. Any other stream than the bound one is bound first,
// which drops the counts. The pass before becomes the previous one.
func (w *WakeFree) Run(jobs []Job, cfg *Config) {
	if len(jobs) != len(w.jobs) || len(jobs) > 0 && &jobs[0] != &w.jobs[0] {
		w.Reset(jobs)
	}
	w.prev, w.last = w.last, w.prev
	p := &w.last
	v := cfg.Speed()
	p.speed = v
	n := float64(w.n)
	for k, wmax := range w.wake {
		w.thr[k] = wmax + 4*n*unitRoundoff*w.spanBound(v, wmax)
	}
	// A block of four thresholds rides in registers with each pass, their
	// counts and flags two to a uint64 in 32-bit lanes (Count guarantees n <
	// 2³²); a fifth distinct w_max repeats the pass for the next block.
	for k0 := 0; k0 < len(w.thr); k0 += 4 {
		t := [4]float64(w.thr[k0:])
		// c counts the gaps above each threshold, r the jobs carried, and on
		// flags whether the current job is carried.
		var c01, c23, r01, r23, on01, on23 uint64
		var g, sumResp, sumSvc float64
		for _, j := range w.jobs {
			svc := j.Size / v
			gap := j.Arrival - g
			// Without a branch: t − gap is negative, its sign bit set,
			// exactly when gap > t. A gap ≤ 0 keeps each flag, and a
			// positive gap sets it to whether the gap is above its
			// threshold, in a conditional move. A NaN gap leaves Gₙ NaN.
			w01 := math.Float64bits(t[0]-gap)>>63 | math.Float64bits(t[1]-gap)>>63<<32
			w23 := math.Float64bits(t[2]-gap)>>63 | math.Float64bits(t[3]-gap)>>63<<32
			if gap > 0 {
				on01, on23 = w01, w23
			}
			c01, c23 = c01+w01, c23+w23
			r01, r23 = r01+on01, r23+on23
			g = max(g, j.Arrival) + svc
			sumResp += g - j.Arrival
			sumSvc += svc
		}
		p.gn, p.sumResp, p.sumSvc = g, sumResp, sumSvc
		const lane = 1<<32 - 1
		*(*[4]uint64)(p.count[k0:]) = [4]uint64{c01 & lane, c01 >> 32, c23 & lane, c23 >> 32}
		*(*[4]uint64)(p.carry[k0:]) = [4]uint64{r01 & lane, r01 >> 32, r23 & lane, r23 >> 32}
	}
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
//     finds the server asleep and pays at least w_min: a definite wake. Its
//     Fᵢ − Gᵢ is then at least w_min less three roundings. The count needs
//     w_min > 0, and Run makes it before Gₙ is known, with T replaced by its
//     span bound T̄ ≥ T (see spanBound): a higher threshold counts no more
//     jobs, so the counts below stay lower bounds.
//   - The wake delays the rest of the wake-free busy period it starts too. A
//     later job with aᵢ ≤ Gᵢ₋₁ has aᵢ ≤ Fᵢ₋₁, so Process takes its busy
//     branch, and both recursions add the same svcᵢ to their last value: the
//     excess Fᵢ − Gᵢ carries over, less two roundings. Run counts these
//     carried jobs with one flag per threshold: a definite wake sets it, a
//     gap ≤ 0 keeps it, and any other positive gap clears it. W is w_min
//     times the carried count, definite wakes included, so R = (Σ(Gᵢ − aᵢ) +
//     W)/n ≤ mean response.
//   - Idle is billed at P_min or more, and busy plus wake time is at least
//     Σsvc + W_wake, with W_wake = w_min times the definite wakes alone. With
//     P_active ≥ P_min that gives average power ≥ P_min + (Σsvc +
//     W_wake)(P_active − P_min)/T, since Fₙ ≤ T; otherwise ≥ P_active.
//
// The slacks are forward error bounds on both computations, to first order
// in n·u, doubled to cover the second-order terms (n·u ≪ 1). Response: the
// Welford mean drifts by ≤ 5n·u·T and the bound's sum by ≤ n·u·T. A job m
// steps into a carried busy period loses at most (5 + 2m)·u·T of its w_min
// to the wake's three roundings, the carry's two per step and the two
// responses' subtractions, and m < n, so W drifts by at most (2n + 5)·u·T
// in the mean. With ≤ 6u·T for the final additions and division, the slack
// is 2(8n + 11)·u·T, plus (n + 3)·η for the Welford and final quotients
// (the carried steps are sums, which are exact when they underflow).
// Power, in units of u·P_max·T/Gₙ with k phases: at most n(k+3)
// rounded energy terms summed (n(k+3) + 1), the time telescoping (2n) and
// idle segments (2), the final division (1), Fₙ's excess over T (3n), and
// the bound's own sum and arithmetic (n + 7): the slack is 2(n(k+9) + 11) of
// them, plus 2(n(k+3) + 3)·η/Gₙ for the energy products and the bound's
// product and quotients. Both grow with the stream's time magnitude T, so on
// arrivals near 10⁹ s they switch pruning off rather than break it; a Gₙ of 0
// or an energy that could overflow disables the power bound outright. The
// η terms are subtracted only where they can change a bit (see
// lessUnderflow), so a bound in the normal range costs no subnormal
// arithmetic.
func (w *WakeFree) Bound(cfg *Config) Bound {
	p := &w.last
	if cfg.Speed() != p.speed {
		return none
	}
	return w.bound(cfg, p.sumResp, p.sumSvc, p.gn, p.gn, p.count, p.carry)
}

// BoundBetween bounds cfg from the last two Runs' passes, lo and hi, which
// must have speeds v_lo ≤ v ≤ v_hi around cfg's speed v (otherwise both
// bounds are −Inf). Each bound is at most the one Bound would give after a
// Run at v, so it is at most what Evaluate reports too. Every rounding is
// monotone (as in ResponseFloor), so each input below is no better than
// what that pass would find, and Bound's arithmetic, which bound computes
// for both, is monotone in each input in the direction that keeps the
// result at most its own. So no slack is added:
//
//   - svcᵢ = fl(sizeᵢ/v) cannot rise as v does, and so neither can any Gᵢ:
//     Gₙ(hi) ≤ Gₙ ≤ Gₙ(lo), and Σ(Gᵢ − aᵢ) is at least its value at hi.
//     T = Gₙ(lo) + w_max bounds the span, Gₙ(hi) the slack's denominator.
//   - Each gap aᵢ − Gᵢ₋₁ cannot fall as v rises, and the count's threshold
//     w_max + 4n·u·spanBound(v) cannot rise. So every gap counted at lo is
//     counted at v, and each counted wake carries at least its own job:
//     lo's count bounds both the definite wakes and the carried jobs.
//   - Σsvc is at least its value at hi, and at least busyFloor(v).
func (w *WakeFree) BoundBetween(cfg *Config) Bound {
	lo, hi := &w.prev, &w.last
	if lo.speed > hi.speed {
		lo, hi = hi, lo
	}
	v := cfg.Speed()
	if !(lo.speed <= v && v <= hi.speed) {
		return none
	}
	busy := max(hi.sumSvc, w.busyFloor(v))
	return w.bound(cfg, hi.sumResp, busy, hi.gn, lo.gn, lo.count, lo.count)
}

// none is the bound that prunes nothing.
var none = Bound{AvgPower: math.Inf(-1), MeanResponse: math.Inf(-1)}

// bound is Bound's arithmetic for cfg from what a pass at cfg's speed finds,
// or from inputs no better: sumResp = Σ(Gᵢ − aᵢ) and busy = Σsvc from below,
// Gₙ from below as gn and from above as gnMax, and the counts of cfg's
// w_max from below, count for its definite wakes and carry for the jobs
// they carry. With every power non-negative, each operation is monotone in
// each input in the direction that keeps the result at most the exact one.
func (w *WakeFree) bound(cfg *Config, sumResp, busy, gn, gnMax float64, count, carry []uint64) Bound {
	if w.n == 0 {
		return none
	}
	pa := cfg.ActivePower
	pmin, pmax := math.Inf(1), pa
	if len(cfg.Phases) == 0 || cfg.Phases[0].EnterAfter != 0 {
		pmin, pmax = cfg.IdlePower, max(pmax, cfg.IdlePower)
	}
	for _, ph := range cfg.Phases {
		if math.IsNaN(ph.EnterAfter) {
			return none // the engine bills no idle against a NaN schedule
		}
		pmin, pmax = min(pmin, ph.Power), max(pmax, ph.Power)
	}
	wmin, wmax, counts := wakeRange(cfg)
	var wakes, carried float64
	if k := slices.Index(w.wake, wmax); counts && k >= 0 {
		wakes, carried = wmin*float64(count[k]), wmin*float64(carry[k])
	}
	n := float64(w.n)
	t := gnMax + wmax
	b := Bound{MeanResponse: w.meanResponse(sumResp, carried, t), AvgPower: math.Inf(-1)}
	k := float64(len(cfg.Phases))
	if gn > 0 && (k+3)*n*(pmax+1)*t < math.MaxFloat64/4 {
		p := pa
		if pa >= pmin {
			p = pmin + (busy+wakes)*(pa-pmin)/t
		}
		p -= 2 * (n*(k+9) + 11) * unitRoundoff * pmax * t / gn
		b.AvgPower = orNone(lessUnderflow(p, 2*(n*(k+3)+3), gn))
	}
	return b
}

// ResponseFloor is the last Run's mean-response bound without a wake term,
// its slack taken from the span bound of a pass at speed slowest with wake
// latency wmax. Over a grid of Runs whose speeds are all at least slowest,
// and configurations whose w_max are all at most wmax, it is at most every
// such configuration's Bound.MeanResponse at the Run's speed. Both are
// meanResponse, with the same 2(8n + 11)·u slack per unit of span: every
// rounding is monotone, the carried W ≥ 0, and Gₙ, so T, cannot fall as the
// speed does, so that span bound is at least every T. For the same reason
// the floor cannot fall as the Run's speed does.
func (w *WakeFree) ResponseFloor(slowest, wmax float64) float64 {
	if w.n == 0 {
		return math.Inf(-1)
	}
	return w.meanResponse(w.last.sumResp, 0, w.spanBound(slowest, wmax))
}

// meanResponse is the response bound (sumResp + carried)/n less its slack
// for the span t.
func (w *WakeFree) meanResponse(sumResp, carried, t float64) float64 {
	n := float64(w.n)
	r := (sumResp+carried)/n - 2*(8*n+11)*unitRoundoff*t
	return orNone(lessUnderflow(r, n+3, 1))
}

// spanBound bounds T = Gₙ + wmax from above for a pass at speed v, from
// constants of the stream known before the pass. Let A = max(0, max aᵢ), S
// = Σ sizeᵢ summed in floats and q = S/v as computed, with every arrival and
// size a non-negative float (the engine rejects any other stream). Each step
// of the pass adds non-negative terms, so Gₙ ≤ (A + Σsvcᵢ)(1+u)ⁿ, and Σsvcᵢ
// ≤ (1+u)q/(1−u)ⁿ plus n·η for quotients that underflow. With the final
// addition, T ≤ (A + q + wmax)(1+u)ⁿ⁺²/(1−u)ⁿ + (n+2)·η. While n < 2⁴⁰ that
// factor is below 1.001, so twice the computed A + q + wmax, plus 2⁻¹⁰²² for
// the η terms, is at least T after its own roundings.
func (w *WakeFree) spanBound(v, wmax float64) float64 {
	return 2*(w.maxArrival+w.sumSize/v+wmax) + 0x1p-1022
}

// busyFloor bounds Σsvc from below for a pass at speed v, the lower twin of
// spanBound. With S and q = S/v as there, the exact Σ sizeᵢ is at least
// S/(1+u)ⁿ and, for a normal q, S/v ≥ q/(1+u); each svcᵢ is at least
// (1−u)·sizeᵢ/v less η, and each addition of the pass loses at most a
// factor (1−u). So Σsvc ≥ q(1−u)ⁿ/(1+u)ⁿ⁺¹ − n·η ≥ q(1 − (2n+1)u) − n·η.
// For 2⁻⁹⁰⁰ ≤ q ≤ MaxFloat64 and n < 2⁴⁰, the computed q − (4n+8)·u·q
// is below that after its own two roundings: the margin of (2n+6)·u·q is
// far above them and n·η. Outside that range the floor is −Inf.
func (w *WakeFree) busyFloor(v float64) float64 {
	q := w.sumSize / v
	if !(q >= 0x1p-900 && q <= math.MaxFloat64) {
		return math.Inf(-1)
	}
	return q - (4*float64(w.n)+8)*unitRoundoff*q
}

// wakeRange reports cfg's extreme wake latencies, and whether its bound
// counts wakes: only when its first phase starts the moment the server
// idles (τ₁ = 0) and every wake latency is positive.
func wakeRange(cfg *Config) (wmin, wmax float64, counts bool) {
	wmin = math.Inf(1)
	for _, ph := range cfg.Phases {
		wmin, wmax = min(wmin, ph.WakeLatency), max(wmax, ph.WakeLatency)
	}
	return wmin, wmax, len(cfg.Phases) > 0 && cfg.Phases[0].EnterAfter == 0 && wmin > 0
}

// lessUnderflow returns x − m·η/g bit for bit, for an integer m in
// [1, 2⁵²) and g > 0. For g ≥ 1 the term is subnormal, and subnormal
// arithmetic costs a microcode assist on x86, so the term is computed only
// where it can change a bit. It cannot when |x|·min(g, 1) ≥ m·2⁻¹⁰¹⁴: the
// term then rounds to at most 2⁻⁵⁵|x|, under half the spacing of the floats
// on either side of x. For a bound in the normal range both sides of that
// test are normal.
func lessUnderflow(x, m, g float64) float64 {
	if math.Abs(x)*min(g, 1) >= m*0x1p-1014 {
		return x
	}
	return x - m*underflow/g
}

// orNone maps a NaN bound to −Inf, the bound that prunes nothing.
func orNone(x float64) float64 {
	if math.IsNaN(x) {
		return math.Inf(-1)
	}
	return x
}
