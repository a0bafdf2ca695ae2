// Package metrics provides the statistics plumbing shared by the SleepScale
// simulators: streaming moments, exact sample percentiles, histograms and
// weighted tallies. Everything is allocation-conscious because the policy
// manager evaluates thousands of candidate policies per decision epoch.
package metrics

import (
	"fmt"
	"math"
	"sort"
)

// Stream accumulates count, mean and variance of a sequence of observations
// using Welford's online algorithm. The zero value is ready to use.
type Stream struct {
	n    int
	mean float64
	m2   float64
	min  float64
	max  float64
}

// Add records one observation.
func (s *Stream) Add(x float64) {
	if s.n == 0 {
		s.min, s.max = x, x
	} else {
		if x < s.min {
			s.min = x
		}
		if x > s.max {
			s.max = x
		}
	}
	s.n++
	d := x - s.mean
	s.mean += d / float64(s.n)
	s.m2 += d * (x - s.mean)
}

// AddN records the same observation n times.
func (s *Stream) AddN(x float64, n int) {
	for i := 0; i < n; i++ {
		s.Add(x)
	}
}

// Merge folds another stream into s (parallel Welford combination).
func (s *Stream) Merge(o Stream) {
	if o.n == 0 {
		return
	}
	if s.n == 0 {
		*s = o
		return
	}
	n := s.n + o.n
	d := o.mean - s.mean
	mean := s.mean + d*float64(o.n)/float64(n)
	m2 := s.m2 + o.m2 + d*d*float64(s.n)*float64(o.n)/float64(n)
	mn, mx := s.min, s.max
	if o.min < mn {
		mn = o.min
	}
	if o.max > mx {
		mx = o.max
	}
	*s = Stream{n: n, mean: mean, m2: m2, min: mn, max: mx}
}

// Count reports the number of observations.
func (s *Stream) Count() int { return s.n }

// Mean reports the sample mean, or 0 when empty.
func (s *Stream) Mean() float64 { return s.mean }

// Variance reports the unbiased sample variance, or 0 with fewer than two
// observations.
func (s *Stream) Variance() float64 {
	if s.n < 2 {
		return 0
	}
	return s.m2 / float64(s.n-1)
}

// StdDev reports the sample standard deviation.
func (s *Stream) StdDev() float64 { return math.Sqrt(s.Variance()) }

// CV reports the coefficient of variation (stddev / mean), or 0 when the mean
// is zero.
func (s *Stream) CV() float64 {
	if s.mean == 0 {
		return 0
	}
	return s.StdDev() / s.mean
}

// Min reports the smallest observation, or 0 when empty.
func (s *Stream) Min() float64 { return s.min }

// Max reports the largest observation, or 0 when empty.
func (s *Stream) Max() float64 { return s.max }

// Sum reports mean × count.
func (s *Stream) Sum() float64 { return s.mean * float64(s.n) }

// StreamState is the full internal state of a Stream, exposed so long-running
// consumers (the serve daemon's checkpoints) can persist and restore the
// moments bit-for-bit.
type StreamState struct {
	N                  int
	Mean, M2, Min, Max float64
}

// State captures the stream's internal state exactly.
func (s *Stream) State() StreamState {
	return StreamState{N: s.n, Mean: s.mean, M2: s.m2, Min: s.min, Max: s.max}
}

// SetState overwrites the stream with a previously captured state; a stream
// restored this way continues bit-identically to the original.
func (s *Stream) SetState(st StreamState) {
	s.n, s.mean, s.m2, s.min, s.max = st.N, st.Mean, st.M2, st.Min, st.Max
}

// String implements fmt.Stringer.
func (s *Stream) String() string {
	return fmt.Sprintf("n=%d mean=%.6g sd=%.6g min=%.6g max=%.6g",
		s.n, s.Mean(), s.StdDev(), s.min, s.max)
}

// Sample collects raw observations so that exact percentiles can be computed.
// It keeps every observation; the SleepScale evaluator works with runs of
// roughly 10⁴–10⁶ jobs, which fits comfortably in memory.
//
// Observations are stored in insertion order. Percentile and
// PercentileNearestRank select their order statistics in O(n) from a
// scratch permutation of the observations, so a query never sorts and never
// disturbs insertion order; FractionAbove is one linear count. Reset and
// TrimFront keep the underlying capacity, making a Sample reusable with zero
// steady-state allocations.
type Sample struct {
	xs      []float64 // insertion order, never reordered
	scratch []float64 // a permutation of xs that selection reorders in place
	dirty   bool      // scratch is stale relative to xs
	Stream
}

// NewSample returns a Sample with capacity hint n.
func NewSample(n int) *Sample {
	return &Sample{xs: make([]float64, 0, n)}
}

// Add records one observation.
func (s *Sample) Add(x float64) {
	s.xs = append(s.xs, x)
	s.dirty = true
	s.Stream.Add(x)
}

// Reset discards all observations but keeps the underlying capacity.
func (s *Sample) Reset() {
	s.xs = s.xs[:0]
	s.scratch = s.scratch[:0]
	s.dirty = false
	s.Stream = Stream{}
}

// TrimFront discards the first n observations in insertion order (e.g. a
// simulation warm-up period) and recomputes the streaming moments over the
// remainder. Trimming more than the sample size empties it.
func (s *Sample) TrimFront(n int) {
	if n <= 0 {
		return
	}
	if n >= len(s.xs) {
		s.Reset()
		return
	}
	s.xs = s.xs[:copy(s.xs, s.xs[n:])]
	s.dirty = true
	s.Stream = Stream{}
	for _, x := range s.xs {
		s.Stream.Add(x)
	}
}

// TrimBack discards the last n observations in insertion order (e.g. jobs
// retroactively lost on a crashing server) and recomputes the streaming
// moments over the remainder. Because Welford accumulation is a left fold,
// the rebuilt moments are bit-identical to a stream that never saw the
// removed suffix. Trimming more than the sample size empties it.
func (s *Sample) TrimBack(n int) {
	if n <= 0 {
		return
	}
	if n >= len(s.xs) {
		s.Reset()
		return
	}
	s.xs = s.xs[:len(s.xs)-n]
	s.dirty = true
	s.Stream = Stream{}
	for _, x := range s.xs {
		s.Stream.Add(x)
	}
}

// Values returns the raw observations in insertion order. The slice aliases
// internal storage; callers must not modify it.
func (s *Sample) Values() []float64 { return s.xs }

// scratchValues returns the selection scratch, re-copying xs when it is
// stale. Selection only permutes it, so further queries on an unchanged
// sample reuse it without copying.
func (s *Sample) scratchValues() []float64 {
	if s.dirty || len(s.scratch) != len(s.xs) {
		s.scratch = append(s.scratch[:0], s.xs...)
		s.dirty = false
	}
	return s.scratch
}

// Percentile reports the p-th percentile (0 ≤ p ≤ 100) using linear
// interpolation between closest ranks. It returns 0 for an empty sample.
func (s *Sample) Percentile(p float64) float64 {
	n := len(s.xs)
	if n == 0 {
		return 0
	}
	xs := s.scratchValues()
	if p <= 0 {
		return selectKth(xs, 0)
	}
	if p >= 100 {
		return selectKth(xs, n-1)
	}
	rank := p / 100 * float64(n-1)
	lo := int(math.Floor(rank))
	hi := int(math.Ceil(rank))
	lower := selectKth(xs, lo)
	if lo == hi {
		return lower
	}
	// Selection left nothing smaller than xs[lo] above it, so the next
	// order statistic is the minimum of that part.
	upper := minOf(xs[lo+1:])
	frac := rank - float64(lo)
	return lower*(1-frac) + upper*frac
}

// PercentileNearestRank reports the p-th percentile by the ceiling nearest-rank
// rule: the smallest observation x such that at least p% of the sample is ≤ x.
// It returns 0 for an empty sample.
func (s *Sample) PercentileNearestRank(p float64) float64 {
	n := len(s.xs)
	if n == 0 {
		return 0
	}
	idx := int(math.Ceil(p/100*float64(n))) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= n {
		idx = n - 1
	}
	return selectKth(s.scratchValues(), idx)
}

// FractionAbove reports the fraction of observations strictly greater than or
// equal to x, i.e. the empirical Pr(X ≥ x).
func (s *Sample) FractionAbove(x float64) float64 {
	if len(s.xs) == 0 {
		return 0
	}
	n := 0
	for _, v := range s.xs {
		if v >= x {
			n++
		}
	}
	return float64(n) / float64(len(s.xs))
}

// less is the order sort.Float64s sorts by: ascending, NaNs first. The order
// statistics follow it, so they equal a lookup in the sorted sample.
func less(a, b float64) bool { return a < b || (a != a && b == b) }

// selectKth reorders xs in place so that xs[k] holds its k-th smallest value
// (0-based), nothing before k is greater and nothing after k is smaller, and
// returns xs[k]. It is Hoare's FIND with a median-of-three pivot, O(n)
// expected. Should the partitions stop shrinking — total work past 8n, which
// only adversarial orders reach — the remaining range is sorted instead, so
// the worst case stays O(n log n).
func selectKth(xs []float64, k int) float64 {
	lo, hi := 0, len(xs)-1
	for work := 0; lo < hi; {
		if work += hi - lo + 1; work > 8*len(xs) {
			sort.Float64s(xs[lo : hi+1])
			break
		}
		p := median3(xs[lo], xs[lo+(hi-lo)/2], xs[hi])
		i, j := lo, hi
		for i <= j {
			for less(xs[i], p) {
				i++
			}
			for less(p, xs[j]) {
				j--
			}
			if i <= j {
				xs[i], xs[j] = xs[j], xs[i]
				i++
				j--
			}
		}
		// Now xs[lo..j] ≤ p ≤ xs[i..hi], and anything between equals p.
		switch {
		case k <= j:
			hi = j
		case k >= i:
			lo = i
		default:
			return xs[k]
		}
	}
	return xs[k]
}

// median3 returns the median of three values under less.
func median3(a, b, c float64) float64 {
	if less(b, a) {
		a, b = b, a
	}
	if less(c, b) {
		b = c
		if less(b, a) {
			b = a
		}
	}
	return b
}

// minOf returns the smallest element of a non-empty slice under less.
func minOf(xs []float64) float64 {
	m := xs[0]
	for _, v := range xs[1:] {
		if less(v, m) {
			m = v
		}
	}
	return m
}

// WeightedTally accumulates time-weighted occupancy per named bucket, e.g.
// seconds of residency per power state.
type WeightedTally struct {
	weights map[string]float64
	order   []string
	total   float64
}

// NewWeightedTally returns an empty tally.
func NewWeightedTally() *WeightedTally {
	return &WeightedTally{weights: make(map[string]float64)}
}

// Add accumulates weight w (usually seconds) in bucket name.
func (t *WeightedTally) Add(name string, w float64) {
	if _, ok := t.weights[name]; !ok {
		t.order = append(t.order, name)
	}
	t.weights[name] += w
	t.total += w
}

// Reset empties the tally in place, keeping the map and slice storage so a
// reused tally accumulates again without allocating.
func (t *WeightedTally) Reset() {
	clear(t.weights)
	t.order = t.order[:0]
	t.total = 0
}

// Get reports the accumulated weight of bucket name.
func (t *WeightedTally) Get(name string) float64 { return t.weights[name] }

// Total reports the sum of all weights.
func (t *WeightedTally) Total() float64 { return t.total }

// Fraction reports bucket name's share of the total weight.
func (t *WeightedTally) Fraction(name string) float64 {
	if t.total == 0 {
		return 0
	}
	return t.weights[name] / t.total
}

// Names returns the bucket names in first-seen order.
func (t *WeightedTally) Names() []string {
	out := make([]string, len(t.order))
	copy(out, t.order)
	return out
}

// Merge folds another tally into t.
func (t *WeightedTally) Merge(o *WeightedTally) {
	for _, name := range o.order {
		t.Add(name, o.weights[name])
	}
}

// Histogram is a fixed-width bucket histogram over [Lo, Hi); observations
// outside the range land in saturated edge buckets.
type Histogram struct {
	Lo, Hi  float64
	Buckets []int
	n       int
}

// NewHistogram returns a histogram with nb buckets covering [lo, hi).
func NewHistogram(lo, hi float64, nb int) *Histogram {
	if nb < 1 {
		nb = 1
	}
	if hi <= lo {
		hi = lo + 1
	}
	return &Histogram{Lo: lo, Hi: hi, Buckets: make([]int, nb)}
}

// Add records one observation.
func (h *Histogram) Add(x float64) {
	i := int((x - h.Lo) / (h.Hi - h.Lo) * float64(len(h.Buckets)))
	if i < 0 {
		i = 0
	}
	if i >= len(h.Buckets) {
		i = len(h.Buckets) - 1
	}
	h.Buckets[i]++
	h.n++
}

// Count reports the number of recorded observations.
func (h *Histogram) Count() int { return h.n }

// BucketMid reports the midpoint of bucket i.
func (h *Histogram) BucketMid(i int) float64 {
	w := (h.Hi - h.Lo) / float64(len(h.Buckets))
	return h.Lo + w*(float64(i)+0.5)
}

// Mode reports the midpoint of the most populated bucket.
func (h *Histogram) Mode() float64 {
	best := 0
	for i, c := range h.Buckets {
		if c > h.Buckets[best] {
			best = i
		}
	}
	return h.BucketMid(best)
}
