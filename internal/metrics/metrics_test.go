package metrics

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func almostEqual(a, b, tol float64) bool {
	return math.Abs(a-b) <= tol*math.Max(1, math.Max(math.Abs(a), math.Abs(b)))
}

func TestStreamEmpty(t *testing.T) {
	var s Stream
	if s.Count() != 0 || s.Mean() != 0 || s.Variance() != 0 || s.StdDev() != 0 {
		t.Fatalf("empty stream not zeroed: %v", s.String())
	}
}

func TestStreamSingle(t *testing.T) {
	var s Stream
	s.Add(42)
	if s.Count() != 1 {
		t.Fatalf("count = %d, want 1", s.Count())
	}
	if s.Mean() != 42 {
		t.Fatalf("mean = %v, want 42", s.Mean())
	}
	if s.Variance() != 0 {
		t.Fatalf("variance of single obs = %v, want 0", s.Variance())
	}
	if s.Min() != 42 || s.Max() != 42 {
		t.Fatalf("min/max = %v/%v, want 42/42", s.Min(), s.Max())
	}
}

func TestStreamKnownValues(t *testing.T) {
	var s Stream
	for _, x := range []float64{2, 4, 4, 4, 5, 5, 7, 9} {
		s.Add(x)
	}
	if got := s.Mean(); got != 5 {
		t.Errorf("mean = %v, want 5", got)
	}
	// Population variance is 4; unbiased sample variance is 32/7.
	if got, want := s.Variance(), 32.0/7.0; !almostEqual(got, want, 1e-12) {
		t.Errorf("variance = %v, want %v", got, want)
	}
	if got := s.Min(); got != 2 {
		t.Errorf("min = %v, want 2", got)
	}
	if got := s.Max(); got != 9 {
		t.Errorf("max = %v, want 9", got)
	}
	if got := s.Sum(); !almostEqual(got, 40, 1e-12) {
		t.Errorf("sum = %v, want 40", got)
	}
}

func TestStreamCV(t *testing.T) {
	var s Stream
	for i := 0; i < 100; i++ {
		s.Add(3) // constant => CV 0
	}
	if got := s.CV(); got != 0 {
		t.Errorf("cv of constant = %v, want 0", got)
	}
	var z Stream
	z.Add(0)
	z.Add(0)
	if got := z.CV(); got != 0 {
		t.Errorf("cv with zero mean = %v, want 0 (guard)", got)
	}
}

func TestStreamMerge(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var whole, a, b Stream
	for i := 0; i < 1000; i++ {
		x := rng.NormFloat64()*3 + 10
		whole.Add(x)
		if i%2 == 0 {
			a.Add(x)
		} else {
			b.Add(x)
		}
	}
	a.Merge(b)
	if a.Count() != whole.Count() {
		t.Fatalf("merged count = %d, want %d", a.Count(), whole.Count())
	}
	if !almostEqual(a.Mean(), whole.Mean(), 1e-9) {
		t.Errorf("merged mean = %v, want %v", a.Mean(), whole.Mean())
	}
	if !almostEqual(a.Variance(), whole.Variance(), 1e-9) {
		t.Errorf("merged variance = %v, want %v", a.Variance(), whole.Variance())
	}
	if a.Min() != whole.Min() || a.Max() != whole.Max() {
		t.Errorf("merged min/max = %v/%v, want %v/%v", a.Min(), a.Max(), whole.Min(), whole.Max())
	}
}

func TestStreamMergeEmpty(t *testing.T) {
	var a, b Stream
	a.Add(1)
	a.Merge(b) // merging empty is a no-op
	if a.Count() != 1 || a.Mean() != 1 {
		t.Fatalf("merge empty changed stream: %v", a.String())
	}
	b.Merge(a) // merging into empty copies
	if b.Count() != 1 || b.Mean() != 1 {
		t.Fatalf("merge into empty failed: %v", b.String())
	}
}

func TestStreamAddN(t *testing.T) {
	var a, b Stream
	a.AddN(2.5, 4)
	for i := 0; i < 4; i++ {
		b.Add(2.5)
	}
	if a.Count() != b.Count() || a.Mean() != b.Mean() {
		t.Fatalf("AddN mismatch: %v vs %v", a.String(), b.String())
	}
}

// Property: streaming mean/variance agree with the direct two-pass formulas.
func TestStreamMatchesTwoPassProperty(t *testing.T) {
	f := func(seed int64, n uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		count := int(n)%64 + 2
		xs := make([]float64, count)
		var s Stream
		for i := range xs {
			xs[i] = rng.Float64()*100 - 50
			s.Add(xs[i])
		}
		var sum float64
		for _, x := range xs {
			sum += x
		}
		mean := sum / float64(count)
		var ss float64
		for _, x := range xs {
			ss += (x - mean) * (x - mean)
		}
		variance := ss / float64(count-1)
		return almostEqual(s.Mean(), mean, 1e-9) && almostEqual(s.Variance(), variance, 1e-9)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestSamplePercentileExact(t *testing.T) {
	s := NewSample(0)
	for i := 1; i <= 100; i++ {
		s.Add(float64(i))
	}
	cases := []struct {
		p    float64
		want float64
	}{
		{0, 1}, {100, 100}, {50, 50.5}, {95, 95.05}, {99, 99.01},
	}
	for _, c := range cases {
		if got := s.Percentile(c.p); !almostEqual(got, c.want, 1e-9) {
			t.Errorf("P%v = %v, want %v", c.p, got, c.want)
		}
	}
}

func TestSamplePercentileEmptyAndSingle(t *testing.T) {
	s := NewSample(4)
	if got := s.Percentile(50); got != 0 {
		t.Errorf("empty percentile = %v, want 0", got)
	}
	s.Add(7)
	for _, p := range []float64{0, 33, 50, 100} {
		if got := s.Percentile(p); got != 7 {
			t.Errorf("single-obs P%v = %v, want 7", p, got)
		}
	}
}

func TestSampleFractionAbove(t *testing.T) {
	s := NewSample(0)
	for i := 1; i <= 10; i++ {
		s.Add(float64(i))
	}
	if got := s.FractionAbove(5); got != 0.6 {
		t.Errorf("Pr(X>=5) = %v, want 0.6", got)
	}
	if got := s.FractionAbove(0); got != 1 {
		t.Errorf("Pr(X>=0) = %v, want 1", got)
	}
	if got := s.FractionAbove(11); got != 0 {
		t.Errorf("Pr(X>=11) = %v, want 0", got)
	}
	if got := s.FractionAbove(5.5); got != 0.5 {
		t.Errorf("Pr(X>=5.5) = %v, want 0.5", got)
	}
}

func TestSampleReset(t *testing.T) {
	s := NewSample(0)
	s.Add(1)
	s.Add(2)
	s.Reset()
	if s.Count() != 0 || len(s.Values()) != 0 {
		t.Fatalf("reset did not clear sample")
	}
	s.Add(9)
	if s.Mean() != 9 || s.Percentile(50) != 9 {
		t.Fatalf("sample unusable after reset")
	}
}

// Property: percentile is monotone in p and bounded by min/max.
func TestSamplePercentileMonotoneProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		s := NewSample(0)
		n := rng.Intn(200) + 1
		for i := 0; i < n; i++ {
			s.Add(rng.ExpFloat64())
		}
		prev := math.Inf(-1)
		for p := 0.0; p <= 100; p += 2.5 {
			v := s.Percentile(p)
			if v < prev || v < s.Min()-1e-12 || v > s.Max()+1e-12 {
				return false
			}
			prev = v
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// Percentile must agree with a naive sorted-slice lookup at closest ranks.
func TestSamplePercentileAgainstSort(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	s := NewSample(0)
	raw := make([]float64, 999)
	for i := range raw {
		raw[i] = rng.NormFloat64()
		s.Add(raw[i])
	}
	sort.Float64s(raw)
	// With n=999, P50 is exactly raw[499]; P95 is raw[948.1] interpolated.
	if got := s.Percentile(50); !almostEqual(got, raw[499], 1e-12) {
		t.Errorf("P50 = %v, want %v", got, raw[499])
	}
	want := raw[948]*(1-0.1) + raw[949]*0.1
	if got := s.Percentile(95); !almostEqual(got, want, 1e-9) {
		t.Errorf("P95 = %v, want %v", got, want)
	}
}

// sortRef is the sort-based order-statistic code Sample used before O(n)
// selection replaced it, kept as the reference the selection must match bit
// for bit. It mirrors a sample's observations in insertion order.
type sortRef struct{ xs []float64 }

func (r *sortRef) add(x float64) { r.xs = append(r.xs, x) }

func (r *sortRef) trimFront(n int) { r.xs = r.xs[min(max(n, 0), len(r.xs)):] }

func (r *sortRef) trimBack(n int) { r.xs = r.xs[:len(r.xs)-min(max(n, 0), len(r.xs))] }

func (r *sortRef) sorted() []float64 {
	xs := append([]float64(nil), r.xs...)
	sort.Float64s(xs)
	return xs
}

func (r *sortRef) percentile(p float64) float64 {
	if len(r.xs) == 0 {
		return 0
	}
	xs := r.sorted()
	if p <= 0 {
		return xs[0]
	}
	if p >= 100 {
		return xs[len(xs)-1]
	}
	rank := p / 100 * float64(len(xs)-1)
	lo := int(math.Floor(rank))
	hi := int(math.Ceil(rank))
	if lo == hi {
		return xs[lo]
	}
	frac := rank - float64(lo)
	return xs[lo]*(1-frac) + xs[hi]*frac
}

func (r *sortRef) nearestRank(p float64) float64 {
	n := len(r.xs)
	if n == 0 {
		return 0
	}
	xs := r.sorted()
	idx := int(math.Ceil(p/100*float64(n))) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= n {
		idx = n - 1
	}
	return xs[idx]
}

func (r *sortRef) fractionAbove(x float64) float64 {
	if len(r.xs) == 0 {
		return 0
	}
	xs := r.sorted()
	i := sort.SearchFloat64s(xs, x)
	return float64(len(xs)-i) / float64(len(xs))
}

// requireRefBits compares every order statistic of s at ps, FractionAbove
// at xs, and the insertion-order values against the sorted reference, bit
// for bit.
func requireRefBits(t *testing.T, s *Sample, r *sortRef, ps, xs []float64) {
	t.Helper()
	if len(s.Values()) != len(r.xs) || s.Count() != len(r.xs) {
		t.Fatalf("sample holds %d values (count %d), reference %d", len(s.Values()), s.Count(), len(r.xs))
	}
	for i, v := range s.Values() {
		if math.Float64bits(v) != math.Float64bits(r.xs[i]) {
			t.Fatalf("Values()[%d] = %v, want %v: insertion order disturbed", i, v, r.xs[i])
		}
	}
	for _, p := range ps {
		if got, want := s.Percentile(p), r.percentile(p); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("n=%d: Percentile(%v) = %v (%#x), sorted reference %v (%#x)",
				len(r.xs), p, got, math.Float64bits(got), want, math.Float64bits(want))
		}
		if got, want := s.PercentileNearestRank(p), r.nearestRank(p); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("n=%d: PercentileNearestRank(%v) = %v, sorted reference %v", len(r.xs), p, got, want)
		}
	}
	for _, x := range xs {
		if got, want := s.FractionAbove(x), r.fractionAbove(x); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("n=%d: FractionAbove(%v) = %v, sorted reference %v", len(r.xs), x, got, want)
		}
	}
}

// TestSampleSelectionMatchesSortBits pins the O(n) order statistics to the
// sort-based code they replaced, bit for bit: heavy ties and continuous
// values, every n from 1 to 40 plus 199–201 and 2,000, the percentiles the
// repo reads plus the edges and a random one, each queried twice in mixed
// order on one sample, with Add, TrimFront, TrimBack and Reset between
// rounds of queries.
func TestSampleSelectionMatchesSortBits(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	ties := []float64{0.25, 1.5, 4}
	var sizes []int
	for n := 1; n <= 40; n++ {
		sizes = append(sizes, n)
	}
	sizes = append(sizes, 199, 200, 201, 2000)
	for _, tied := range []bool{true, false} {
		draw := func() float64 {
			if tied {
				return ties[rng.Intn(len(ties))]
			}
			return rng.NormFloat64()
		}
		for _, n := range sizes {
			s, ref := NewSample(0), &sortRef{}
			add := func(k int) {
				for i := 0; i < k; i++ {
					x := draw()
					s.Add(x)
					ref.add(x)
				}
			}
			add(n)
			for round := 0; round < 5; round++ {
				ps := []float64{0, 0.5, 50, 95, 99, 99.9, 100, 100 * rng.Float64()}
				mixed := make([]float64, 0, 2*len(ps))
				for _, i := range rng.Perm(2 * len(ps)) {
					mixed = append(mixed, ps[i%len(ps)])
				}
				xs := append([]float64{rng.NormFloat64(), -1, 10}, ties...)
				requireRefBits(t, s, ref, mixed, xs)
				switch k := len(ref.xs); rng.Intn(4) {
				case 0:
					add(1 + rng.Intn(n))
				case 1:
					m := rng.Intn(k + 1)
					s.TrimFront(m)
					ref.trimFront(m)
				case 2:
					m := rng.Intn(k + 1)
					s.TrimBack(m)
					ref.trimBack(m)
				default:
					s.Reset()
					ref.xs = ref.xs[:0]
					add(n)
				}
			}
		}
	}
}

func TestWeightedTally(t *testing.T) {
	w := NewWeightedTally()
	w.Add("C0iS0i", 3)
	w.Add("C6S0i", 1)
	w.Add("C0iS0i", 1)
	if got := w.Get("C0iS0i"); got != 4 {
		t.Errorf("Get = %v, want 4", got)
	}
	if got := w.Total(); got != 5 {
		t.Errorf("Total = %v, want 5", got)
	}
	if got := w.Fraction("C6S0i"); got != 0.2 {
		t.Errorf("Fraction = %v, want 0.2", got)
	}
	names := w.Names()
	if len(names) != 2 || names[0] != "C0iS0i" || names[1] != "C6S0i" {
		t.Errorf("Names = %v, want first-seen order", names)
	}
}

func TestWeightedTallyMerge(t *testing.T) {
	a, b := NewWeightedTally(), NewWeightedTally()
	a.Add("x", 1)
	b.Add("x", 2)
	b.Add("y", 3)
	a.Merge(b)
	if a.Get("x") != 3 || a.Get("y") != 3 || a.Total() != 6 {
		t.Fatalf("merge wrong: x=%v y=%v total=%v", a.Get("x"), a.Get("y"), a.Total())
	}
}

func TestWeightedTallyEmptyFraction(t *testing.T) {
	w := NewWeightedTally()
	if got := w.Fraction("nothing"); got != 0 {
		t.Errorf("empty fraction = %v, want 0", got)
	}
}

func TestHistogramBasics(t *testing.T) {
	h := NewHistogram(0, 10, 10)
	for i := 0; i < 10; i++ {
		h.Add(float64(i) + 0.5)
	}
	for i, c := range h.Buckets {
		if c != 1 {
			t.Errorf("bucket %d = %d, want 1", i, c)
		}
	}
	if h.Count() != 10 {
		t.Errorf("count = %d, want 10", h.Count())
	}
	if got := h.BucketMid(0); got != 0.5 {
		t.Errorf("BucketMid(0) = %v, want 0.5", got)
	}
}

func TestHistogramSaturation(t *testing.T) {
	h := NewHistogram(0, 1, 4)
	h.Add(-5)
	h.Add(99)
	if h.Buckets[0] != 1 || h.Buckets[3] != 1 {
		t.Fatalf("out-of-range values must saturate edges: %v", h.Buckets)
	}
}

func TestHistogramMode(t *testing.T) {
	h := NewHistogram(0, 4, 4)
	h.Add(2.5)
	h.Add(2.6)
	h.Add(0.1)
	if got := h.Mode(); got != 2.5 {
		t.Errorf("mode = %v, want 2.5", got)
	}
}

func TestHistogramDegenerateConstruction(t *testing.T) {
	h := NewHistogram(5, 5, 0) // hi<=lo and nb<1 are both repaired
	h.Add(5)
	if h.Count() != 1 {
		t.Fatalf("degenerate histogram unusable")
	}
}

func TestSampleValuesKeepInsertionOrderAfterPercentile(t *testing.T) {
	s := NewSample(0)
	in := []float64{5, 1, 4, 2, 3}
	for _, x := range in {
		s.Add(x)
	}
	if got := s.Percentile(50); got != 3 {
		t.Fatalf("P50 = %v, want 3", got)
	}
	for i, x := range s.Values() {
		if x != in[i] {
			t.Fatalf("Values()[%d] = %v after percentile query, want insertion order %v", i, x, in)
		}
	}
	// Adding after a percentile query must be reflected in later queries.
	s.Add(0)
	if got := s.Percentile(0); got != 0 {
		t.Fatalf("P0 after post-query Add = %v, want 0", got)
	}
}

func TestSampleTrimFront(t *testing.T) {
	s := NewSample(0)
	for _, x := range []float64{9, 1, 2, 3} {
		s.Add(x)
	}
	// A percentile query before trimming must not disturb what TrimFront drops.
	_ = s.Percentile(95)
	s.TrimFront(1)
	if s.Count() != 3 || s.Mean() != 2 || s.Max() != 3 || s.Min() != 1 {
		t.Fatalf("after TrimFront(1): n=%d mean=%v min=%v max=%v", s.Count(), s.Mean(), s.Min(), s.Max())
	}
	want := []float64{1, 2, 3}
	for i, x := range s.Values() {
		if x != want[i] {
			t.Fatalf("Values()[%d] = %v, want %v", i, x, want[i])
		}
	}
	s.TrimFront(0) // no-op
	if s.Count() != 3 {
		t.Fatalf("TrimFront(0) changed the sample")
	}
	s.TrimFront(10) // over-trim empties
	if s.Count() != 0 || len(s.Values()) != 0 {
		t.Fatalf("TrimFront past the end did not empty the sample")
	}
	s.Add(7)
	if s.Mean() != 7 || s.Percentile(50) != 7 {
		t.Fatalf("sample unusable after over-trim")
	}
}

// TestSampleTrimFrontMatchesRebuild pins the exact equivalence the queue
// warm-up path relies on: TrimFront(n) must be bit-for-bit identical to
// re-adding xs[n:] into a fresh sample.
func TestSampleTrimFrontMatchesRebuild(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	s := NewSample(0)
	var raw []float64
	for i := 0; i < 500; i++ {
		x := rng.ExpFloat64()
		s.Add(x)
		raw = append(raw, x)
	}
	const n = 123
	s.TrimFront(n)
	fresh := NewSample(0)
	for _, x := range raw[n:] {
		fresh.Add(x)
	}
	if s.Count() != fresh.Count() || s.Mean() != fresh.Mean() ||
		s.Variance() != fresh.Variance() || s.Min() != fresh.Min() || s.Max() != fresh.Max() {
		t.Fatalf("TrimFront moments diverge from rebuild: %v vs %v", s.String(), fresh.String())
	}
	for _, p := range []float64{0, 50, 95, 99, 100} {
		if s.Percentile(p) != fresh.Percentile(p) {
			t.Fatalf("P%v diverges: %v vs %v", p, s.Percentile(p), fresh.Percentile(p))
		}
	}
}

func TestSamplePercentileNearestRank(t *testing.T) {
	s := NewSample(0)
	if got := s.PercentileNearestRank(95); got != 0 {
		t.Fatalf("empty nearest-rank = %v, want 0", got)
	}
	for i := 1; i <= 20; i++ {
		s.Add(float64(i))
	}
	// ceil(0.95*20)-1 = 18 → value 19.
	if got := s.PercentileNearestRank(95); got != 19 {
		t.Errorf("P95 nearest-rank = %v, want 19", got)
	}
	if got := s.PercentileNearestRank(0); got != 1 {
		t.Errorf("P0 nearest-rank = %v, want 1", got)
	}
	if got := s.PercentileNearestRank(100); got != 20 {
		t.Errorf("P100 nearest-rank = %v, want 20", got)
	}
}

// TestSampleZeroAllocSteadyState pins the reuse contract: a warmed-up Sample
// must Add/Reset/query without allocating.
func TestSampleZeroAllocSteadyState(t *testing.T) {
	s := NewSample(0)
	for i := 0; i < 256; i++ {
		s.Add(float64(i % 17))
	}
	_ = s.Percentile(95) // warm the scratch buffer
	allocs := testing.AllocsPerRun(10, func() {
		s.Reset()
		for i := 0; i < 256; i++ {
			s.Add(float64((i * 31) % 23))
		}
		_ = s.Percentile(95)
		_ = s.PercentileNearestRank(95)
		_ = s.Mean()
	})
	if allocs != 0 {
		t.Errorf("steady-state Sample reuse allocates %v/op, want 0", allocs)
	}
}

// TestTrimBack pins the bit-identity contract: trimming a suffix leaves
// moments exactly as if the removed values were never added.
func TestTrimBack(t *testing.T) {
	vals := []float64{3.5, -1, 0.25, 7, 2, 9.5, -0.125}
	full := NewSample(0)
	ref := NewSample(0)
	for i, v := range vals {
		full.Add(v)
		if i < 4 {
			ref.Add(v)
		}
	}
	full.TrimBack(3)
	if got, want := full.Stream.State(), ref.Stream.State(); got != want {
		t.Fatalf("moments %+v != reference %+v", got, want)
	}
	if got, want := full.Percentile(50), ref.Percentile(50); got != want {
		t.Fatalf("p50 %g != %g", got, want)
	}
	full.TrimBack(0) // no-op
	if full.Count() != 4 {
		t.Fatalf("count %d after no-op trim", full.Count())
	}
	full.TrimBack(10) // over-trim empties
	if full.Count() != 0 || len(full.Values()) != 0 {
		t.Fatalf("over-trim left %d values", full.Count())
	}
}
