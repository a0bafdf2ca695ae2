// Package workload models the workloads of the SleepScale evaluation:
// the Table 5 summary statistics (DNS, Mail, Google), job-stream generation
// from idealized (Poisson/exponential), moment-fitted, or empirical
// statistics, and inter-arrival rescaling to a target utilization — the
// operation §5.2.1 performs when the runtime predictor adjusts logged
// workloads to the predicted utilization.
//
// BigHouse's stored CDFs are not public; NewEmpiricalStats synthesizes
// surrogate empirical distributions from heavy-tailed fits matching the
// published means and coefficients of variation (see DESIGN.md §2.1).
package workload

import (
	"fmt"
	"math/rand"
	"strings"

	"sleepscale/internal/dist"
	"sleepscale/internal/queue"
)

// Spec is a workload summary in the shape of Table 5.
type Spec struct {
	// Name identifies the workload ("DNS", "Mail", "Google").
	Name string
	// InterArrivalMean and InterArrivalCV describe the inter-arrival
	// process at the trace's native load, in seconds.
	InterArrivalMean float64
	InterArrivalCV   float64
	// ServiceMean and ServiceCV describe the service demand at f = 1,
	// in seconds.
	ServiceMean float64
	ServiceCV   float64
	// FreqExponent is β for this workload: 1 for CPU-bound (the paper's
	// default), 0 for memory-bound.
	FreqExponent float64
}

// DNS returns the DNS look-up workload of Table 5: inter-arrival mean 1.1 s
// (Cv 1.1), service mean 194 ms (Cv 1.0).
func DNS() Spec {
	return Spec{Name: "DNS", InterArrivalMean: 1.1, InterArrivalCV: 1.1,
		ServiceMean: 194e-3, ServiceCV: 1.0, FreqExponent: 1}
}

// Mail returns the email workload of Table 5: inter-arrival mean 206 ms
// (Cv 1.9), service mean 92 ms (Cv 3.6).
func Mail() Spec {
	return Spec{Name: "Mail", InterArrivalMean: 206e-3, InterArrivalCV: 1.9,
		ServiceMean: 92e-3, ServiceCV: 3.6, FreqExponent: 1}
}

// Google returns the web-search workload of Table 5: inter-arrival mean
// 319 µs (Cv 1.2), service mean 4.2 ms (Cv 1.1).
func Google() Spec {
	return Spec{Name: "Google", InterArrivalMean: 319e-6, InterArrivalCV: 1.2,
		ServiceMean: 4.2e-3, ServiceCV: 1.1, FreqExponent: 1}
}

// Table5 returns the three workloads the paper tabulates.
func Table5() []Spec { return []Spec{DNS(), Mail(), Google()} }

// ByName returns the Table 5 workload called name, matched
// case-insensitively.
func ByName(name string) (Spec, error) {
	for _, s := range Table5() {
		if strings.EqualFold(s.Name, name) {
			return s, nil
		}
	}
	return Spec{}, fmt.Errorf("workload: unknown name %q (want DNS, Mail or Google)", name)
}

// MaxServiceRate reports µ, the f = 1 service rate in jobs/second.
func (s Spec) MaxServiceRate() float64 { return 1 / s.ServiceMean }

// NativeUtilization reports ρ = λ/µ at the spec's native inter-arrival mean.
func (s Spec) NativeUtilization() float64 { return s.ServiceMean / s.InterArrivalMean }

// WithUtilization returns a copy whose inter-arrival mean is rescaled so the
// utilization ρ = λ/µ equals rho, keeping the service statistics and the
// inter-arrival Cv — exactly how §6 scales generated traces to the
// time-varying utilization of Figure 7.
func (s Spec) WithUtilization(rho float64) (Spec, error) {
	if rho <= 0 || rho >= 1 {
		return Spec{}, fmt.Errorf("workload: utilization %g outside (0,1)", rho)
	}
	out := s
	out.InterArrivalMean = s.ServiceMean / rho
	return out, nil
}

// Validate checks the spec parameters.
func (s Spec) Validate() error {
	if s.InterArrivalMean <= 0 || s.ServiceMean <= 0 {
		return fmt.Errorf("workload %q: nonpositive means", s.Name)
	}
	if s.InterArrivalCV < 0 || s.ServiceCV < 0 {
		return fmt.Errorf("workload %q: negative cv", s.Name)
	}
	if s.FreqExponent < 0 || s.FreqExponent > 1 {
		return fmt.Errorf("workload %q: frequency exponent %g outside [0,1]",
			s.Name, s.FreqExponent)
	}
	return nil
}

// Stats pairs the two distributions that describe a workload: inter-arrival
// times and service demands (sizes at f = 1). This is the object the policy
// manager characterizes policies against.
type Stats struct {
	// Inter is the inter-arrival time distribution, seconds.
	Inter dist.Distribution
	// Size is the service-demand distribution at f = 1, seconds.
	Size dist.Distribution
}

// NewIdealizedStats returns the idealized model of §4: Poisson arrivals and
// exponential service with the spec's means (Cv forced to 1).
func NewIdealizedStats(s Spec) (Stats, error) {
	if err := s.Validate(); err != nil {
		return Stats{}, err
	}
	inter, err := dist.NewExponentialMean(s.InterArrivalMean)
	if err != nil {
		return Stats{}, err
	}
	size, err := dist.NewExponentialMean(s.ServiceMean)
	if err != nil {
		return Stats{}, err
	}
	return Stats{Inter: inter, Size: size}, nil
}

// NewFittedStats returns moment-fitted parametric distributions matching the
// spec's means and coefficients of variation.
func NewFittedStats(s Spec) (Stats, error) {
	if err := s.Validate(); err != nil {
		return Stats{}, err
	}
	inter, err := dist.FitMeanCV(s.InterArrivalMean, s.InterArrivalCV)
	if err != nil {
		return Stats{}, err
	}
	size, err := dist.FitMeanCV(s.ServiceMean, s.ServiceCV)
	if err != nil {
		return Stats{}, err
	}
	return Stats{Inter: inter, Size: size}, nil
}

// NewEmpiricalStats synthesizes the BigHouse surrogate: empirical CDFs built
// from n samples of heavy-tailed (lognormal) fits to the spec's summary
// statistics, replayed through inverse-CDF sampling the way BigHouse replays
// its stored traces. The result is deterministic in seed.
func NewEmpiricalStats(s Spec, n int, seed int64) (Stats, error) {
	if err := s.Validate(); err != nil {
		return Stats{}, err
	}
	if n < 2 {
		return Stats{}, fmt.Errorf("workload: empirical stats need n ≥ 2, got %d", n)
	}
	rng := rand.New(rand.NewSource(seed))
	interBase, err := dist.FitHeavyTail(s.InterArrivalMean, s.InterArrivalCV)
	if err != nil {
		return Stats{}, err
	}
	sizeBase, err := dist.FitHeavyTail(s.ServiceMean, s.ServiceCV)
	if err != nil {
		return Stats{}, err
	}
	inter, err := dist.NewEmpirical(dist.SampleN(interBase, rng, n))
	if err != nil {
		return Stats{}, err
	}
	size, err := dist.NewEmpirical(dist.SampleN(sizeBase, rng, n))
	if err != nil {
		return Stats{}, err
	}
	return Stats{Inter: inter, Size: size}, nil
}

// Utilization reports ρ = size mean / inter-arrival mean.
func (st Stats) Utilization() float64 { return st.Size.Mean() / st.Inter.Mean() }

// AtUtilization returns a copy with the inter-arrival distribution scaled so
// that the utilization equals rho; Cv is preserved (§5.2.1's rescaling).
func (st Stats) AtUtilization(rho float64) (Stats, error) {
	if rho <= 0 || rho >= 1 {
		return Stats{}, fmt.Errorf("workload: utilization %g outside (0,1)", rho)
	}
	factor := st.Size.Mean() / rho / st.Inter.Mean()
	return Stats{
		Inter: dist.Scaled{Base: st.Inter, Factor: factor},
		Size:  st.Size,
	}, nil
}

// Jobs draws n jobs: arrival times are cumulative inter-arrival samples
// starting from time 0, sizes are service-demand samples.
func (st Stats) Jobs(n int, rng *rand.Rand) []queue.Job {
	jobs := make([]queue.Job, n)
	tnow := 0.0
	for i := range jobs {
		tnow += st.Inter.Sample(rng)
		jobs[i] = queue.Job{Arrival: tnow, Size: st.Size.Sample(rng)}
	}
	return jobs
}

// TraceJobs generates the §6 evaluation input: a job stream whose
// minute-by-minute arrival intensity follows the given utilization trace.
// utilization[m] is the target ρ for minute m; minuteSeconds is the length
// of a trace slot (60 for real minutes, smaller for accelerated tests).
// Sizes come from the stats' service distribution; inter-arrival gaps are
// base samples rescaled so that within slot m the mean gap is
// size.Mean()/ρ(m)·(base gap / base mean). Arrivals are generated slot by
// slot so a zero-utilization slot produces no arrivals; the gap straddling a
// slot boundary is redrawn at the new slot's rate (a negligible boundary
// effect at minute-long slots).
//
// TraceJobs materializes the whole stream; it is a thin driver over the
// same incremental core as TraceGen, so the two can never drift: a TraceGen
// seeded like rng delivers bit-identical jobs in bounded chunks.
func (st Stats) TraceJobs(utilization []float64, minuteSeconds float64, rng *rand.Rand) []queue.Job {
	g := TraceGen{
		stats:       st,
		feed:        &sliceFeed{utilization: utilization},
		slotSeconds: minuteSeconds,
		rng:         rng,
		baseMean:    st.Inter.Mean(),
		sizeMean:    st.Size.Mean(),
	}
	var jobs []queue.Job
	var buf [128]queue.Job
	for {
		n, ok := g.Next(buf[:])
		jobs = append(jobs, buf[:n]...)
		if !ok {
			return jobs
		}
	}
}

// SlotFeed supplies successive utilization slots to a TraceGen. Slice-backed
// traces use the built-in feed; streaming feeds (a CSV row reader, a live
// telemetry tap) let a generator run without ever holding the whole trace.
type SlotFeed interface {
	// NextSlot returns the next slot's target utilization ρ; ok is false
	// once the trace is exhausted. Errors end the stream.
	NextSlot() (rho float64, ok bool, err error)
	// ResetSlots rewinds the feed to the first slot.
	ResetSlots() error
}

// SliceSlots returns a SlotFeed over a materialized utilization slice — the
// adapter that lets SlotFeed consumers (a live epoch driver, a feeder
// replaying a recorded trace) run from in-memory data.
func SliceSlots(utilization []float64) SlotFeed {
	return &sliceFeed{utilization: utilization}
}

// sliceFeed feeds slots from a materialized utilization slice.
type sliceFeed struct {
	utilization []float64
	pos         int
}

func (f *sliceFeed) NextSlot() (float64, bool, error) {
	if f.pos >= len(f.utilization) {
		return 0, false, nil
	}
	u := f.utilization[f.pos]
	f.pos++
	return u, true, nil
}

func (f *sliceFeed) ResetSlots() error {
	f.pos = 0
	return nil
}

// TraceGen is the incremental form of TraceJobs: it delivers the identical
// job stream in caller-sized chunks, holding O(1) state regardless of trace
// length. It implements the stream package's Source contract (Next, Reset,
// Err) and allocates nothing in steady state.
type TraceGen struct {
	stats       Stats
	feed        SlotFeed
	slotSeconds float64
	rng         *rand.Rand
	baseMean    float64
	sizeMean    float64

	slot    int // index of the next slot to pull from the feed
	inSlot  bool
	tnow    float64
	scale   float64
	slotEnd float64
	done    bool
	err     error
}

// NewTraceGen returns a generator over a materialized utilization slice,
// deterministic in seed: it yields exactly TraceJobs(utilization,
// slotSeconds, rand.New(rand.NewSource(seed))).
func (st Stats) NewTraceGen(utilization []float64, slotSeconds float64, seed int64) (*TraceGen, error) {
	return st.NewTraceGenFeed(&sliceFeed{utilization: utilization}, slotSeconds, seed)
}

// NewTraceGenFeed returns a generator pulling slots from feed — the fully
// streaming form, for traces too long to materialize.
func (st Stats) NewTraceGenFeed(feed SlotFeed, slotSeconds float64, seed int64) (*TraceGen, error) {
	if feed == nil {
		return nil, fmt.Errorf("workload: nil slot feed")
	}
	if slotSeconds <= 0 {
		return nil, fmt.Errorf("workload: slot length %g ≤ 0", slotSeconds)
	}
	return &TraceGen{
		stats:       st,
		feed:        feed,
		slotSeconds: slotSeconds,
		rng:         rand.New(rand.NewSource(seed)),
		baseMean:    st.Inter.Mean(),
		sizeMean:    st.Size.Mean(),
	}, nil
}

// Next fills buf with the next jobs in non-decreasing arrival order. It
// reports how many were written and whether more may follow; n can be less
// than len(buf) even mid-stream. After ok=false the generator stays
// exhausted until Reset; check Err for a feed failure.
func (g *TraceGen) Next(buf []queue.Job) (n int, ok bool) {
	for n < len(buf) {
		if g.done {
			return n, false
		}
		if !g.inSlot {
			rho, more, err := g.feed.NextSlot()
			if err != nil {
				g.err = fmt.Errorf("workload: slot %d: %w", g.slot, err)
				g.done = true
				return n, false
			}
			if !more {
				g.done = true
				return n, false
			}
			m := g.slot
			g.slot++
			if rho <= 0 {
				continue
			}
			slotStart := float64(m) * g.slotSeconds
			g.slotEnd = slotStart + g.slotSeconds
			g.scale = g.sizeMean / rho / g.baseMean
			g.tnow = slotStart
			g.inSlot = true
		}
		g.tnow += g.stats.Inter.Sample(g.rng) * g.scale
		if g.tnow >= g.slotEnd {
			g.inSlot = false
			continue
		}
		buf[n] = queue.Job{Arrival: g.tnow, Size: g.stats.Size.Sample(g.rng)}
		n++
	}
	return n, true
}

// Reset rewinds the generator to the first slot and reseeds its randomness,
// so equal seeds replay bit-identical streams. A generator built over a
// caller-owned rng (the TraceJobs path) gets a fresh deterministic state.
func (g *TraceGen) Reset(seed int64) {
	g.rng.Seed(seed)
	g.slot, g.inSlot, g.done, g.err = 0, false, false, nil
	if err := g.feed.ResetSlots(); err != nil {
		g.err = fmt.Errorf("workload: reset slot feed: %w", err)
		g.done = true
	}
}

// Err reports a slot-feed failure that ended the stream early; nil for a
// clean end.
func (g *TraceGen) Err() error { return g.err }
