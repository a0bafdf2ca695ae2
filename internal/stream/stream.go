package stream

import (
	"math/rand"

	"sleepscale/internal/queue"
	"sleepscale/internal/trace"
	"sleepscale/internal/workload"
)

// DefaultChunk is the chunk size Collect (and the package's drivers) use
// when the caller does not pick one.
const DefaultChunk = 256

// Source is a pull-based, bounded-memory job stream; see the package
// documentation for the full contract.
type Source interface {
	// Next writes up to len(buf) jobs into buf in non-decreasing arrival
	// order. ok=false means exhausted; the final n jobs remain valid.
	Next(buf []queue.Job) (n int, ok bool)
	// Reset rewinds the source to its beginning, reseeded with seed.
	Reset(seed int64)
}

// Cursor adapts a queue.JobSource to one-job-at-a-time consumption with
// lookahead, hiding the chunk-refill state machine every streaming driver
// otherwise hand-rolls (including its subtle corners: empty chunks from a
// still-live source are retried, and a final chunk delivered alongside
// ok=false is still drained). Peek exposes the next job without consuming
// it; Advance consumes it. The cursor owns its one-chunk buffer — the
// driver's job-memory high-water mark.
type Cursor struct {
	src       queue.JobSource
	buf       []queue.Job
	pos, n    int
	exhausted bool
}

// NewCursor returns a cursor over src, consumed from its current position.
func NewCursor(src queue.JobSource) *Cursor {
	return &Cursor{src: src, buf: make([]queue.Job, DefaultChunk)}
}

// Peek returns the next job without consuming it; ok=false means the
// source is exhausted.
func (c *Cursor) Peek() (j queue.Job, ok bool) {
	for c.pos == c.n {
		if c.exhausted {
			return queue.Job{}, false
		}
		n, more := c.src.Next(c.buf)
		c.pos, c.n = 0, n
		if !more {
			c.exhausted = true
		}
	}
	return c.buf[c.pos], true
}

// Advance consumes the job the last Peek exposed. It must follow a
// successful Peek.
func (c *Cursor) Advance() { c.pos++ }

// Reset rebinds the cursor to src (consumed from its current position),
// discarding any buffered lookahead but keeping the chunk buffer — so a
// long-lived driver can cursor over many streams without allocating.
func (c *Cursor) Reset(src queue.JobSource) {
	c.src = src
	c.pos, c.n = 0, 0
	c.exhausted = false
}

// Err reports the deferred error of a source that ended early, for sources
// that expose one (Err() error); nil otherwise.
func Err(src Source) error {
	if es, ok := src.(interface{ Err() error }); ok {
		return es.Err()
	}
	return nil
}

// SliceSource adapts a materialized job slice (sorted by arrival) to the
// Source contract — the bridge by which pre-generated streams ride the
// streaming drivers. Reset rewinds to the first job; the seed is ignored,
// the slice being already drawn.
type SliceSource struct {
	jobs []queue.Job
	pos  int
}

// Slice returns a SliceSource over jobs.
func Slice(jobs []queue.Job) *SliceSource { return &SliceSource{jobs: jobs} }

// Next implements Source.
func (s *SliceSource) Next(buf []queue.Job) (int, bool) {
	n := copy(buf, s.jobs[s.pos:])
	s.pos += n
	return n, s.pos < len(s.jobs)
}

// Reset implements Source; the seed is ignored.
func (s *SliceSource) Reset(int64) { s.pos = 0 }

// Collect drains src into a fresh slice using chunk-sized reads (chunk < 1
// picks DefaultChunk) and surfaces the source's deferred error. It is the
// materializing adapter — and the reference driver the equivalence tests
// pin chunked delivery against.
func Collect(src Source, chunk int) ([]queue.Job, error) {
	if chunk < 1 {
		chunk = DefaultChunk
	}
	buf := make([]queue.Job, chunk)
	var jobs []queue.Job
	for {
		n, ok := src.Next(buf)
		jobs = append(jobs, buf[:n]...)
		if !ok {
			return jobs, Err(src)
		}
	}
}

// Trace returns the streaming form of st.TraceJobs over tr: bit-identical
// to the materialized stream for equal seeds, in O(1) generator state.
func Trace(st workload.Stats, tr *trace.Trace, seed int64) (Source, error) {
	return st.NewTraceGen(tr.Utilization, tr.SlotSeconds, seed)
}

// Stationary is a fixed-rate source: cumulative inter-arrival samples and
// service-demand samples from the workload statistics, up to a time horizon
// — the streaming analogue of workload.Stats.Jobs.
type Stationary struct {
	stats   workload.Stats
	horizon float64
	rng     *rand.Rand
	tnow    float64
	done    bool
}

// NewStationary returns a stationary source over st generating arrivals in
// [0, horizon).
func NewStationary(st workload.Stats, horizon float64, seed int64) (*Stationary, error) {
	if err := validateHorizon(horizon); err != nil {
		return nil, err
	}
	return &Stationary{stats: st, horizon: horizon, rng: rand.New(rand.NewSource(seed))}, nil
}

// Next implements Source.
func (s *Stationary) Next(buf []queue.Job) (n int, ok bool) {
	for n < len(buf) {
		if s.done {
			return n, false
		}
		s.tnow += s.stats.Inter.Sample(s.rng)
		if s.tnow >= s.horizon {
			s.done = true
			return n, false
		}
		buf[n] = queue.Job{Arrival: s.tnow, Size: s.stats.Size.Sample(s.rng)}
		n++
	}
	return n, true
}

// Reset implements Source.
func (s *Stationary) Reset(seed int64) {
	s.rng.Seed(seed)
	s.tnow, s.done = 0, false
}
