package main

import (
	"bufio"
	"encoding"
	"fmt"
	"io"
	"os"
	"runtime"
	"strconv"
	"time"

	"sleepscale/internal/core"
	"sleepscale/internal/par"
	"sleepscale/internal/policy"
	"sleepscale/internal/predict"
	"sleepscale/internal/queue"
	"sleepscale/internal/strategy"
	"sleepscale/internal/stream"
)

// Layers are measured from outside the program: a traced pass wraps the
// interfaces the program accepts — the strategy, the predictor, the job
// source, the feed reader and the NDJSON writer — in decorators that record
// a span around every call. Nothing inside the program is instrumented. The
// farm's Dispatcher is never wrapped: the farm picks its indexed routing path
// by the dispatcher's concrete type, so a wrapper would change what is
// measured.

// span is one timed call across a layer boundary. Times are nanoseconds
// since the pass started. Span 0 is the root: it covers the measured part of
// the pass, and every decorator span is its child. Spans hold no pointers,
// so a traced pass's millions of them cost the garbage collector nothing.
type span struct {
	start, end    int64
	parent, epoch int32
	layer         layerID
}

// layerID names a span's layer; spanNames holds the names.
type layerID uint8

const (
	rootLayer layerID = iota
	decideLayer
	predictLayer
	nextLayer
	readLayer
	emitLayer
)

var spanNames = [...]string{"", "decide", "predict", "stream.next", "read", "emit"}

// recorder holds one pass's spans and epoch-close instants in memory, plus
// the runtime and worker-pool counters around the measured section. Epoch
// closes are recorded in every pass, traced or not: the epoch-gap metrics
// come from them. Spans other than the root come only from the decorators,
// which untraced passes do not install.
type recorder struct {
	root   string // the root span's name
	traced bool
	t0     time.Time
	epoch  int     // index of the epoch being served
	closes []int64 // host time of each epoch close
	spans  []span

	mem0, mem1 runtime.MemStats
	par0, par1 par.Stats
}

// start opens the root span, named after the layer the pass serves through.
func (r *recorder) start(root string) {
	r.root = root
	r.spans = append(r.spans[:0], span{parent: -1, epoch: -1})
	runtime.ReadMemStats(&r.mem0)
	r.par0 = par.Default().Stats()
	r.t0 = time.Now()
}

// finish closes the root span and returns the measured wall time.
func (r *recorder) finish() time.Duration {
	r.spans[0].end = r.now()
	r.par1 = par.Default().Stats()
	runtime.ReadMemStats(&r.mem1)
	return time.Duration(r.spans[0].end)
}

func (r *recorder) now() int64 { return int64(time.Since(r.t0)) }

// add records a child span of the root that started at start and ends now.
func (r *recorder) add(l layerID, start int64) {
	r.spans = append(r.spans, span{start: start, end: r.now(), epoch: int32(r.epoch), layer: l})
}

func (r *recorder) name(s span) string {
	if s.layer == rootLayer {
		return r.root
	}
	return spanNames[s.layer]
}

// closeEpoch records that the current epoch closed at host time at.
func (r *recorder) closeEpoch(at int64) {
	r.closes = append(r.closes, at)
	r.epoch++
}

// gapsMS returns the host time between consecutive closes of the first n
// epochs, in milliseconds.
func (r *recorder) gapsMS(n int) []float64 {
	if n > len(r.closes) {
		n = len(r.closes)
	}
	var gaps []float64
	for i := 1; i < n; i++ {
		gaps = append(gaps, float64(r.closes[i]-r.closes[i-1])/1e6)
	}
	return gaps
}

// layer sums one span name's calls, total time and self time: a span's
// self time is its duration minus the time its child spans cover.
type layer struct {
	calls       int
	total, self int64
	durs        []float64 // each call's duration, ns
}

// layers folds the recorded spans by name.
func (r *recorder) layers() map[string]*layer {
	child := make([]int64, len(r.spans))
	for _, s := range r.spans {
		if s.parent >= 0 {
			child[s.parent] += s.end - s.start
		}
	}
	out := make(map[string]*layer)
	for i, s := range r.spans {
		name := r.name(s)
		l := out[name]
		if l == nil {
			l = &layer{}
			out[name] = l
		}
		d := s.end - s.start
		l.calls++
		l.total += d
		l.self += d - child[i]
		l.durs = append(l.durs, float64(d))
	}
	return out
}

// writeSpans writes the spans as JSON lines: name, id, parent, epoch id,
// start and end in nanoseconds since the pass started.
func (r *recorder) writeSpans(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	var b []byte
	for i, s := range r.spans {
		b = append(b[:0], `{"name":"`...)
		b = append(b, r.name(s)...)
		b = append(b, `","id":`...)
		b = strconv.AppendInt(b, int64(i), 10)
		b = append(b, `,"parent":`...)
		b = strconv.AppendInt(b, int64(s.parent), 10)
		b = append(b, `,"epoch":`...)
		b = strconv.AppendInt(b, int64(s.epoch), 10)
		b = append(b, `,"start_ns":`...)
		b = strconv.AppendInt(b, s.start, 10)
		b = append(b, `,"end_ns":`...)
		b = strconv.AppendInt(b, s.end, 10)
		b = append(b, "}\n"...)
		w.Write(b) // a write error resurfaces from Flush
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// tracedStrategy times Decide and counts the candidates each selecting
// decision scores: the grid Manager.Space.Policies enumerates at the
// predicted utilization, every plan at every frequency. The count is taken
// after the span ends.
type tracedStrategy struct {
	core.Strategy
	rec        *recorder
	candidates int
}

func (s *tracedStrategy) Decide(in core.DecideInput) (policy.Policy, error) {
	t := s.rec.now()
	pol, err := s.Strategy.Decide(in)
	s.rec.add(decideLayer, t)
	// ManagerStrategy selects only once the window holds jobs; before that
	// it returns its cold-start policy without scoring anything.
	if ms, ok := s.Strategy.(*strategy.ManagerStrategy); ok && in.Window.JobCount() > 0 {
		sp := ms.Manager.Space
		s.candidates += len(sp.Plans) * len(sp.Frequencies(in.PredictedUtilization, ms.Manager.FreqExponent))
	}
	return pol, err
}

// tracedPredictor times Predict and Observe. It forwards the binary
// marshalling the live runner's checkpoints need.
type tracedPredictor struct {
	predict.Predictor
	rec *recorder
}

func (p *tracedPredictor) Predict() float64 {
	t := p.rec.now()
	v := p.Predictor.Predict()
	p.rec.add(predictLayer, t)
	return v
}

func (p *tracedPredictor) Observe(actual float64) {
	t := p.rec.now()
	p.Predictor.Observe(actual)
	p.rec.add(predictLayer, t)
}

func (p *tracedPredictor) MarshalBinary() ([]byte, error) {
	m, ok := p.Predictor.(encoding.BinaryMarshaler)
	if !ok {
		return nil, fmt.Errorf("predictor %s is not checkpointable", p.Name())
	}
	return m.MarshalBinary()
}

func (p *tracedPredictor) UnmarshalBinary(data []byte) error {
	u, ok := p.Predictor.(encoding.BinaryUnmarshaler)
	if !ok {
		return fmt.Errorf("predictor %s is not checkpointable", p.Name())
	}
	return u.UnmarshalBinary(data)
}

// tracedSource times the job source's Next and forwards Reset and Err.
type tracedSource struct {
	src stream.Source
	rec *recorder
}

func (s *tracedSource) Next(buf []queue.Job) (int, bool) {
	t := s.rec.now()
	n, ok := s.src.Next(buf)
	s.rec.add(nextLayer, t)
	return n, ok
}

func (s *tracedSource) Reset(seed int64) { s.src.Reset(seed) }

func (s *tracedSource) Err() error { return stream.Err(s.src) }

// tracedReader times reads from the daemon's feed.
type tracedReader struct {
	r   io.Reader
	rec *recorder
}

func (r *tracedReader) Read(p []byte) (int, error) {
	t := r.rec.now()
	n, err := r.r.Read(p)
	r.rec.add(readLayer, t)
	return n, err
}

// epochOut is the daemon's Out writer. The server writes one NDJSON record
// as each epoch closes and a summary record when the stream ends, so every
// write is an epoch close except the last. Records are forwarded to w; a
// traced pass also times the write.
type epochOut struct {
	w   io.Writer
	rec *recorder
}

func (o *epochOut) Write(p []byte) (int, error) {
	t := o.rec.now()
	n, err := o.w.Write(p)
	if o.rec.traced {
		o.rec.add(emitLayer, t)
	}
	o.rec.closeEpoch(t)
	return n, err
}
