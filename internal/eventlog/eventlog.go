// Package eventlog implements the per-epoch job logging of §5.2.1. The
// runtime predictor does not build explicit distribution histograms —
// "constructing, maintaining and updating a fine-grained distribution
// histogram ... is expensive" — it keeps the raw inter-arrival gaps and
// service demands from recent epochs and replays them, rescaled to the
// predicted utilization, as the policy manager's simulation input.
package eventlog

import (
	"fmt"
	"math/rand"

	"sleepscale/internal/queue"
)

// Epoch is the job log of one policy epoch.
type Epoch struct {
	// Gaps are the observed inter-arrival gaps in seconds.
	Gaps []float64
	// Sizes are the observed service demands (seconds of work at f = 1).
	Sizes []float64
}

// FromJobs builds an epoch log from a job slice (sorted by arrival); the
// first gap is measured from epochStart.
func FromJobs(jobs []queue.Job, epochStart float64) Epoch {
	e := Epoch{
		Gaps:  make([]float64, 0, len(jobs)),
		Sizes: make([]float64, 0, len(jobs)),
	}
	prev := epochStart
	for _, j := range jobs {
		e.Gaps = append(e.Gaps, j.Arrival-prev)
		e.Sizes = append(e.Sizes, j.Size)
		prev = j.Arrival
	}
	return e
}

// Window is a bounded ring of the most recent epochs; "average behavior from
// the past several epochs will suffice" (§5.2.1). The ring owns its epoch
// buffers: an evicted epoch's gap and size slices are recycled for the
// incoming one, so the steady-state logging path — PushJobs every epoch —
// allocates nothing once the buffers have grown to the largest epoch seen.
type Window struct {
	epochs []Epoch // fixed-capacity ring storage
	head   int     // index of the oldest held epoch
	count  int     // epochs currently held
	pushed int     // epochs ever pushed
}

// NewWindow returns a window retaining the most recent capacity epochs.
func NewWindow(capacity int) (*Window, error) {
	if capacity < 1 {
		return nil, fmt.Errorf("eventlog: window capacity %d < 1", capacity)
	}
	return &Window{epochs: make([]Epoch, capacity)}, nil
}

// slot returns the ring slot for the next epoch — evicting the oldest when
// full — with its recycled buffers truncated, ready to refill.
func (w *Window) slot() *Epoch {
	var e *Epoch
	if w.count == len(w.epochs) {
		e = &w.epochs[w.head]
		w.head = (w.head + 1) % len(w.epochs)
	} else {
		e = &w.epochs[(w.head+w.count)%len(w.epochs)]
		w.count++
	}
	e.Gaps = e.Gaps[:0]
	e.Sizes = e.Sizes[:0]
	return e
}

// at returns the i-th held epoch, oldest first.
func (w *Window) at(i int) *Epoch { return &w.epochs[(w.head+i)%len(w.epochs)] }

// Push records an epoch, evicting the oldest beyond capacity. Empty epochs
// (no jobs) are recorded too — they carry load information. The epoch's
// slices are copied into ring-owned buffers; the caller's remain its own.
func (w *Window) Push(e Epoch) {
	s := w.slot()
	s.Gaps = append(s.Gaps, e.Gaps...)
	s.Sizes = append(s.Sizes, e.Sizes...)
	w.pushed++
}

// PushJobs logs one epoch straight from its job slice (sorted by arrival,
// first gap measured from epochStart) — the streaming form of
// Push(FromJobs(jobs, epochStart)) that builds the log in recycled ring
// buffers instead of two fresh slices, making the epoch loop allocation-free
// at steady state.
func (w *Window) PushJobs(jobs []queue.Job, epochStart float64) {
	s := w.slot()
	prev := epochStart
	for _, j := range jobs {
		s.Gaps = append(s.Gaps, j.Arrival-prev)
		s.Sizes = append(s.Sizes, j.Size)
		prev = j.Arrival
	}
	w.pushed++
}

// Reset empties the window for a fresh run, rewinding the push counter while
// retaining the ring's recycled epoch buffers — so a reused epoch driver (the
// fleet coordinator's Run) starts from a bit-identical empty window without
// allocating.
func (w *Window) Reset() { w.head, w.count, w.pushed = 0, 0, 0 }

// Epochs reports how many epochs the window currently holds.
func (w *Window) Epochs() int { return w.count }

// Pushed reports how many epochs have ever been pushed, including those the
// ring has since evicted.
func (w *Window) Pushed() int { return w.pushed }

// WindowState is a deep copy of a Window's contents, oldest epoch first,
// captured for checkpointing. Pushed is the window's push counter, which the
// serve checkpoint carries; it is never less than len(Epochs).
type WindowState struct {
	Capacity int
	Pushed   int
	Epochs   []Epoch // oldest first, deep-copied
}

// State captures the window's contents for a checkpoint.
func (w *Window) State() WindowState {
	st := WindowState{
		Capacity: len(w.epochs),
		Pushed:   w.pushed,
		Epochs:   make([]Epoch, w.count),
	}
	for i := 0; i < w.count; i++ {
		e := w.at(i)
		st.Epochs[i] = Epoch{
			Gaps:  append([]float64(nil), e.Gaps...),
			Sizes: append([]float64(nil), e.Sizes...),
		}
	}
	return st
}

// View is State without the copy: the returned Epochs alias the ring's own
// buffers, oldest first, so it is valid only until the next Push, PushJobs
// or Reset recycles them. The epoch headers are written into buf's storage,
// so a caller that passes back the previous view's Epochs allocates
// nothing.
func (w *Window) View(buf []Epoch) WindowState {
	buf = buf[:0]
	for i := 0; i < w.count; i++ {
		buf = append(buf, *w.at(i))
	}
	return WindowState{Capacity: len(w.epochs), Pushed: w.pushed, Epochs: buf}
}

// RestoreWindow rebuilds a window from a captured state. The restored window
// holds the same epochs in the same oldest-first order, so every subsequent
// Push, Means and Jobs call behaves bit-identically to the original's.
func RestoreWindow(st WindowState) (*Window, error) {
	w, err := NewWindow(st.Capacity)
	if err != nil {
		return nil, err
	}
	if len(st.Epochs) > st.Capacity {
		return nil, fmt.Errorf("eventlog: state holds %d epochs, capacity %d", len(st.Epochs), st.Capacity)
	}
	if st.Pushed < len(st.Epochs) {
		return nil, fmt.Errorf("eventlog: state pushed %d < %d held epochs", st.Pushed, len(st.Epochs))
	}
	for _, e := range st.Epochs {
		if len(e.Gaps) != len(e.Sizes) {
			return nil, fmt.Errorf("eventlog: state epoch has %d gaps, %d sizes", len(e.Gaps), len(e.Sizes))
		}
		w.Push(e)
	}
	w.pushed = st.Pushed
	return w, nil
}

// JobCount reports the total number of logged jobs.
func (w *Window) JobCount() int {
	var n int
	for i := 0; i < w.count; i++ {
		n += len(w.at(i).Sizes)
	}
	return n
}

// Means reports the mean inter-arrival gap and mean service demand across
// the window; ok is false when no jobs are logged.
func (w *Window) Means() (gapMean, sizeMean float64, ok bool) {
	var gsum, ssum float64
	var n int
	for i := 0; i < w.count; i++ {
		e := w.at(i)
		for _, g := range e.Gaps {
			gsum += g
		}
		for _, s := range e.Sizes {
			ssum += s
		}
		n += len(e.Sizes)
	}
	if n == 0 {
		return 0, 0, false
	}
	return gsum / float64(n), ssum / float64(n), true
}

// Utilization reports the observed ρ = mean size / mean gap, or 0 when the
// window is empty.
func (w *Window) Utilization() float64 {
	g, s, ok := w.Means()
	if !ok || g == 0 {
		return 0
	}
	return s / g
}

// Jobs bootstraps an n-job simulation input from the logged events: gaps and
// sizes are resampled with replacement, and every gap is scaled by a common
// factor so the stream's utilization matches targetRho — the §5.2.1
// adjustment of logged workloads to the predicted utilization. It returns
// ok=false when the window holds no jobs. Each draw indexes the held epochs'
// gaps (or sizes) as one oldest-first sequence and is resolved in the ring
// itself, so a decision costs its n drawn jobs, not a copy of the window.
func (w *Window) Jobs(n int, targetRho float64, rng *rand.Rand) ([]queue.Job, bool) {
	if targetRho <= 0 || n <= 0 {
		return nil, false
	}
	gapMean, sizeMean, ok := w.Means()
	if !ok || gapMean <= 0 || sizeMean <= 0 {
		return nil, false
	}
	var nGaps, nSizes int
	for i := 0; i < w.count; i++ {
		e := w.at(i)
		nGaps += len(e.Gaps)
		nSizes += len(e.Sizes)
	}
	scale := sizeMean / targetRho / gapMean
	jobs := make([]queue.Job, n)
	tnow := 0.0
	for i := range jobs {
		tnow += w.elem(rng.Intn(nGaps), false) * scale
		jobs[i] = queue.Job{Arrival: tnow, Size: w.elem(rng.Intn(nSizes), true)}
	}
	return jobs, true
}

// elem returns element i of the held epochs' gaps (sizes when sizes is set)
// taken as one oldest-first sequence — what a flattened copy holds at i.
func (w *Window) elem(i int, sizes bool) float64 {
	for e := 0; ; e++ {
		col := w.at(e).Gaps
		if sizes {
			col = w.at(e).Sizes
		}
		if i < len(col) {
			return col[i]
		}
		i -= len(col)
	}
}
