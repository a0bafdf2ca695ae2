package farm

import (
	"fmt"
	"math/rand"

	"sleepscale/internal/par"
	"sleepscale/internal/queue"
	"sleepscale/internal/stream"
)

// VirtualRouter is the state-dependent analogue of Preassigner: a dispatcher
// that can route against a lightweight per-server shadow instead of live
// engines. For server i, cfgs[i] is its live configuration, freeAt[i] the
// time its accepted work completes, and anchor[i] the start of its current
// idle schedule (queue.Engine.IdleAnchor), which differs from freeAt only for
// a server reconfigured (SetConfigAt) while idle and not served since.
// RouteVirtual must pick exactly as Pick would against engines in that
// state, so the time-sliced parallel dispatch can decide routing serially
// (cheap scalar recursion) while the full energy-accounting simulation of
// each server runs concurrently. Dispatchers that compare backlogs alone
// (JSQ, PowerOfD) ignore cfgs and anchor.
type VirtualRouter interface {
	RouteVirtual(cfgs []queue.Config, freeAt, anchor []float64, j queue.Job) int
}

// RouteVirtual implements VirtualRouter: the server with the least
// outstanding work at the arrival instant, ties toward the lowest index —
// the same decision Pick makes from engine backlogs.
func (JSQ) RouteVirtual(_ []queue.Config, freeAt, _ []float64, j queue.Job) int {
	best, bestWork := 0, shadowBacklog(freeAt[0], j.Arrival)
	for i := 1; i < len(freeAt); i++ {
		if w := shadowBacklog(freeAt[i], j.Arrival); w < bestWork {
			best, bestWork = i, w
		}
	}
	return best
}

// shadowBacklog mirrors Engine.Backlog for the freeAt shadow.
func shadowBacklog(freeAt, t float64) float64 {
	if freeAt <= t {
		return 0
	}
	return freeAt - t
}

// PowerOfD is the power-of-d-choices discipline: at each arrival it samples
// D servers uniformly at random (with replacement) and joins the
// least-backlogged of the sample, ties toward the lowest sampled index — the
// classic load-balancing compromise between random dispatch (d = 1) and full
// JSQ (d = k), scanning d servers instead of the whole fleet. D must be ≥ 1
// and Rng non-nil. Pick and RouteVirtual consume exactly D draws per job in
// the same order, so the sequential and time-sliced parallel dispatch modes
// route identically from equal Rng states.
type PowerOfD struct {
	// D is the sample size (2 is the textbook choice).
	D int
	// Rng drives the sampling; seed it for reproducible runs.
	Rng *rand.Rand
}

// Pick implements Dispatcher.
func (p *PowerOfD) Pick(f *Farm, j queue.Job) int {
	best, bestWork := -1, 0.0
	for c := 0; c < p.D; c++ {
		i := p.Rng.Intn(len(f.engines))
		w := f.engines[i].Backlog(j.Arrival)
		if best < 0 || w < bestWork || (w == bestWork && i < best) {
			best, bestWork = i, w
		}
	}
	return best
}

// RouteVirtual implements VirtualRouter with the same draws and the same
// comparator as Pick, against the freeAt shadow.
func (p *PowerOfD) RouteVirtual(_ []queue.Config, freeAt, _ []float64, j queue.Job) int {
	best, bestWork := -1, 0.0
	for c := 0; c < p.D; c++ {
		i := p.Rng.Intn(len(freeAt))
		w := shadowBacklog(freeAt[i], j.Arrival)
		if best < 0 || w < bestWork || (w == bestWork && i < best) {
			best, bestWork = i, w
		}
	}
	return best
}

// Name implements Dispatcher.
func (p *PowerOfD) Name() string { return fmt.Sprintf("pd%d", p.D) }

// LeastWorkLeft routes to the server that would complete the arriving job
// earliest: the wake-aware refinement of JSQ. Where JSQ compares outstanding
// backlog alone, LeastWorkLeft additionally charges the wake-up latency a
// sleeping server must pay before it can serve, so an idle-but-asleep deep
// server competes against a nearly-free busy one on the work actually left
// before the job finishes. Ties break toward the lowest index.
//
// Pricing always follows the engines' live configurations: Pick reads each
// engine directly, and ServeSourceSliced routes through the O(log k) index
// or RouteVirtual, both priced from the live operating point — so the
// parallel mode stays bit-identical to the sequential dispatch even when
// SetConfigAt switches configurations between calls (the fleet coordinator's
// epoch-boundary policy changes). Idle pricing follows each server's actual
// idle anchor: Pick reads it from the engine, and the sliced driver carries
// an anchor shadow alongside freeAt, so the first wake after a mid-run
// SetConfigAt during an idle period is priced exactly (the anchor the switch
// moved is honored, not assumed equal to freeAt).
type LeastWorkLeft struct{}

// Pick implements Dispatcher: the earliest completion of j across servers,
// computed by the same availability recursion the engines run, against each
// engine's live configuration and idle anchor.
func (l *LeastWorkLeft) Pick(f *Farm, j queue.Job) int {
	best, bestDone := 0, 0.0
	for i, eng := range f.engines {
		done := eng.NextFreeAt(j)
		if i == 0 || done < bestDone {
			best, bestDone = i, done
		}
	}
	return best
}

// RouteVirtual implements VirtualRouter: the completion-time comparison Pick
// makes, against the shadow, with wake-ups and service priced from each
// server's own configuration and idle anchor.
func (l *LeastWorkLeft) RouteVirtual(cfgs []queue.Config, freeAt, anchor []float64, j queue.Job) int {
	best, bestDone := 0, 0.0
	for i := range freeAt {
		done := cfgs[i].NextFreeAtAnchored(freeAt[i], anchor[i], j)
		if i == 0 || done < bestDone {
			best, bestDone = i, done
		}
	}
	return best
}

// Name implements Dispatcher.
func (l *LeastWorkLeft) Name() string { return "least-work-left" }

// configsEqual reports whether two engine configurations are identical,
// phases included. The fast path is the homogeneous farm's: engines switched
// from one shared resolved policy alias the same phase slice, so the slice
// headers match and no element compare runs.
func configsEqual(a, b *queue.Config) bool {
	if a.Frequency != b.Frequency || a.FreqExponent != b.FreqExponent ||
		a.ActivePower != b.ActivePower || a.IdlePower != b.IdlePower ||
		len(a.Phases) != len(b.Phases) {
		return false
	}
	if len(a.Phases) == 0 || &a.Phases[0] == &b.Phases[0] {
		return true
	}
	for i := range a.Phases {
		if a.Phases[i] != b.Phases[i] {
			return false
		}
	}
	return true
}

// uniform reports whether every engine runs cfg, server 0's configuration.
func (f *Farm) uniform(cfg *queue.Config) bool {
	for _, eng := range f.engines[1:] {
		ec := eng.Config()
		if !configsEqual(cfg, &ec) {
			return false
		}
	}
	return true
}

// DefaultSliceJobs is the synchronization granularity of the parallel
// dispatch mode when DispatchOptions does not pick one: jobs routed per
// slice between barriers. Larger slices amortize the barrier; the slice
// buffer (not the stream) is the mode's memory high-water mark.
const DefaultSliceJobs = 4096

// DispatchOptions tunes DispatchSource.
type DispatchOptions struct {
	// Parallel enables the time-sliced parallel mode: the stream is cut
	// into slices at dispatch-forced synchronization points, each slice is
	// routed serially against the shadow (or preassigned), and the
	// per-server substreams simulate concurrently between barriers. Results
	// are bit-identical to the sequential dispatch. Requires a dispatcher
	// implementing Preassigner or VirtualRouter; round-robin, random, JSQ,
	// power-of-d and least-work-left all qualify.
	Parallel bool
	// SliceJobs is the jobs-per-slice granularity of the parallel mode
	// (default DefaultSliceJobs). Smaller slices synchronize more often;
	// the results do not depend on the choice.
	SliceJobs int
	// Workers bounds the persistent pool executors the parallel mode may
	// use per slice; 0 uses the whole process-wide pool (GOMAXPROCS
	// executors). Results do not depend on the choice — 1 degenerates to
	// the serial reference on the submitting goroutine.
	Workers int
}

// DispatchSource is the streaming k-way dispatch loop: it pulls chunks from
// src (any stream.Source or queue.JobSource), routes each job through disp
// at its arrival instant, and advances the k per-server engines in
// virtual-time order — JSQ sees accurate queue depths — without ever
// materializing the stream. Peak job-buffer memory is one chunk (sequential)
// or one slice (parallel); week-long streams run in O(chunk).
//
// The source is consumed from its current position; sources exposing
// Err() error surface their deferred failure. With opts.Parallel the
// time-sliced mode simulates servers concurrently on the persistent worker
// pool and merges deterministically, bit-identical to the sequential
// reference. Engines are fresh per call, so the returned Result never
// aliases reused storage; steady-state callers should hold a Farm and drive
// Reset + ServeSourceSliced + FinishSummary instead.
func DispatchSource(k int, cfg queue.Config, disp Dispatcher, src queue.JobSource, opts DispatchOptions) (Result, error) {
	if disp == nil {
		return Result{}, fmt.Errorf("farm: nil dispatcher")
	}
	if src == nil {
		return Result{}, fmt.Errorf("farm: nil job source")
	}
	f, err := New(k, cfg, disp)
	if err != nil {
		return Result{}, err
	}
	if opts.Parallel && k > 1 {
		if _, err := f.ServeSourceSliced(src, opts); err != nil {
			return Result{}, err
		}
	} else if _, err := f.ServeSource(src); err != nil {
		return Result{}, err
	}
	if err := sourceErr(src); err != nil {
		return Result{}, fmt.Errorf("farm: job source: %w", err)
	}
	return f.Finish(lastFree(f.engines))
}

// sourceErr reports a source's deferred mid-stream failure, if any.
func sourceErr(src queue.JobSource) error {
	if es, ok := src.(interface{ Err() error }); ok {
		return es.Err()
	}
	return nil
}

// resizeErrs returns s with length n, reusing capacity; new elements are nil
// (existing ones are cleared per serve call anyway).
func resizeErrs(s []error, n int) []error {
	if cap(s) < n {
		return make([]error, n)
	}
	return s[:n]
}

// slicedState is the farm-owned reusable scratch of the time-sliced parallel
// dispatch: the slice buffer, routing table, bucketed-substream backing
// array, freeAt shadow, per-server counters and merge offsets, the chunk
// cursor, and the stored worker closure the pool executes. It is allocated
// on the farm's first ServeSourceSliced and reused across slices and across
// calls, which is what takes the parallel mode's steady state to zero
// allocations — the sliced counterpart of the sequential loop's farm-owned
// chunk.
type slicedState struct {
	f       *Farm
	cursor  *stream.Cursor
	slice   []queue.Job
	assign  []int
	backing []queue.Job
	freeAt  []float64
	anchor  []float64
	offsets []int
	fill    []int
	count   []int
	// idx is the dispatcher's O(log k) routing index over the freeAt/anchor
	// shadow, built on first use (the farm's dispatcher never changes) and
	// rebuilt per call; nil when the dispatcher has none.
	idx routeIndex
	// cfgs is the per-server configuration snapshot of the linear routing
	// arm: RouteVirtual and the shadow advance price each server from its
	// own entry. Refilled on every call that routes without the index.
	cfgs []queue.Config
	// ord maps bucket positions back to slice positions (ord[offsets[s]+i]
	// is the slice index of server s's i-th job), computed only while
	// RecordServe recording is armed so responses land at stream positions.
	ord []int
	// done[s] is how many of server s's substream jobs the current slice
	// actually simulated — equal to count[s] on success, fewer when the
	// engine failed mid-substream — so perSrv stays consistent with engine
	// state even on error returns.
	done []int
	errs []error
	// body advances one server's substream for the current slice; stored so
	// per-slice pool submissions allocate no closure.
	body func(worker, s int)
}

// sliced returns the farm's sliced-dispatch scratch, allocating on first use
// and growing the per-slice buffers when sliceJobs exceeds their capacity.
// When the farm's server count changed since the last call — a Select view
// refilled with a different subset — the per-server arrays resize in place
// (capacity reused) and the routing index is rebound to the moved shadow.
func (f *Farm) sliced(sliceJobs int) *slicedState {
	k := len(f.engines)
	sl := f.sl
	if sl != nil && len(sl.freeAt) != k {
		sl.freeAt = resizeFloats(sl.freeAt, k)
		sl.anchor = resizeFloats(sl.anchor, k)
		sl.offsets = resizeInts(sl.offsets, k+1)
		sl.fill = resizeInts(sl.fill, k)
		sl.count = resizeInts(sl.count, k)
		sl.done = resizeInts(sl.done, k)
		sl.errs = resizeErrs(sl.errs, k)
		if sl.idx != nil {
			// The index aliases the shadow slices; the resize moved them.
			sl.idx.rebind(sl.freeAt, sl.anchor)
		}
	}
	if sl == nil {
		sl = &slicedState{
			f:       f,
			freeAt:  make([]float64, k),
			anchor:  make([]float64, k),
			offsets: make([]int, k+1),
			fill:    make([]int, k),
			count:   make([]int, k),
			done:    make([]int, k),
			errs:    make([]error, k),
		}
		sl.body = func(_, s int) {
			sub := sl.backing[sl.offsets[s]:sl.offsets[s+1]]
			eng := sl.f.engines[s]
			rec, recSrv, base, off := sl.f.recResp, sl.f.recSrv, sl.f.recBase, sl.offsets[s]
			for i := range sub {
				r, err := eng.Process(sub[i])
				if err != nil {
					sl.errs[s] = fmt.Errorf("farm: server %d: %w", s, err)
					sl.done[s] = i
					return
				}
				if rec != nil || recSrv != nil {
					gi := base + sl.ord[off+i]
					if rec != nil {
						rec[gi] = r
					}
					if recSrv != nil {
						recSrv[gi] = s
					}
				}
			}
			sl.done[s] = len(sub)
		}
		f.sl = sl
	}
	if cap(sl.slice) < sliceJobs {
		sl.slice = make([]queue.Job, 0, sliceJobs)
		sl.assign = make([]int, sliceJobs)
		sl.backing = make([]queue.Job, sliceJobs)
	}
	return sl
}

// ServeSourceSliced is the time-sliced parallel analogue of ServeSource: it
// dispatches every job src delivers through the farm's dispatcher and
// simulates the per-server substreams concurrently on the persistent worker
// pool, returning the number served. The stream is consumed slice by slice;
// within a slice routing is decided serially — by Preassign for
// state-independent dispatchers, or against the freeAt/anchor shadow
// advanced with queue.Config.NextFreeAtAnchored for VirtualRouters (through
// the O(log k) index when the farm is homogeneous and the dispatcher has
// one, by RouteVirtual's linear scan otherwise) — then the servers advance in
// parallel and the pool's reusable barrier resynchronizes the shadow from
// the engines before the next slice. Because the shadow recursion mirrors
// Engine.Process bit for bit, every routing decision equals the one the
// sequential ServeSource would make, and each engine sees the same jobs in
// the same order: results are bit-identical to the sequential dispatch for
// every slice size and pool size.
//
// All slicing scratch is farm-owned and reused, so after the first call a
// Reset + ServeSourceSliced cycle allocates nothing. Deferred source errors
// are the caller's to check (DispatchSource does).
func (f *Farm) ServeSourceSliced(src queue.JobSource, opts DispatchOptions) (int, error) {
	k := len(f.engines)
	pre, isPre := f.disp.(Preassigner)
	vr, isVR := f.disp.(VirtualRouter)
	if !isPre && !isVR {
		return 0, fmt.Errorf("farm: dispatcher %s supports neither preassignment nor virtual routing; run it sequentially (DispatchOptions{Parallel: false})", f.disp.Name())
	}
	sliceJobs := opts.SliceJobs
	if sliceJobs < 1 {
		sliceJobs = DefaultSliceJobs
	}
	sl := f.sliced(sliceJobs)
	if sl.cursor == nil {
		sl.cursor = stream.NewCursor(src)
	} else {
		sl.cursor.Reset(src)
	}
	// Anchor the shadow on the engines' current availability and idle
	// anchors, so a warm farm can continue a stream mid-flight — including
	// one reconfigured while idle, whose anchor moved away from freeAt.
	for s, eng := range f.engines {
		sl.freeAt[s] = eng.FreeAt()
		sl.anchor[s] = eng.IdleAnchor()
		sl.errs[s] = nil
	}
	pool := par.Default()
	// Virtual routing prices service and wake-ups from the engines' live
	// configurations, which ServeSourceSliced never switches mid-run. A
	// homogeneous farm (the overwhelmingly common case, and the only one the
	// routing index supports) routes through the dispatcher's index, priced
	// by the shared configuration; every other virtual route — per-server
	// fleet policies, or a dispatcher without an index — takes the linear
	// arm over a per-server configuration snapshot.
	var cfg queue.Config
	var ridx routeIndex
	if !isPre {
		if sl.idx == nil {
			sl.idx = newRouteIndexFor(f.disp, sl.freeAt, sl.anchor)
		}
		cfg = f.engines[0].Config()
		if sl.idx != nil && f.uniform(&cfg) {
			sl.idx.reset(cfg)
			ridx = sl.idx
		} else {
			if cap(sl.cfgs) < k {
				sl.cfgs = make([]queue.Config, k)
			}
			sl.cfgs = sl.cfgs[:k]
			for s, eng := range f.engines {
				sl.cfgs[s] = eng.Config()
			}
		}
	}
	f.recBase = 0
	recording := f.recResp != nil || f.recSrv != nil

	served := 0
	for {
		// Fill the next slice from the chunk cursor.
		slice := sl.slice[:0]
		for len(slice) < sliceJobs {
			j, ok := sl.cursor.Peek()
			if !ok {
				break
			}
			slice = append(slice, j)
			sl.cursor.Advance()
		}
		sl.slice = slice
		if len(slice) == 0 {
			return served, nil
		}

		// Route the slice serially: this is the dispatch-forced
		// synchronization the mode's name refers to.
		assign := sl.assign[:len(slice)]
		switch {
		case isPre:
			pre.Preassign(k, slice, assign)
		case ridx != nil:
			// O(log k) per job; the index commits the shadow advance itself.
			for i := range slice {
				assign[i] = ridx.route(slice[i])
			}
		default:
			// Linear arm: route against the shadow, then advance the picked
			// server's shadow under its own configuration, so pricing
			// matches each engine's live policy exactly.
			for i := range slice {
				s := vr.RouteVirtual(sl.cfgs, sl.freeAt, sl.anchor, slice[i])
				assign[i] = s
				if s >= 0 && s < k {
					nf := sl.cfgs[s].NextFreeAtAnchored(sl.freeAt[s], sl.anchor[s], slice[i])
					sl.freeAt[s], sl.anchor[s] = nf, nf
				}
			}
		}
		for s := range sl.count {
			sl.count[s] = 0
		}
		for _, s := range assign {
			if s < 0 || s >= k {
				return served, fmt.Errorf("farm: dispatcher %s picked server %d of %d", f.disp.Name(), s, k)
			}
			sl.count[s]++
		}

		bucketByServer(slice, assign, sl.count, sl.offsets, sl.fill, sl.backing)
		if recording {
			// Invert the bucketing so workers can write each job's response
			// at its stream position: ord[bucket position] = slice index,
			// built by replaying the counting sort's fill pass over the
			// offsets it just computed.
			if cap(sl.ord) < len(slice) {
				sl.ord = make([]int, len(slice))
			}
			sl.ord = sl.ord[:len(slice)]
			copy(sl.fill, sl.offsets[:k])
			for i, s := range assign {
				sl.ord[sl.fill[s]] = i
				sl.fill[s]++
			}
		}

		// Advance the servers concurrently; the pool's reusable barrier is
		// the slice barrier. RunSharded pins each executor slot to the same
		// contiguous server range every slice, so workers keep their engines
		// hot across barriers instead of re-sharding them. perSrv accounts
		// only jobs actually simulated (done, not count), so a mid-substream
		// failure leaves the farm's counters consistent with its engines.
		pool.RunSharded(k, opts.Workers, sl.body)
		simulated := 0
		for s := range sl.count {
			f.perSrv[s] += sl.done[s]
			simulated += sl.done[s]
		}
		served += simulated
		f.recBase += len(slice)
		for _, err := range sl.errs {
			if err != nil {
				return served, err
			}
		}
		// Resynchronize the shadow from the engines — they agree bit for
		// bit with the NextFreeAtAnchored recursion, so this only re-anchors
		// the next slice's routing on the authoritative engine arithmetic.
		// The routing index only rebuilds if a mismatch actually appeared
		// (it never should; the check is the safety net that keeps a
		// hypothetical divergence from compounding across slices).
		if !isPre {
			dirty := false
			for s, eng := range f.engines {
				fa, an := eng.FreeAt(), eng.IdleAnchor()
				if sl.freeAt[s] != fa || sl.anchor[s] != an {
					sl.freeAt[s], sl.anchor[s] = fa, an
					dirty = true
				}
			}
			if dirty && ridx != nil {
				ridx.reset(cfg)
			}
		}
	}
}
