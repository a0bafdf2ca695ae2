package farm

import (
	"fmt"
	"math/rand"

	"sleepscale/internal/par"
	"sleepscale/internal/queue"
	"sleepscale/internal/stream"
)

// PowerOfD is the power-of-d-choices discipline: at each arrival it samples
// D servers uniformly at random (with replacement) and joins the
// least-backlogged of the sample, ties toward the lowest sampled index — the
// classic load-balancing compromise between random dispatch (d = 1) and full
// JSQ (d = k), scanning d servers instead of the whole fleet. D must be ≥ 1
// and Rng non-nil. Every job consumes exactly D draws, in arrival order, so
// equal Rng states route identically on every serve arm.
type PowerOfD struct {
	// D is the sample size (2 is the textbook choice).
	D int
	// Rng drives the sampling; seed it for reproducible runs.
	Rng *rand.Rand
}

// RouteVirtual implements Dispatcher: D draws, each sampled server priced by
// its shadow backlog.
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
// Pricing always follows the engines' live configurations: ServeSource
// routes through the O(log k) index or RouteVirtual, both priced from the
// live operating point, so routing stays exact even when SetConfigAt
// switches configurations between calls (the fleet coordinator's
// epoch-boundary policy changes). Idle pricing follows each server's actual
// idle anchor, which the farm carries in a shadow alongside freeAt, so the
// first wake after a mid-run SetConfigAt during an idle period is priced
// exactly (the anchor the switch moved is honored, not assumed equal to
// freeAt).
type LeastWorkLeft struct{}

// RouteVirtual implements Dispatcher: the earliest completion of j across
// servers, computed by the same availability recursion the engines run, with
// wake-ups and service priced from each server's own configuration and idle
// anchor.
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

// defaultSliceJobs is the pooled arm's synchronization granularity: jobs
// routed per slice between barriers. Larger slices amortize the barrier; the
// slice buffer (not the stream) is the arm's memory high-water mark.
const defaultSliceJobs = 4096

// inlineBelow is the farm size from which ServeSource pools. Smaller farms,
// and every call with a single executor, take the inline arm. Set from
// medians of 5 runs on a 2-core x86 VM at GOMAXPROCS 2 (JSQ, stationary
// streams): inline beat pooled by 17–25% at k = 4 and 16 and by 7–18% at
// k = 64; from k = 256 up the two came within about 10% of each other
// either way (a heterogeneous k = 1,000 farm: 85 ms inline, 83 ms pooled).
const inlineBelow = 256

// indexFrom is the farm size from which the serve loop routes through the
// dispatcher's O(log k) index, when the index accepts the farm's
// configurations, instead of the linear scan, because below it the index
// costs more than the scan it replaces. Set from medians of 5 runs on a
// 2-core x86 VM at GOMAXPROCS 1 (the inline arm serving about 10k jobs of
// a uniform farm's stationary stream at total ρ = 0.3): JSQ's scan took
// 0.93 ms and its index 1.08 ms at k = 8, they tied at k = 16 (1.12 vs
// 1.14 ms), and the index won from there (1.62 vs 1.21 ms at k = 32);
// least-work-left's index already won at k = 8 (1.83 vs 1.53 ms) and
// k = 16 (2.98 vs 1.76 ms).
const indexFrom = 16

// DispatchSource is the streaming k-way dispatch loop: it serves every job
// src delivers through a fresh k-server farm's ServeSource — each job routed
// through disp at its arrival instant, the stream never materialized — and
// finishes at the last departure. Peak job-buffer memory is one chunk or one
// slice; week-long streams run in O(chunk).
//
// The source is consumed from its current position; sources exposing
// Err() error surface their deferred failure. Engines are fresh per call, so
// the returned Result never aliases reused storage; steady-state callers
// should hold a Farm and drive Reset + ServeSource + FinishSummary instead.
func DispatchSource(k int, cfg queue.Config, disp Dispatcher, src queue.JobSource) (Result, error) {
	if src == nil {
		return Result{}, fmt.Errorf("farm: nil job source")
	}
	f, err := New(k, cfg, disp)
	if err != nil {
		return Result{}, err
	}
	if _, err := f.ServeSource(src); err != nil {
		return Result{}, err
	}
	if err := sourceErr(src); err != nil {
		return Result{}, fmt.Errorf("farm: job source: %w", err)
	}
	return f.Finish(f.LastFree())
}

// sourceErr reports a source's deferred mid-stream failure, if any.
func sourceErr(src queue.JobSource) error {
	if es, ok := src.(interface{ Err() error }); ok {
		return es.Err()
	}
	return nil
}

// serveState is the farm-owned reusable scratch of ServeSource: the
// freeAt/anchor shadow, the per-server configuration snapshot, the routing
// index, the pull buffer, and the pooled arm's routing table,
// bucketed-substream backing, per-server counters, merge offsets and stored
// worker closure. Each piece is allocated by the first call that needs it
// and reused across calls, which is what takes the loop's steady state to
// zero allocations.
type serveState struct {
	// shadow backs freeAt (its first k entries) and anchor (the next k)
	// with one array.
	shadow []float64
	freeAt []float64
	anchor []float64
	// cfgs is the per-server configuration snapshot: RouteVirtual, the
	// index and the shadow advance price each server from its own entry.
	// Refilled on every call.
	cfgs []queue.Config
	// idx is the dispatcher's O(log k) routing index over the shadow, built
	// on first use (the farm's dispatcher never changes) and rebuilt per
	// call; nil when the dispatcher has none.
	idx routeIndex
	// buf receives each batch pulled from the source: a chunk on the
	// inline arm, a slice on the pooled arm.
	buf []queue.Job

	assign  []int
	backing []queue.Job
	offsets []int
	fill    []int
	count   []int
	// ord maps bucket positions back to slice positions (ord[offsets[s]+i]
	// is the slice index of server s's i-th job), computed only while
	// RecordServe recording is armed so responses land at stream positions.
	ord []int
	// done[s] is how many of server s's substream jobs the current slice
	// actually simulated — equal to count[s] on success, fewer when the
	// engine failed mid-substream — so the served count stays consistent
	// with engine state even on error returns.
	done []int
	errs []error
	// body advances one server's substream for the current slice; stored so
	// per-slice pool submissions allocate no closure.
	body func(worker, s int)
}

// ServeSource dispatches every job src delivers — from its current position
// — through the farm's dispatcher, returning the number served. It is the
// farm's one serve loop. Routing reads the freeAt/anchor shadow, never the
// engines, and the loop picks its arms from what the call can observe:
//
//   - Routing: a farm of at least indexFrom servers routes JSQ, and
//     LeastWorkLeft while every server runs one configuration, through the
//     O(log k) index; every other farm and dispatcher calls RouteVirtual
//     over the per-server configuration snapshot (the linear arm).
//   - Serving: with one executor, or on a farm smaller than inlineBelow,
//     each job is served the moment it is routed (the inline arm).
//     Otherwise the stream is cut into slices, each routed serially and
//     then simulated per server concurrently on the persistent worker pool
//     (the pooled arm).
//
// Because the shadow recursion mirrors Engine.Process bit for bit, every
// arm routes each job to the same server and each engine sees the same jobs
// in the same order: results never depend on the arm, the slice size or the
// pool size.
//
// All scratch is farm-owned and reused, so after the first call a Reset +
// ServeSource cycle allocates nothing. Deferred source errors are the
// caller's to check (DispatchSource does).
func (f *Farm) ServeSource(src queue.JobSource) (int, error) {
	return f.serve(src, nil)
}

// serve is the loop behind ServeSource and Run: it serves every job src
// delivers or, when src is nil, the materialized stream jobs in place, one
// batch at a time.
func (f *Farm) serve(src queue.JobSource, jobs []queue.Job) (int, error) {
	k := len(f.engines)
	sc := &f.sc
	if len(sc.freeAt) != k {
		if cap(sc.shadow) < 2*k {
			sc.shadow = make([]float64, 2*k)
		}
		sc.freeAt, sc.anchor = sc.shadow[:k:k], sc.shadow[k:2*k:2*k]
		if sc.idx != nil {
			// The index aliases the shadow slices; the resize moved them.
			sc.idx.rebind(sc.freeAt, sc.anchor)
		}
	}
	// Anchor the shadow on the engines' current availability and idle
	// anchors, so a warm farm can continue a stream mid-flight — including
	// one reconfigured while idle, whose anchor moved away from freeAt.
	for s, eng := range f.engines {
		sc.freeAt[s], sc.anchor[s] = eng.FreeAt(), eng.IdleAnchor()
	}
	ridx := f.router()
	executors := par.Default().Size()
	if f.workers > 0 && f.workers < executors {
		executors = f.workers
	}
	pooled := k >= inlineBelow && executors >= 2
	size := stream.DefaultChunk
	if pooled {
		if size = f.sliceJobs; size < 1 {
			size = defaultSliceJobs
		}
		f.pooled(size)
	}
	if src != nil && cap(sc.buf) < size {
		sc.buf = make([]queue.Job, size)
	}

	served := 0
	for {
		var batch []queue.Job
		var more bool
		if src != nil {
			var n int
			n, more = src.Next(sc.buf[:size])
			batch = sc.buf[:n]
		} else {
			batch = jobs[served:min(served+size, len(jobs))]
			more = served+len(batch) < len(jobs)
		}
		if len(batch) > 0 {
			f.recBase = served
			var n int
			var err error
			if pooled {
				n, err = f.serveSlice(batch, ridx)
			} else {
				n, err = f.routeServe(batch, ridx)
			}
			served += n
			if err != nil {
				return served, err
			}
		}
		if !more {
			return served, nil
		}
	}
}

// router snapshots every server's configuration, then picks the routing
// arm: a farm of at least indexFrom servers whose dispatcher has an index
// routes through it, reset from the shadow, if the index accepts the
// snapshot. Every other farm — smaller, behind a dispatcher without an
// index, or running configurations its index cannot price — gets nil and
// routes by the linear scan over the snapshot.
func (f *Farm) router() routeIndex {
	sc := &f.sc
	k := len(f.engines)
	sc.cfgs = resize(sc.cfgs, k)
	for s, eng := range f.engines {
		sc.cfgs[s] = eng.Config()
	}
	if k < indexFrom {
		return nil
	}
	if sc.idx == nil {
		sc.idx = newRouteIndexFor(f.disp, sc.freeAt, sc.anchor)
	}
	if sc.idx != nil && sc.idx.reset(sc.cfgs) {
		return sc.idx
	}
	return nil
}

// routeServe is the inline arm's step: it routes and serves jobs one by one,
// with no bucketing, barrier or resync, returning how many it served. The
// index commits its own shadow advance; on the linear arm the picked
// server's availability and idle anchor are read back from its engine.
func (f *Farm) routeServe(jobs []queue.Job, ridx routeIndex) (int, error) {
	disp, engines := f.disp, f.engines
	cfgs, freeAt, anchor := f.sc.cfgs, f.sc.freeAt, f.sc.anchor
	rec, recSrv, base := f.recResp, f.recSrv, f.recBase
	for i, j := range jobs {
		var s int
		if ridx != nil {
			s = ridx.route(j)
		} else if s = disp.RouteVirtual(cfgs, freeAt, anchor, j); s < 0 || s >= len(engines) {
			return i, fmt.Errorf("farm: dispatcher %s picked server %d of %d", disp.Name(), s, len(engines))
		}
		eng := engines[s]
		r, err := eng.Process(j)
		if err != nil {
			return i, fmt.Errorf("farm: server %d: %w", s, err)
		}
		if ridx == nil {
			freeAt[s], anchor[s] = eng.FreeAt(), eng.IdleAnchor()
		}
		if rec != nil {
			rec[base+i] = r
		}
		if recSrv != nil {
			recSrv[base+i] = s
		}
	}
	return len(jobs), nil
}

// pooled sizes the pooled arm's buffers for the farm's server count and
// sliceJobs — allocated on first use, resized in place when a Select view's
// subset size changed — and clears the per-server errors.
func (f *Farm) pooled(sliceJobs int) {
	sc := &f.sc
	k := len(f.engines)
	if len(sc.count) != k {
		sc.offsets = resize(sc.offsets, k+1)
		sc.fill = resize(sc.fill, k)
		sc.count = resize(sc.count, k)
		sc.done = resize(sc.done, k)
		sc.errs = resize(sc.errs, k)
	}
	clear(sc.errs)
	if sc.body == nil {
		sc.body = func(_, s int) {
			sub := sc.backing[sc.offsets[s]:sc.offsets[s+1]]
			eng := f.engines[s]
			rec, recSrv, base, off := f.recResp, f.recSrv, f.recBase, sc.offsets[s]
			for i := range sub {
				r, err := eng.Process(sub[i])
				if err != nil {
					sc.errs[s] = fmt.Errorf("farm: server %d: %w", s, err)
					sc.done[s] = i
					return
				}
				if rec != nil || recSrv != nil {
					gi := base + sc.ord[off+i]
					if rec != nil {
						rec[gi] = r
					}
					if recSrv != nil {
						recSrv[gi] = s
					}
				}
			}
			sc.done[s] = len(sub)
		}
	}
	if cap(sc.assign) < sliceJobs {
		sc.assign = make([]int, sliceJobs)
		sc.backing = make([]queue.Job, sliceJobs)
	}
}

// serveSlice is the pooled arm's step: it routes the slice serially against
// the shadow — through the index, or by RouteVirtual with the picked
// server's shadow advanced by queue.Config.NextFreeAtAnchored under its own
// configuration — then advances the servers' substreams in parallel, and the
// pool's reusable barrier resynchronizes the shadow from the engines before
// the next slice. It returns how many jobs the engines served.
func (f *Farm) serveSlice(slice []queue.Job, ridx routeIndex) (int, error) {
	k := len(f.engines)
	sc := &f.sc
	assign := sc.assign[:len(slice)]
	if ridx != nil {
		// O(log k) per job; the index commits the shadow advance itself.
		for i := range slice {
			assign[i] = ridx.route(slice[i])
		}
	} else {
		// Linear arm: route against the shadow, then advance the picked
		// server's shadow under its own configuration, so pricing matches
		// each engine's live policy exactly.
		for i := range slice {
			s := f.disp.RouteVirtual(sc.cfgs, sc.freeAt, sc.anchor, slice[i])
			assign[i] = s
			if s >= 0 && s < k {
				nf := sc.cfgs[s].NextFreeAtAnchored(sc.freeAt[s], sc.anchor[s], slice[i])
				sc.freeAt[s], sc.anchor[s] = nf, nf
			}
		}
	}
	for s := range sc.count {
		sc.count[s] = 0
	}
	for _, s := range assign {
		if s < 0 || s >= k {
			return 0, fmt.Errorf("farm: dispatcher %s picked server %d of %d", f.disp.Name(), s, k)
		}
		sc.count[s]++
	}

	bucketByServer(slice, assign, sc.count, sc.offsets, sc.fill, sc.backing)
	if f.recResp != nil || f.recSrv != nil {
		// Invert the bucketing so workers can write each job's response at
		// its stream position: ord[bucket position] = slice index, built by
		// replaying the counting sort's fill pass over the offsets it just
		// computed.
		sc.ord = resize(sc.ord, len(slice))
		copy(sc.fill, sc.offsets[:k])
		for i, s := range assign {
			sc.ord[sc.fill[s]] = i
			sc.fill[s]++
		}
	}

	// Advance the servers concurrently; the pool's reusable barrier is the
	// slice barrier. RunSharded pins each executor slot to the same
	// contiguous server range every slice, so workers keep their engines hot
	// across barriers instead of re-sharding them. The served count takes
	// only jobs actually simulated (done, not count), so a mid-substream
	// failure reports what the engines hold.
	par.Default().RunSharded(k, f.workers, sc.body)
	served := 0
	for _, d := range sc.done {
		served += d
	}
	for _, err := range sc.errs {
		if err != nil {
			return served, err
		}
	}
	// Resynchronize the shadow from the engines — they agree bit for bit
	// with the NextFreeAtAnchored recursion, so this only re-anchors the
	// next slice's routing on the authoritative engine arithmetic. The
	// routing index only rebuilds if a mismatch actually appeared (it never
	// should; the check is the safety net that keeps a hypothetical
	// divergence from compounding across slices).
	dirty := false
	for s, eng := range f.engines {
		fa, an := eng.FreeAt(), eng.IdleAnchor()
		if sc.freeAt[s] != fa || sc.anchor[s] != an {
			sc.freeAt[s], sc.anchor[s] = fa, an
			dirty = true
		}
	}
	if dirty && ridx != nil {
		ridx.reset(sc.cfgs) // accepted before, so accepted again
	}
	return served, nil
}
