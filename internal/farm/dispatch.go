package farm

import (
	"fmt"
	"math/rand"

	"sleepscale/internal/queue"
	"sleepscale/internal/stream"
)

// PowerOfD is the power-of-d-choices discipline: at each arrival it samples
// D servers uniformly at random (with replacement) and joins the
// least-backlogged of the sample, ties toward the lowest sampled index — the
// classic load-balancing compromise between random dispatch (d = 1) and full
// JSQ (d = k), scanning d servers instead of the whole fleet. D must be ≥ 1
// and Rng non-nil. Every job consumes exactly D draws, in arrival order, so
// equal Rng states route a stream identically.
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

// indexFrom is the farm size from which the serve loop routes through the
// dispatcher's O(log k) index, when the index accepts the farm's
// configurations, instead of the linear scan, because below it the index
// costs more than the scan it replaces. Set from medians of 5 runs on a
// 2-core x86 VM at GOMAXPROCS 1 (serving about 10k jobs of a uniform
// farm's stationary stream at total ρ = 0.3): JSQ's scan took
// 0.93 ms and its index 1.08 ms at k = 8, they tied at k = 16 (1.12 vs
// 1.14 ms), and the index won from there (1.62 vs 1.21 ms at k = 32);
// least-work-left's index already won at k = 8 (1.83 vs 1.53 ms) and
// k = 16 (2.98 vs 1.76 ms).
const indexFrom = 16

// DispatchSource is the streaming k-way dispatch loop: it serves every job
// src delivers through a fresh k-server farm's ServeSource — each job routed
// through disp at its arrival instant, the stream never materialized — and
// finishes at the last departure. Peak job-buffer memory is one chunk;
// week-long streams run in O(chunk).
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
	if err := stream.Err(src); err != nil {
		return Result{}, fmt.Errorf("farm: job source: %w", err)
	}
	return f.Finish(f.LastFree())
}

// serveState is the farm-owned reusable scratch of ServeSource: the
// freeAt/anchor shadow, the per-server configuration snapshot, the routing
// index and the pull buffer. Each piece is allocated by the first call that
// needs it and reused across calls, which is what takes the loop's steady
// state to zero allocations.
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
	// buf receives each chunk pulled from the source.
	buf []queue.Job
}

// ServeSource dispatches every job src delivers — from its current position
// — through the farm's dispatcher, returning the number served. It is the
// farm's one serve loop: each job is routed against the freeAt/anchor
// shadow, never the engines, and served the moment it is routed. A farm of
// at least indexFrom servers routes JSQ, and LeastWorkLeft while every
// server runs one configuration, through the O(log k) index; every other
// farm and dispatcher calls RouteVirtual over the per-server configuration
// snapshot (the linear arm). The loop picks the routing arm from what the
// call can observe, never from an option, and because the index's shadow
// advance mirrors Engine.Process bit for bit, both arms send every job to
// the same server.
//
// All scratch is farm-owned and reused, so after the first call a Reset +
// ServeSource cycle allocates nothing. Deferred source errors are the
// caller's to check (DispatchSource does).
func (f *Farm) ServeSource(src queue.JobSource) (int, error) {
	return f.serve(src, nil)
}

// serve is the loop behind ServeSource and Run: it serves every job src
// delivers, one chunk at a time, or, when src is nil, the materialized
// stream jobs in place.
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
	if src == nil {
		return f.routeServe(jobs, 0, ridx)
	}
	if sc.buf == nil {
		sc.buf = make([]queue.Job, stream.DefaultChunk)
	}
	served := 0
	for {
		n, more := src.Next(sc.buf)
		if n > 0 {
			m, err := f.routeServe(sc.buf[:n], served, ridx)
			served += m
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

// routeServe routes and serves jobs one by one, returning how many it
// served; base is the stream position of jobs[0], where RecordServe
// recording lands. The index commits its own shadow advance; on the linear
// arm the picked server's availability and idle anchor are read back from
// its engine.
func (f *Farm) routeServe(jobs []queue.Job, base int, ridx routeIndex) (int, error) {
	disp, engines := f.disp, f.engines
	cfgs, freeAt, anchor := f.sc.cfgs, f.sc.freeAt, f.sc.anchor
	rec, recSrv := f.recResp, f.recSrv
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
