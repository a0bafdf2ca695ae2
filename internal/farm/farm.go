package farm

import (
	"fmt"
	"math/rand"

	"sleepscale/internal/queue"
	"sleepscale/internal/stream"
)

// Dispatcher routes each arriving job to one of k servers.
type Dispatcher interface {
	// Pick returns the index of the server that should serve j.
	Pick(f *Farm, j queue.Job) int
	// Name identifies the dispatcher in reports.
	Name() string
}

// Preassigner is the optional fast path for dispatchers whose routing does
// not depend on server state (round-robin, random — not JSQ): Preassign
// computes the server index for every job of a sorted slice up front, which
// lets the sliced driver simulate the per-server substreams in parallel and
// merge the results deterministically. Preassign must consume exactly the same
// dispatcher state (counters, randomness) as the equivalent sequence of Pick
// calls, so the two paths route identically.
type Preassigner interface {
	Preassign(k int, jobs []queue.Job, dst []int)
}

// RoundRobin cycles through servers in order.
type RoundRobin struct{ next int }

// Pick implements Dispatcher.
func (r *RoundRobin) Pick(f *Farm, _ queue.Job) int {
	i := r.next % f.Size()
	r.next++
	return i
}

// Preassign implements Preassigner.
func (r *RoundRobin) Preassign(k int, jobs []queue.Job, dst []int) {
	for i := range jobs {
		dst[i] = r.next % k
		r.next++
	}
}

// Name implements Dispatcher.
func (r *RoundRobin) Name() string { return "round-robin" }

// Random routes uniformly at random.
type Random struct{ Rng *rand.Rand }

// Pick implements Dispatcher.
func (r *Random) Pick(f *Farm, _ queue.Job) int { return r.Rng.Intn(f.Size()) }

// Preassign implements Preassigner; it draws from the Rng in arrival order,
// matching the Pick sequence draw for draw.
func (r *Random) Preassign(k int, jobs []queue.Job, dst []int) {
	for i := range jobs {
		dst[i] = r.Rng.Intn(k)
	}
}

// Name implements Dispatcher.
func (r *Random) Name() string { return "random" }

// JSQ joins the shortest queue: the server with the least outstanding work
// at the arrival instant (ties break toward the lowest index).
type JSQ struct{}

// Pick implements Dispatcher.
func (JSQ) Pick(f *Farm, j queue.Job) int {
	best, bestWork := 0, f.engines[0].Backlog(j.Arrival)
	for i := 1; i < len(f.engines); i++ {
		if w := f.engines[i].Backlog(j.Arrival); w < bestWork {
			best, bestWork = i, w
		}
	}
	return best
}

// Name implements Dispatcher.
func (JSQ) Name() string { return "jsq" }

// Farm is a cluster of identical single-server queues.
type Farm struct {
	engines []*queue.Engine
	disp    Dispatcher
	perSrv  []int
	// chunk is the farm-owned pull buffer of ServeSource, allocated on
	// first use so repeated Reset+ServeSource cycles are allocation-free.
	chunk []queue.Job
	// sl is the reusable scratch of ServeSourceSliced, allocated on first
	// use so repeated sliced parallel runs are allocation-free too.
	sl *slicedState
	// recResp/recSrv, when armed via RecordServe, receive each sliced-served
	// job's response time and server index at the job's stream position;
	// recBase is the running stream offset within one serve call.
	recResp []float64
	recSrv  []int
	recBase int
}

// New builds a farm of k servers, each starting idle at time 0 under cfg,
// with the given dispatcher.
func New(k int, cfg queue.Config, disp Dispatcher) (*Farm, error) {
	if k < 1 {
		return nil, fmt.Errorf("farm: size %d < 1", k)
	}
	if disp == nil {
		return nil, fmt.Errorf("farm: nil dispatcher")
	}
	f := &Farm{disp: disp, perSrv: make([]int, k)}
	for i := 0; i < k; i++ {
		eng, err := queue.NewEngine(cfg, 0)
		if err != nil {
			return nil, err
		}
		f.engines = append(f.engines, eng)
	}
	return f, nil
}

// Size reports the number of servers.
func (f *Farm) Size() int { return len(f.engines) }

// Reset rewinds every server to start idle at time 0 under cfg, exactly as a
// fresh New would, reusing all engine buffers, and zeroes the job counters —
// so one farm can serve many streamed runs without allocating. Dispatcher
// state (a round-robin cursor, a random source) is not touched: reseed or
// rebuild the dispatcher for reproducible replays; JSQ is stateless.
func (f *Farm) Reset(cfg queue.Config) error {
	for _, eng := range f.engines {
		if err := eng.Reset(cfg, 0); err != nil {
			return err
		}
	}
	for i := range f.perSrv {
		f.perSrv[i] = 0
	}
	return nil
}

// ServeSource dispatches every job src delivers — from its current position,
// in chunk-sized pulls — through the farm's dispatcher, returning the number
// served. This is the sequential streaming dispatch loop: engines advance in
// virtual-time (arrival) order, so state-dependent dispatchers like JSQ see
// accurate queue depths, and peak job-buffer memory is one farm-owned chunk
// however long the stream. Deferred source errors are the caller's to check
// (DispatchSource does).
func (f *Farm) ServeSource(src queue.JobSource) (int, error) {
	if f.chunk == nil {
		f.chunk = make([]queue.Job, stream.DefaultChunk)
	}
	served := 0
	for {
		n, ok := src.Next(f.chunk)
		for i := 0; i < n; i++ {
			if _, _, err := f.Process(f.chunk[i]); err != nil {
				return served + i, fmt.Errorf("farm: job %d: %w", served+i, err)
			}
		}
		served += n
		if !ok {
			return served, nil
		}
	}
}

// Server exposes server i's engine (for per-server policy switches).
func (f *Farm) Server(i int) *queue.Engine { return f.engines[i] }

// Subfarm returns a view over the first n servers: it shares the parent's
// engines and dispatcher — dispatcher state (a round-robin cursor, a random
// source) advances across parent and view alike — with its own job counters
// and serving scratch. Serving through the view routes over servers [0, n)
// only, which is how the fleet coordinator removes parked servers from
// routing while its active set is a prefix (Select covers the rest); the
// parent still finishes and reports all k engines. Views stay valid across
// the parent's Reset.
func (f *Farm) Subfarm(n int) (*Farm, error) {
	if n < 1 || n > len(f.engines) {
		return nil, fmt.Errorf("farm: subfarm size %d of a %d-server farm", n, len(f.engines))
	}
	return &Farm{engines: f.engines[:n], disp: f.disp, perSrv: make([]int, n)}, nil
}

// Select builds (or refills) a compact view over an arbitrary subset of the
// farm's servers: idx names parent server indices in strictly ascending
// order, and the view's server i is the parent's idx[i]. Like Subfarm the
// view shares the parent's engines and dispatcher, with its own counters and
// serving scratch — but the subset need not be a prefix, which is how the
// fleet coordinator excludes crashed servers from routing while parked and
// healthy servers keep arbitrary positions. Because the view is compact and
// idx ascending, every dispatcher's lowest-index tie break resolves to the
// lowest surviving parent index: routing through the view is exactly the
// parent's routing with the excluded servers skipped, on the O(log k) index
// and the linear arm alike.
//
// Pass the previous return value as view to reuse its storage (including the
// sliced-dispatch scratch, which resizes in place when the subset size
// changes); pass nil to start one. The view stays valid until the parent's
// engines are replaced — Reset keeps it alive.
func (f *Farm) Select(view *Farm, idx []int) (*Farm, error) {
	if len(idx) == 0 {
		return nil, fmt.Errorf("farm: empty server selection")
	}
	if view == nil {
		view = &Farm{}
	}
	view.disp = f.disp
	view.engines = view.engines[:0]
	prev := -1
	for _, s := range idx {
		if s <= prev || s >= len(f.engines) {
			return nil, fmt.Errorf("farm: selection index %d (after %d) of a %d-server farm; indices must be ascending and in range", s, prev, len(f.engines))
		}
		prev = s
		view.engines = append(view.engines, f.engines[s])
	}
	view.perSrv = resizeInts(view.perSrv, len(idx))
	for i := range view.perSrv {
		view.perSrv[i] = 0
	}
	return view, nil
}

// RecordServe arms per-job recording for subsequent sliced serves: every job
// the next ServeSourceSliced call simulates writes its response time to
// resp[i] and its routed server index to srv[i], where i is the job's
// position in the served stream (restarting at 0 each call). Either slice
// may be nil to skip that column; both must cover every job the call serves.
// Recording stays armed until the next RecordServe; RecordServe(nil, nil)
// disarms, returning the serve path to zero recording overhead.
func (f *Farm) RecordServe(resp []float64, srv []int) {
	f.recResp, f.recSrv = resp, srv
}

// Process dispatches and serves one job, returning its response time and
// the chosen server. Jobs must arrive in non-decreasing order.
func (f *Farm) Process(j queue.Job) (response float64, server int, err error) {
	server = f.disp.Pick(f, j)
	if server < 0 || server >= len(f.engines) {
		return 0, 0, fmt.Errorf("farm: dispatcher %s picked server %d of %d",
			f.disp.Name(), server, len(f.engines))
	}
	resp, err := f.engines[server].Process(j)
	if err != nil {
		return 0, server, err
	}
	f.perSrv[server]++
	return resp, server, nil
}

// Result aggregates a farm run.
type Result struct {
	// PerServer holds each server's individual result.
	PerServer []queue.Result
	// Jobs is the total served.
	Jobs int
	// MeanResponse is the job-weighted mean response across servers.
	MeanResponse float64
	// TotalAvgPower is the sum of per-server average powers — the
	// cluster's steady draw in watts.
	TotalAvgPower float64
	// Energy is total joules.
	Energy float64
	// JobShare[i] is the fraction of jobs server i handled.
	JobShare []float64
}

// Finish closes every server at time at and aggregates.
func (f *Farm) Finish(at float64) (Result, error) {
	out := Result{JobShare: make([]float64, len(f.engines))}
	var respSum float64
	for _, eng := range f.engines {
		res, err := eng.Finish(at)
		if err != nil {
			return Result{}, err
		}
		out.PerServer = append(out.PerServer, res)
		out.Jobs += res.Jobs
		respSum += res.MeanResponse * float64(res.Jobs)
		out.TotalAvgPower += res.AvgPower
		out.Energy += res.Energy
	}
	if out.Jobs > 0 {
		out.MeanResponse = respSum / float64(out.Jobs)
		for i := range f.perSrv {
			out.JobShare[i] = float64(f.perSrv[i]) / float64(out.Jobs)
		}
	}
	return out, nil
}

// Summary is the scalar aggregate of a farm run: the fleet-wide quantities of
// Result without the per-server results, residency maps or response samples —
// producing one allocates nothing and never aliases farm storage, so it is
// what the steady-state reuse loops (Reset + serve + FinishSummary) report.
type Summary struct {
	// Jobs is the total served across servers.
	Jobs int
	// MeanResponse is the job-weighted mean response across servers.
	MeanResponse float64
	// TotalAvgPower is the sum of per-server average powers, in watts.
	TotalAvgPower float64
	// Energy is total joules.
	Energy float64
}

// FinishSummary closes every server at time at and returns the scalar
// fleet aggregate. Unlike Finish it materializes no residency maps and
// exposes no samples, so the farm can be Reset and reused without
// invalidating the return value — the farm-level analogue of
// queue.Engine.FinishSummary.
func (f *Farm) FinishSummary(at float64) Summary {
	var out Summary
	var respSum float64
	for _, eng := range f.engines {
		sum := eng.FinishSummary(at)
		out.Jobs += sum.Jobs
		respSum += sum.MeanResponse * float64(sum.Jobs)
		out.TotalAvgPower += sum.AvgPower
		out.Energy += sum.Energy
	}
	if out.Jobs > 0 {
		out.MeanResponse = respSum / float64(out.Jobs)
	}
	return out
}

// LastFree reports the latest work-completion time across the farm's servers
// — the natural Finish instant of a drained stream.
func (f *Farm) LastFree() float64 { return lastFree(f.engines) }

// Run is a convenience: dispatch a whole sorted job stream job by job and
// finish at the last departure across servers. Engines are fresh per call,
// so the returned Result never aliases reused storage; DispatchSource is the
// streamed (and optionally parallel) counterpart.
func Run(k int, cfg queue.Config, disp Dispatcher, jobs []queue.Job) (Result, error) {
	f, err := New(k, cfg, disp)
	if err != nil {
		return Result{}, err
	}
	for i, j := range jobs {
		if _, _, err := f.Process(j); err != nil {
			return Result{}, fmt.Errorf("farm: job %d: %w", i, err)
		}
	}
	return f.Finish(lastFree(f.engines))
}

// lastFree reports the latest departure across engines.
func lastFree(engines []*queue.Engine) float64 {
	last := 0.0
	for _, eng := range engines {
		if t := eng.FreeAt(); t > last {
			last = t
		}
	}
	return last
}

// resizeInts returns s with length n, reusing capacity; contents are
// unspecified (callers overwrite).
func resizeInts(s []int, n int) []int {
	if cap(s) < n {
		return make([]int, n)
	}
	return s[:n]
}

// bucketByServer fills backing with jobs grouped into contiguous per-server
// substreams — a counting sort on assign that preserves arrival order within
// each server, the time-sliced dispatch driver's per-slice fan-out step.
// counts must already tally assign; offsets
// (length k+1) and fill are scratch, overwritten. On return,
// backing[offsets[s]:offsets[s+1]] is server s's substream.
func bucketByServer(jobs []queue.Job, assign, counts, offsets, fill []int, backing []queue.Job) {
	k := len(counts)
	offsets[0] = 0
	for s := 0; s < k; s++ {
		offsets[s+1] = offsets[s] + counts[s]
	}
	copy(fill, offsets[:k])
	for i, s := range assign {
		backing[fill[s]] = jobs[i]
		fill[s]++
	}
}
