package farm

import (
	"fmt"
	"math/rand"

	"sleepscale/internal/queue"
)

// Dispatcher routes each arriving job to one of k servers. Its one rule,
// RouteVirtual, reads a lightweight per-server shadow instead of live
// engines: for server i, cfgs[i] is its live configuration, freeAt[i] the
// time its accepted work completes, and anchor[i] the start of its current
// idle schedule (queue.Engine.IdleAnchor), which differs from freeAt only for
// a server reconfigured (SetConfigAt) while idle and not served since. The
// farm keeps the shadow exact, so a routing decision never reads the
// servers' full energy-accounting engines. Dispatchers that ignore server
// state (round-robin, random) read only len(freeAt); those that compare
// backlogs alone (JSQ, PowerOfD) ignore cfgs and anchor.
type Dispatcher interface {
	// RouteVirtual returns the index of the server that should serve j.
	RouteVirtual(cfgs []queue.Config, freeAt, anchor []float64, j queue.Job) int
	// Name identifies the dispatcher in reports.
	Name() string
}

// RoundRobin cycles through servers in order.
type RoundRobin struct{ next int }

// RouteVirtual implements Dispatcher.
func (r *RoundRobin) RouteVirtual(_ []queue.Config, freeAt, _ []float64, _ queue.Job) int {
	i := r.next % len(freeAt)
	r.next++
	return i
}

// Name implements Dispatcher.
func (r *RoundRobin) Name() string { return "round-robin" }

// Random routes uniformly at random: one Rng draw per job, in arrival order.
type Random struct{ Rng *rand.Rand }

// RouteVirtual implements Dispatcher.
func (r *Random) RouteVirtual(_ []queue.Config, freeAt, _ []float64, _ queue.Job) int {
	return r.Rng.Intn(len(freeAt))
}

// Name implements Dispatcher.
func (r *Random) Name() string { return "random" }

// JSQ joins the shortest queue: the server with the least outstanding work
// at the arrival instant (ties break toward the lowest index).
type JSQ struct{}

// RouteVirtual implements Dispatcher.
func (JSQ) RouteVirtual(_ []queue.Config, freeAt, _ []float64, j queue.Job) int {
	best, bestWork := 0, shadowBacklog(freeAt[0], j.Arrival)
	for i := 1; i < len(freeAt); i++ {
		if w := shadowBacklog(freeAt[i], j.Arrival); w < bestWork {
			best, bestWork = i, w
		}
	}
	return best
}

// Name implements Dispatcher.
func (JSQ) Name() string { return "jsq" }

// shadowBacklog mirrors Engine.Backlog for the freeAt shadow.
func shadowBacklog(freeAt, t float64) float64 {
	if freeAt <= t {
		return 0
	}
	return freeAt - t
}

// Farm is a cluster of identical single-server queues.
type Farm struct {
	engines []*queue.Engine
	disp    Dispatcher
	// sc is the reusable scratch of ServeSource, held by value and filled on
	// first use so repeated Reset+ServeSource cycles are allocation-free.
	sc serveState
	// recResp/recSrv, when armed via RecordServe, receive each served job's
	// response time and server index at the job's stream position.
	recResp []float64
	recSrv  []int
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
	f := &Farm{disp: disp, engines: make([]*queue.Engine, 0, k)}
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
// fresh New would, reusing all engine buffers — so one farm can serve many
// streamed runs without allocating. Dispatcher state (a round-robin cursor,
// a random source) is not touched: reseed or rebuild the dispatcher for
// reproducible replays; JSQ is stateless.
func (f *Farm) Reset(cfg queue.Config) error {
	for _, eng := range f.engines {
		if err := eng.Reset(cfg, 0); err != nil {
			return err
		}
	}
	return nil
}

// Server exposes server i's engine (for per-server policy switches).
func (f *Farm) Server(i int) *queue.Engine { return f.engines[i] }

// Select builds (or refills) a compact view over an arbitrary subset of the
// farm's servers: idx names parent server indices in strictly ascending
// order, and the view's server i is the parent's idx[i]. The view shares the
// parent's engines and dispatcher — dispatcher state (a round-robin cursor,
// a random source) advances across parent and view alike — with its own
// serving scratch; the parent still finishes and reports every engine. This
// is how the fleet coordinator removes parked and crashed servers from
// routing. Because the view is compact and idx ascending, every dispatcher's
// lowest-index tie break resolves to the lowest surviving parent index:
// routing through the view is exactly the parent's routing with the
// excluded servers skipped, on the O(log k) index and the linear arm alike.
//
// Pass the previous return value as view to reuse its storage (including the
// serving scratch, which resizes in place when the subset size changes);
// pass nil to start one. The view stays valid until the parent's engines are
// replaced — Reset keeps it alive.
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
	return view, nil
}

// RecordServe arms per-job recording for subsequent serves: every job the
// next ServeSource call simulates writes its response time to resp[i] and
// its routed server index to srv[i], where i is the job's position in the
// served stream (restarting at 0 each call). Either slice may be nil to skip
// that column; both must cover every job the call serves. Recording stays
// armed until the next RecordServe; RecordServe(nil, nil) disarms, returning
// the serve path to zero recording overhead.
func (f *Farm) RecordServe(resp []float64, srv []int) {
	f.recResp, f.recSrv = resp, srv
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

// Finish closes every server at time at and aggregates. Job shares count
// every job each engine served, through this farm or any Select view of it.
func (f *Farm) Finish(at float64) (Result, error) {
	out := Result{
		PerServer: make([]queue.Result, 0, len(f.engines)),
		JobShare:  make([]float64, len(f.engines)),
	}
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
		for i, res := range out.PerServer {
			out.JobShare[i] = float64(res.Jobs) / float64(out.Jobs)
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
func (f *Farm) LastFree() float64 {
	last := 0.0
	for _, eng := range f.engines {
		if t := eng.FreeAt(); t > last {
			last = t
		}
	}
	return last
}

// Run is a convenience: dispatch a whole sorted job stream, served in place
// by the farm's one serve loop, and finish at the last departure across
// servers. Engines are fresh per call, so the returned Result never aliases
// reused storage; DispatchSource is the streamed counterpart.
func Run(k int, cfg queue.Config, disp Dispatcher, jobs []queue.Job) (Result, error) {
	f, err := New(k, cfg, disp)
	if err != nil {
		return Result{}, err
	}
	if _, err := f.serve(nil, jobs); err != nil {
		return Result{}, err
	}
	return f.Finish(f.LastFree())
}

// resize returns s with length n, reusing its capacity; the contents are
// unspecified (callers overwrite or clear them).
func resize[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}
