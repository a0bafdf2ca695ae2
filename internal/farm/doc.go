// Package farm extends SleepScale to the multi-server setting the paper
// lists as future work (§7): a cluster of identical servers, each running
// its own power policy, with jobs spread across them by a dispatcher. It
// also enables the scale-out study of Gandhi & Harchol-Balter [6] — how the
// number of servers sharing a fixed aggregate load changes the value of
// dynamic power management — which the related-work section builds on.
//
// # Dispatchers
//
// A Dispatcher routes each arriving job to one of k servers; RoundRobin,
// Random, JSQ (join the shortest queue, by outstanding work), PowerOfD
// (d random choices, join the least backlogged of the sample) and
// LeastWorkLeft (earliest completion, wake-up latency included) are
// provided. Dispatchers may additionally implement one of two capability
// interfaces that unlock parallel simulation:
//
//   - Preassigner (round-robin, random): routing is independent of server
//     state, so the whole assignment can be computed up front and the
//     per-server substreams simulated concurrently.
//   - VirtualRouter (JSQ, PowerOfD, LeastWorkLeft): routing depends only on
//     each server's configuration, work-completion time and idle anchor, so
//     decisions can be made against a lightweight shadow advanced by
//     queue.Config.NextFreeAtAnchored — no live engines needed at routing
//     time. RouteVirtual always receives the per-server configuration
//     snapshot and the idle anchors: JSQ and PowerOfD compare backlogs and
//     ignore both, while LeastWorkLeft prices each server's wake-up and
//     service from its own configuration, exact even after a mid-run
//     SetConfigAt taken during an idle period moved the anchor past freeAt.
//
// # Drivers
//
// Every driver serves jobs through one Farm:
//
//   - Run dispatches a fully materialized, sorted job stream job by job
//     through Farm.Process.
//   - DispatchSource is the streaming k-way dispatch loop: jobs are pulled
//     from any queue.JobSource in bounded chunks and routed through the
//     dispatcher at their arrival instants, advancing the k engines in
//     virtual-time order so JSQ sees accurate queue depths without the
//     stream ever being materialized. Sequentially it runs
//     Farm.ServeSource; with DispatchOptions.Parallel it runs
//     Farm.ServeSourceSliced.
//   - Steady-state callers hold a Farm and drive Reset + ServeSource (or
//     ServeSourceSliced) + FinishSummary themselves, reusing every buffer.
//
// # Time-sliced parallel dispatch and its determinism contract
//
// DispatchSource's parallel mode (DispatchOptions.Parallel) removes the
// serial bottleneck of state-dependent dispatch: the stream is cut into
// slices at dispatch-forced synchronization points; each slice is routed
// serially — Preassign for state-independent dispatchers, the shadow
// recursion for VirtualRouters — and the per-server substreams then advance
// concurrently, with a barrier resynchronizing the shadow from the engines
// before the next slice. The contract is bit-identical determinism: because
// queue.Config.NextFreeAtAnchored mirrors Engine.Process's availability arithmetic
// operation for operation, every routing decision equals the one the
// sequential dispatch would make, each engine serves the same jobs in the
// same order, and the merge (server-ordered, through the same Farm.Finish)
// reproduces the sequential Result exactly — equivalence tests and a golden
// snapshot pin this across dispatchers, seeds and pool sizes. The slice
// size tunes only barrier frequency, never results.
//
// # Fleet-scale routing index
//
// At fleet scale the routing half of the sliced loop dominates: a linear
// shadow scan is Θ(k) per job, ~10^8 float compares per re-served stream at
// k = 10,000. The sliced driver therefore routes JSQ and LeastWorkLeft
// through an O(log k) index over the shadow (index.go) whenever every server
// runs the same configuration: JSQ uses a tournament tree over (freeAt,
// index) with a leftmost-at-most descent for the all-idle case;
// LeastWorkLeft adds per-phase idle bitsets and a crossing heap so
// sleep-state wake pricing stays exact while only O(log k) state updates
// per decision are paid. The index is an implementation detail with a hard
// bit-identity contract — every decision equals the linear scan's,
// tie-breaks included — pinned by an equivalence suite up to k = 10,000 and
// gated in BenchmarkFarmDispatch10k. The driver thus has three routing
// arms: Preassign, the index, and one linear arm that calls RouteVirtual and
// advances the shadow from each server's own configuration. The linear arm
// serves heterogeneous farms, PowerOfD (which inspects only its d sampled
// servers) and any VirtualRouter without an index; the index is gated on
// exact dispatcher types, so a wrapper overriding RouteVirtual always routes
// by its own scan.
//
// # Persistent worker pool and steady-state reuse
//
// Every slice of the parallel dispatch executes on the process-wide
// persistent pool of internal/par: workers are started once and parked
// between submissions, and the pool's reusable barrier replaces the
// per-slice sync.WaitGroup churn. The sliced driver uses
// par.Pool.RunSharded, giving each executor a
// fixed contiguous server shard: the same worker touches the same engines
// slice after slice (cache-hot engines), with work stealing leveling
// imbalance and the pool's run queue keeping concurrent submissions
// parallel instead of degrading them to inline-serial.
// DispatchOptions.Workers bounds the executors a dispatch may use; results
// are identical for every bound.
//
// The sliced driver's scratch — slice buffer, routing table, bucketed
// substream backing, freeAt shadow, counters and chunk cursor — is owned by
// the Farm (slicedState) and reused across slices and calls, so the
// steady-state loop
//
//	f.Reset(cfg); src.Reset(seed); f.ServeSourceSliced(src, opts); f.FinishSummary(f.LastFree())
//
// allocates nothing once warm, matching the sequential ServeSource's
// zero-allocation contract (both CI-gated via BENCH_farm.json). One-shot
// DispatchSource calls still build fresh engines so their Results never
// alias reused storage; FinishSummary is the scalar aggregate for callers
// on the reuse path.
//
// # Heterogeneous fleets
//
// The sliced driver also serves fleets whose servers run different
// configurations — the substrate of the fleet coordinator
// (internal/fleet). Farm.Server exposes each engine for per-server
// SetConfigAt/WakeAt at epoch boundaries; the per-call uniformity scan
// notices differing configurations and takes the linear arm, whose
// configuration snapshot lets every VirtualRouter price each candidate
// under that server's own phase schedule. Pricing is always live: the
// routing index and the linear arm price from the engines' current
// configurations exactly as the sequential Pick does, so mid-run switches
// reprice immediately. Farm.Subfarm returns a prefix view and Farm.Select a
// view over any ascending subset, both sharing the parent's engines, so a
// coordinator can serve a shrunken active set without rebuilding state —
// parked and crashed servers receive no work.
package farm
