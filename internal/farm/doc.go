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
// provided. Every dispatcher states its rule once, as RouteVirtual over a
// lightweight per-server shadow — each server's live configuration,
// work-completion time and idle anchor — advanced by
// queue.Config.NextFreeAtAnchored, so no live engine is read at routing
// time. Round-robin and random read only the server count; JSQ and PowerOfD
// compare backlogs and ignore the configurations and anchors; LeastWorkLeft
// prices each server's wake-up and service from its own configuration,
// exact even after a mid-run SetConfigAt taken during an idle period moved
// the anchor past freeAt. A dispatcher consumes its state (a round-robin
// cursor, random draws) once per job in arrival order.
//
// # One serve loop
//
// Every driver serves jobs through one loop, Farm.ServeSource:
//
//   - Run serves a fully materialized, sorted job stream in place.
//   - DispatchSource serves jobs pulled from any queue.JobSource in bounded
//     chunks, routed at their arrival instants without the stream ever
//     being materialized.
//   - Steady-state callers hold a Farm and drive Reset + ServeSource +
//     FinishSummary themselves, reusing every buffer.
//
// The loop routes each job against the shadow and serves it on the picked
// engine at once, on the calling goroutine. Routing is serial — each
// decision reads the shadow the previous job advanced — and through the
// index a decision costs about as much as the engine step it feeds, so the
// loop does not fan engine work out behind the router.
//
// The loop chooses its routing arm from what it can observe — the farm's
// size and the dispatcher's type — never from an option. A farm of at
// least indexFrom (16) servers routes JSQ, over any mix of configurations,
// and LeastWorkLeft, while every server runs one configuration, through an
// O(log k) index over the shadow; every other farm and dispatcher takes the
// linear arm, RouteVirtual over the per-server configuration snapshot. The
// threshold comes from dev-VM measurements, given in its comment.
//
// # Determinism contract
//
// Results never depend on the routing arm. Because NextFreeAtAnchored
// mirrors Engine.Process's availability arithmetic operation for operation,
// the index routes each job to the same server as the linear scan, each
// engine serves the same jobs in the same order, and Farm.Finish reproduces
// the same Result bit for bit. A test-only oracle that states each rule
// against live engines checks the loop job by job on both routing arms, and
// digests recorded from the engine-reading loop the shadow loop replaced
// pin DispatchSource across dispatchers, seeds and fleet sizes.
//
// # Fleet-scale routing index
//
// At fleet scale routing dominates: a linear shadow scan is Θ(k) per job,
// ~10^8 float compares per re-served stream at k = 10,000. JSQ's index is a
// tournament tree over (freeAt, index) with a leftmost-at-most descent for
// the all-idle case; LeastWorkLeft's adds per-phase idle bitsets and a
// crossing heap so sleep-state wake pricing stays exact while only
// O(log k) state updates per decision are paid. The index is an
// implementation detail with a hard bit-identity contract — every decision
// equals the linear scan's, tie-breaks included — pinned by an equivalence
// suite up to k = 10,000, over uniform farms and the fleet's configuration
// mixes, by a fuzz target against the scan, and gated in
// BenchmarkFarmDispatch10k. Each index is reset per call with the farm's
// per-server configuration snapshot and says whether it can price it: JSQ's
// pick reads only freeAt and its shadow advance prices each server from its
// own entry, so it accepts every snapshot; LeastWorkLeft's buckets hold one
// wake ladder, so it accepts only a uniform one. The linear arm serves small
// farms, LeastWorkLeft over mixed configurations, PowerOfD (which inspects
// only its d sampled servers) and every dispatcher without an index; the
// index is gated on exact dispatcher types, so a wrapper overriding
// RouteVirtual always routes by its own scan.
//
// # Steady-state reuse
//
// The loop's scratch — shadow, configuration snapshot, index and pull
// buffer — is owned by the Farm and reused across calls, so the
// steady-state loop
//
//	f.Reset(cfg); src.Reset(seed); f.ServeSource(src); f.FinishSummary(f.LastFree())
//
// allocates nothing once warm (CI-gated via BENCH_farm.json).
// One-shot Run and DispatchSource calls still build fresh engines so their
// Results never alias reused storage; FinishSummary is the scalar aggregate
// for callers on the reuse path.
//
// # Heterogeneous fleets
//
// The loop also serves fleets whose servers run different configurations —
// the substrate of the fleet coordinator (internal/fleet). Farm.Server
// exposes each engine for per-server SetConfigAt/WakeAt at epoch
// boundaries. Every call snapshots the engines' configurations: JSQ's index
// advances each server under its own entry, and the linear arm hands the
// snapshot to RouteVirtual, so every dispatcher prices each candidate under
// that server's own phase schedule. A JSQ fleet of at least indexFrom
// servers therefore routes in O(log k) however its per-server policies
// differ; LeastWorkLeft over differing configurations takes the linear arm.
// Pricing is always live: the index and the linear arm price from the
// engines' current configurations, so mid-run switches reprice immediately.
// Farm.Select returns a view over any ascending subset of servers, sharing
// the parent's engines, so a coordinator can serve a shrunken active set
// without rebuilding state — parked and crashed servers receive no work.
package farm
