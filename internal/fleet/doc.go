// Package fleet is the farm-wide §6 epoch driver: it runs the
// decide→serve→observe cycle of core.RunSource over a dispatched farm and
// owns per-server (queue.Config, policy) state. In shared mode
// (Config.PerServer false) one decision per epoch applies fleet-wide — the
// homogeneous-cluster operating model of the scale-out studies. Three
// capabilities extend the per-server policy table into cluster management:
//
//   - Per-server policies: with Config.PerServer, every server gets its own
//     utilization predictor (fed the demand actually routed to it) and its
//     own Strategy decision each epoch, so a skewed fleet runs a different
//     (frequency, sleep-plan) pair per server. Routing prices each server
//     from its own live configuration (the farm serve loop snapshots the
//     per-server configurations for its JSQ index and for every
//     farm.Dispatcher's linear scan).
//
//   - Coordinated, staggered sleep: Config.Quorum = Q caps a rotating duty
//     window of Q active servers to sleep states no deeper than C1, so deep
//     sleep rotates through the fleet while a bounded-wake quorum always
//     stays shallow. Wake-ups are priced exactly by the engines' existing
//     NextFreeAtAnchored machinery — the cap only truncates the installed
//     sleep plan.
//
//   - Horizontal scaling: Config.Park turns whole-server park/unpark into a
//     policy dimension. The coordinator sizes the active prefix to the
//     predicted fleet demand (ceil(W/ParkTargetRho), floored at
//     max(1, Quorum)), parks surplus servers — drain under a full-speed
//     deepest-sleep configuration, then removal from routing — and unparks
//     by queue.Engine.WakeAt, so an unparked server's first job pays the
//     full deep-sleep wake latency.
//
// Invariants. Both hold when every epoch opens, and when an epoch with no
// fault events closes; Config.Faults can break them mid-epoch:
//
//   - Quorum: at least min(Q, active) active servers' installed plans are no
//     deeper than C1 (their DeepestState().CPU ≤ power.C1). The duty window
//     rotates by Q per epoch over the active set, so deep sleep visits
//     every server. A duty-window server that crashes mid-epoch leaves that
//     epoch's record below quorum: the window is re-formed only when the
//     next epoch opens.
//
//   - Park: the active set is the first `active` healthy servers — the
//     prefix [0, active) when no server is down — and active ≥
//     max(1, Quorum) capped to the healthy count. Crashes and repairs change
//     the set mid-epoch. Every segment serves through a compact Select view
//     over the active set, so routing never selects a parked or crashed
//     server. A parked server keeps draining already-accepted work at full
//     speed, then idles into the deepest state; unparking wakes it at the
//     epoch boundary, charging the wake latency and energy of the occupied
//     phase before any new job starts.
//
// The epoch cycle is the exact decide→serve→observe loop of the batch
// runners. The serve step is one path, fault injection or not: a segment
// walker that cuts the epoch at fault events (none without Config.Faults)
// and serves each segment through farm.Farm.ServeSource between policy
// switches, each job routed and served at once. A shared-mode run with
// no quorum and no parking is the homogeneous farm epoch run: with one
// server it matches core.RunSource bit for bit, and the equivalence suite
// pins its per-epoch records and aggregates to recorded digests across
// seeds, dispatchers and fleet sizes.
//
// Beyond the farm report's quantities, Report carries fleet rollups: peak
// power, jobs per joule, and an energy-proportionality score comparing each
// epoch's energy to the ideal proportional fleet's (busy·P_active(1)).
package fleet
