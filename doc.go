// Package sleepscale is a from-scratch Go implementation of SleepScale
// (Liu, Draper, Kim — ISCA 2014): a runtime power-management system that
// jointly selects a DVFS frequency setting and a CPU/platform low-power
// (sleep) state for a server under a quality-of-service constraint.
//
// # What it provides
//
//   - A calibrated power model of CPU states C0(a)/C0(i)/C1/C3/C6 and
//     platform states S0(a)/S0(i)/S3 (paper Tables 1–4): Xeon, plus an
//     Atom-class profile (power.Atom).
//   - A discrete-event FCFS queueing simulator with DVFS-scaled service,
//     sleep-state sequences with enter delays, and wake-up penalties
//     (paper Algorithm 1), usable standalone via Simulate. The simulator
//     is built as a reusable kernel: queue.Engine.Reset rewinds an engine
//     without giving up its buffers, and queue.Evaluator scores many candidate
//     policies over one shared job stream with zero steady-state
//     allocations — the §5.1.1 selection loop (Manager.Select), the farm
//     and the multi-core simulators all run on it.
//   - Closed-form M/M/1-with-sleep-states analysis of mean power, mean
//     response time and response-time tails (paper Appendix), via
//     Policy.AnalyticModel.
//   - The SleepScale policy manager: enumerate (frequency, sleep plan)
//     candidates, characterize each against observed workload statistics,
//     pick the minimum-power policy meeting the QoS (paper §5.1).
//   - The epoch-driven runtime: utilization predictors (naive-previous,
//     LMS, LMS+CUSUM, offline genie), per-epoch job logging, frequency
//     over-provisioning, and a trace-driven evaluation loop (paper §5.2,
//     §6), plus the baselines it is compared against (DVFS-only,
//     race-to-halt, fixed-state SleepScale).
//   - Workload models for the paper's DNS / Mail / Google services
//     (Table 5) and synthetic utilization traces shaped like the paper's
//     file-server and email-store days (Figure 7).
//   - A distribution library (internal/dist) that moment-matches any
//     (mean, Cv) pair: Erlang mixtures for Cv < 1, exponential at Cv = 1,
//     balanced-means hyperexponentials for Cv > 1, lognormal heavy-tail
//     fits for the BigHouse surrogates, and empirical inverse-CDF replay —
//     see internal/dist's package documentation for the fitting rules.
//
// # Quick start
//
//	prof := sleepscale.Xeon()
//	spec := sleepscale.DNS()
//	qos, _ := sleepscale.NewMeanResponseQoS(0.8, spec.MaxServiceRate())
//	mgr := sleepscale.NewManager(prof, spec, qos)
//	stats, _ := sleepscale.NewIdealizedStats(spec)
//	stats, _ = stats.AtUtilization(0.3)
//	jobs := stats.Jobs(10000, rand.New(rand.NewSource(1)))
//	best, _ := mgr.Select(jobs, 0.3)
//	fmt.Println(best.Policy) // e.g. "f=0.52 C0(i)S0(i)"
//
// # Simulation-kernel reuse contract
//
// The hot evaluation path never allocates in steady state. The pieces and
// their contracts:
//
//   - queue.Engine.Reset(cfg, start) rewinds an engine exactly as a fresh
//     queue.NewEngine would while keeping its response-sample and residency
//     buffers. Residency is tallied into a phase-indexed slice; the
//     name-keyed map only materializes in Finish.
//   - queue.Evaluator owns one engine and a shared job stream; each Evaluate(cfg)
//     returns a scalar summary — plain values, safe to keep across further
//     calls. Results that alias evaluator storage (Responses) are only
//     valid until the next Evaluate. Its tail percentiles come from an O(n)
//     selection over the response sample, never a sort; with retention off
//     it keeps response moments only and reports no tail.
//   - Manager.Select is an exact best-first search on the calling
//     goroutine. It resolves every candidate's configuration once, then
//     runs a wake-free pass (queue.WakeFree) at sparse anchor frequencies,
//     f = 1 and every sixth below it, down to the response-pruned prefix —
//     the low frequencies at which no plan can meet a MeanResponseQoS
//     budget. Each pass bounds every candidate's power and mean response at
//     its frequency from below, and two neighbouring passes bound every
//     candidate between them (WakeFree.BoundBetween). It pops candidates in
//     power-bound order, skips those whose response bound misses the
//     budget, runs a frequency's own pass only when one of its candidates
//     reaches the top, simulates the rest, and stops at the first bound
//     above the best feasible power, so it returns the policy the
//     exhaustive search would. Its scratch — bounds, resolved
//     configurations, candidate heap, one evaluator — is pooled, so a
//     selection allocates nothing once warm. It scores only what the QoS reads: under MeanResponseQoS the
//     evaluator keeps response moments alone, so the winner reports P95/P99
//     as 0. Manager.Evaluate remains the thin one-shot wrapper and reports
//     full metrics.
//   - A farm.Farm owns its serving scratch: Reset + ServeSource reuses every
//     buffer, routing each job and serving it at once. One-shot RunFarm and
//     RunFarmSource calls build fresh engines, so their results never alias
//     reused storage.
//   - SimulateMultiCore recycles whole k-core simulators through an internal
//     pool; multicore.Simulator.Reset supports the same reuse directly.
//
// CI enforces the contract: cmd/benchsnap fails the build when the
// steady-state benchmarks (BenchmarkEvaluatorSteadyState,
// BenchmarkEngineThroughput, BenchmarkSelectParallel) report any allocs/op,
// and writes the
// BENCH_selection.json perf-trajectory snapshot.
//
// # Streaming workloads
//
// Job streams need not be materialized. The streaming workload subsystem
// (internal/stream) provides pull-based sources that deliver
// arrival-ordered jobs in bounded chunks with zero steady-state
// allocations, so week-long traces run in O(chunk) job-buffer memory:
//
//   - Run streams its trace-driven jobs from the incremental generator
//     behind Stats.TraceJobs — one generation core, two drivers, so the
//     streamed and materialized streams are bit-identical for equal seeds.
//   - RunSource accepts any StreamSource: NewTraceSource,
//     NewColTraceSource (columnar trace replay), NewStationarySource, and
//     the scenario generators NewMMPPSource (on/off bursts),
//     NewFlashCrowdSource (spike-and-decay overlays) and NewDiurnalSource
//     (sinusoidal modulation).
//   - MergeSources, ScaleRateSource and SpliceSources compose sources into
//     scenarios (a trace baseline plus a burst overlay, a mid-week flash
//     crowd); Reset(seed) replays any composition deterministically.
//   - RunFarmSource is the streaming counterpart of RunFarm.
//
// CI gates the streaming loop too: BenchmarkStreamSourceSteadyState must
// report 0 allocs/op, and BenchmarkStreamRunWeekTrace records a full 7-day
// streamed run in BENCH_stream.json.
//
// # Streaming farm dispatch
//
// RunFarmSource closes the gap between the two: one streamed source,
// k servers, a real dispatcher. Jobs are pulled in bounded chunks and
// routed at their arrival instants, so state-dependent dispatchers see
// accurate queue depths without the stream ever being materialized.
// Besides RoundRobin, RandomDispatch and JSQ, the package ships PowerOfD
// (d random choices, join the least backlogged of the sample) and
// LeastWorkLeft (earliest completion, wake-up latency included — the
// wake-aware refinement of JSQ).
//
// Every Dispatcher states its rule once, as RouteVirtual over a scalar
// shadow of each server's configuration, work-completion time and idle
// anchor, advanced by SimConfig.NextFreeAtAnchored — an exact mirror of the
// engine's availability arithmetic. RouteVirtual receives every server's
// live configuration, so LeastWorkLeft's sleep-state wake pricing stays
// exact across per-server policies and mid-run config switches.
//
// The farm has one serve loop, farm.Farm.ServeSource (RunFarm and RunFarmSource
// run it too): it serves each job the moment it is routed, and it picks its
// routing arm from what it observes, never from an option. From 16 servers
// up, JSQ routes through an O(log k) index over the shadow (a tournament
// tree) whatever configurations the servers run, and LeastWorkLeft through
// its own (adding per-phase idle bitsets and a wake-crossing heap) while
// every server runs one configuration, making a 10,000-server farm
// dispatchable at interactive speed; the index is bit-identical to the
// linear scan, which routes everything else. Both arms give the same result
// bit for bit — a test oracle that reads live engines, digests recorded
// from the loop the shadow replaced, and a golden snapshot pin this across
// dispatchers, seeds and farm sizes.
// Steady-state callers hold a farm.Farm and drive Reset + ServeSource +
// FinishSummary, whose farm-owned scratch makes the whole loop
// allocation-free once warm; the fleet coordinator's shared mode layers the
// §6 epoch loop on top: one strategy decision per epoch applied fleet-wide,
// farm-wide delay statistics feeding the over-provisioning guard (with
// k = 1 it matches RunSource bit for bit).
//
// CI gates this path as well — BenchmarkFarmDispatchSteadyState and
// BenchmarkFarmDispatchParallelJSQ (the loop on 4 and 16 servers; the
// latter formerly 191 allocs/op when it spawned workers per slice) and
// BenchmarkFarmDispatch10k (the 10,000-server indexed dispatch, JSQ and
// LeastWorkLeft) must all hold 0 allocs/op in BENCH_farm.json,
// BenchmarkSelectParallel carries a hard allocs/op floor in
// BENCH_selection.json — and every bench snapshot doubles as a regression
// baseline: cmd/benchsnap -baseline fails the build when a benchmark
// regresses more than 25% ns/op (or allocates beyond its baseline) against
// the committed snapshot, with the benchmark child pinned to the
// baseline's recorded GOMAXPROCS so the timing gate stays armed on every
// runner shape.
//
// # Columnar trace & event store
//
// Heavy replay input and post-hoc analysis run on a compact columnar
// binary format (internal/colstore): per-column float64 blocks framed with
// per-block min/max/count footers and a CRC, memory-mapped on open so
// readers serve column views zero-copy out of the page cache (an
// io.ReaderAt fallback covers everything else). The format carries
// utilization traces (WriteColTrace — bit-exact, unlike
// CSV's decimal round-trip), recorded job streams (RecordJobsCol), and
// append-only epoch logs (WriteEpochLog, one row per decision epoch with
// per-epoch energy/busy/wake/idle deltas that sum exactly to the report's
// totals — queue.Engine.TotalsAt splits idle periods at epoch boundaries without
// perturbing the run). Replay is wired into the streaming layer:
// NewColTraceSource feeds the shared trace generator (bit-identical to
// NewTraceSource for equal seeds) and
// NewColJobsSource replays a recorded stream verbatim, so a production
// incident replays exactly on any machine.
//
// cmd/colq aggregates column files without materializing them —
// sum/mean/min/max/count and ceiling nearest-rank percentiles, grouped and
// filtered by column — skipping every block whose footer range cannot
// match the filter. cmd/tracesim sniffs both trace formats and converts
// between them (-convert); cmd/farmsim -trace runs the epoch-policy farm
// over a trace and appends its epoch log (-epochs-out) for colq.
//
// CI gates the store: BenchmarkColReplaySteadyState and
// BenchmarkColJobsReplaySteadyState must hold 0 allocs/op, and
// BenchmarkColVsCSVReplay pins the columnar ingest's ~25× lead over
// buffered CSV in BENCH_colstore.json.
//
// # Live serving
//
// SleepScale also runs as what the paper pitches: a long-lived runtime
// controller. core.LiveRunner is the §6 epoch machine itself, driven one event
// at a time (OfferJob/OfferSlot/Finish) by an unbounded telemetry stream
// with no materialized trace. Run and RunSource are loops over it: they
// offer each trace slot's arrivals and then the slot, so for the same
// events, epochs, predictions and policy switches are bit-identical to a
// batch run by construction, and the steady-state loop does not allocate.
// Every epoch driver keeps the same job-log window, three epochs deep (one
// constant, core.WindowEpochs). At any epoch boundary, State captures a
// resumable snapshot — engine totals, predictor and policy-selection
// state, RNG cursors, queue backlog — from which a restored runner resumes
// bit-identically.
//
// The serve layer (internal/serve) wraps the runner into a daemon,
// cmd/sleepscaled: jobs and slot telemetry arrive over a compact binary
// wire protocol (Unix/TCP socket, or any stream.Source replayed through
// FeedWire — every scenario generator and recorded ColJobs stream doubles
// as a load generator), per-epoch stats and policy decisions stream out as
// NDJSON, and closed epochs tee to the colstore epoch log. Durability:
// checkpoints (CRC-framed, written atomically, previous snapshot rotated
// to a .prev fallback) every N epochs and on SIGTERM drain; the checkpoint
// records the epoch log's row count and plan dictionary, so a restore cuts
// the log back to that high-water mark and re-emitted epochs land exactly
// once. Checkpointing stays off the epoch path: a boundary captures the
// runner state without copying the job-log window (core.LiveRunner.Capture
// aliases the ring until the next close), the image is encoded into one
// reused buffer, and one background writer does the file work with at most
// one write in flight, so a write error surfaces at the next checkpoint,
// the drain or the clean end. A checkpointed/killed/restored run produces
// the same epoch log as an uninterrupted one — equivalence tests pin this
// across seeds and checkpoint cadences, a byte test pins every written
// checkpoint to the encoding of the runner's State at that boundary, and
// corruption tests (truncation, CRC damage, torn writes, a decoder fuzz
// target) pin that damaged checkpoints fall back, never panic.
//
// CI gates the daemon's hot path in BENCH_serve.json:
// BenchmarkServeLoopSteadyState (decode one epoch of wire frames, advance
// the runner, emit NDJSON) must hold 0 allocs/op once warm.
// BenchmarkServeLoopDurable (the same loop with a checkpoint every 16
// epochs and the epoch log on) and BenchmarkServeCheckpointWrite track the
// fsync-bound durable path; their allocs/op may not grow.
//
// # Fleet coordination
//
// The fleet coordinator (internal/fleet, NewFleetCoordinator) runs the §6
// epoch cycle fleet-wide. Its shared mode applies one policy to k clones;
// beyond that it owns per-server policy state and adds three coordination
// dimensions:
//
//   - Per-server policies (FleetConfig.PerServer): each server gets its own
//     utilization predictor and its own strategy decision per epoch, so a
//     skewed fleet runs each server at its own operating point.
//   - Staggered sleep quorums (FleetConfig.Quorum): a rotating duty window
//     of Q servers is capped to C1-or-shallower plans every epoch while
//     deep sleep rotates through the rest — bounded worst-case wake latency
//     without giving up deep-sleep residency, and the rotation spreads the
//     shallow duty evenly.
//   - Horizontal scaling (FleetConfig.Park): whole servers park — drained,
//     deepest-sleep, removed from routing — when predicted demand fits a
//     smaller active prefix at ParkTargetRho, and unpark against rising
//     demand, each wake-up paying the full deep-sleep latency via
//     queue.Engine.WakeAt. The fleet report adds the fleet-level metrics this
//     enables: energy proportionality (measured energy vs the ideal
//     load-proportional line) and jobs per joule.
//
// Epochs serve through the farm's serve loop between boundary switches
// (heterogeneous configurations are priced per server: JSQ keeps its
// O(log k) index, and other dispatchers scan; the active set serves as a
// Select view), and with every dimension off the coordinator is the plain
// farm epoch loop — an equivalence suite pins its records across
// dispatchers, seeds and k up to 1,000. Fleet epoch logs write to the
// columnar store (WriteFleetEpochLog); cmd/farmsim -coordinate
// (-quorum, -park) drives the coordinator from the command line, and
// examples/fleet-demo compares baseline/quorum/parked runs over a
// synthetic email-store day, verifying the quorum invariant on every
// epoch.
//
// CI gates the coordinator in BENCH_fleet.json:
// BenchmarkFleetCoordinatedEpoch (k = 1,000, per-server policies, quorum
// rotation) must hold 0 allocs/op once warm. The bench gates run as a
// per-suite matrix with the fuzz targets smoked on every push.
//
// # Fault tolerance
//
// Everything above assumes k permanently healthy servers; the fault layer
// (internal/fault) drops that assumption. A fault.Source is a replayable,
// seed-deterministic crash/repair event stream — scripted schedules
// (ParseFaultSchedule: "<time> <server> crash|repair" per line) or seeded per-server MTBF/MTTR renewal processes
// (NewFaultRenewal) — with the same Reset(seed) contract as the workload
// sources: one seed, one outage timeline, replayable event for event.
//
// Wired through FleetConfig.Faults, the coordinator becomes fault-aware.
// A crash takes effect at its exact instant, mid-epoch or at a boundary:
// the server's engine refunds the energy it would have billed past the
// crash, jobs in flight on it are lost and re-dispatched under
// FleetConfig.Retry (budget + per-attempt backoff added to the re-arrival;
// exhausted budgets are dropped and accounted), and routing continues over
// the surviving servers through compact farm Select views — arbitrary
// subsets, not just prefixes, with the O(log k) index and the linear arm
// skipping down servers bit-identically. A repair rejoins the server cold:
// it pays its deepest wake transition before serving again, and the
// quorum/park arithmetic recomputes over the live healthy set (a crash
// that empties the active set emergency-unparks a healthy server at the
// crash instant). The report carries the conservation ledger — offered ==
// completed + requeued + dropped, with per-epoch energy deltas still
// summing exactly to the per-server totals — and the applied events
// (WriteFaultLog tees them to a colstore KindFaults log). An empty fault
// source is bit-identical to the coordinator without faults — the
// equivalence suite pins this across dispatchers, seeds and k up to 1,000.
//
// The daemon participates too: cmd/sleepscaled -faults gates ingest with a
// scripted outage for its single server (arrivals inside a crash..repair
// window are shed and accounted in the summary), its socket feed carries a
// read deadline and a bounded reconnect budget so a stalled or dropped
// wire client cannot wedge the serve loop, and cmd/farmsim grows -faults /
// -mtbf / -mttr / -retry-budget / -retry-backoff / -faults-out on top of
// -coordinate. examples/chaos-week runs a 10-server fleet through a week
// of seeded outages and checks the quorum invariant and the conservation
// ledger live.
//
// CI smokes the chaos suites under the race detector and gates failover
// routing in BENCH_fault.json: BenchmarkFaultFailoverRouting (k = 1,000,
// Select views over a churned healthy set) must hold 0 allocs/op.
//
// See examples/ for runnable programs (examples/week-long drives a 7-day
// trace through the streaming loop, then replays it from a mapped column
// file; examples/streamed-farm dispatches a 7-day diurnal + flash-crowd
// scenario across 16 servers and replays the recorded stream bit-for-bit;
// examples/live-replay crashes a serving daemon mid-week, tears its primary
// checkpoint, and proves the restored run's stitched epoch log bit-identical
// to an uninterrupted batch run) and internal/experiments for the harness
// that regenerates every table and figure in the paper.
package sleepscale
