package sleepscale

import (
	"io"

	"sleepscale/internal/colstore"
	"sleepscale/internal/core"
	"sleepscale/internal/dist"
	"sleepscale/internal/farm"
	"sleepscale/internal/fault"
	"sleepscale/internal/fleet"
	"sleepscale/internal/multicore"
	"sleepscale/internal/policy"
	"sleepscale/internal/power"
	"sleepscale/internal/predict"
	"sleepscale/internal/queue"
	"sleepscale/internal/serve"
	"sleepscale/internal/strategy"
	"sleepscale/internal/stream"
	"sleepscale/internal/trace"
	"sleepscale/internal/workload"
)

// Power model (paper §3.1, Tables 1–4).
type (
	// Profile is a CPU + platform power profile.
	Profile = power.Profile
	// State is a combined CPU + platform power state such as C6S3.
	State = power.State
)

// Combined states studied throughout the paper.
var (
	OperatingIdle = power.OperatingIdle
	Sleep         = power.Sleep
	DeepSleep     = power.DeepSleep
	DeeperSleep   = power.DeeperSleep
)

// Xeon returns the Intel Xeon E5 profile of Table 2.
func Xeon() *Profile { return power.Xeon() }

// LowPowerStates lists every combined low-power state, shallow to deep.
func LowPowerStates() []State { return power.LowPowerStates() }

// Queueing simulator (paper §3.2, Algorithm 1).
type (
	// Job is one unit of work: an arrival time and a service demand in
	// seconds of work at f = 1.
	Job = queue.Job
	// SimConfig is a fully resolved operating point for the simulator.
	SimConfig = queue.Config
	// SleepPhase is one resolved low-power phase of a SimConfig.
	SleepPhase = queue.SleepPhase
	// SimResult summarizes one simulation run.
	SimResult = queue.Result
)

// Simulate runs Algorithm 1: serve jobs (sorted by arrival) under cfg,
// starting idle at time zero.
func Simulate(jobs []Job, cfg SimConfig) (SimResult, error) {
	return queue.Simulate(jobs, cfg)
}

// Policies and QoS (paper §5.1).
type (
	// Policy pairs a frequency setting with a sleep plan.
	Policy = policy.Policy
	// SleepPlan is an ordered sequence of low-power states with delays.
	SleepPlan = policy.SleepPlan
	// PlanPhase is one step of a SleepPlan.
	PlanPhase = policy.PlanPhase
	// QoS is a quality-of-service constraint.
	QoS = policy.QoS
	// MeanResponseQoS bounds the mean response time.
	MeanResponseQoS = policy.MeanResponseQoS
	// PolicySpace is the candidate grid the manager sweeps.
	PolicySpace = policy.Space
)

// SingleState returns the plan entering s as soon as the queue empties.
func SingleState(s State) SleepPlan { return policy.SingleState(s) }

// DefaultSpace returns the five single-state plans on a 0.01 frequency grid.
func DefaultSpace() PolicySpace { return policy.DefaultSpace() }

// NewMeanResponseQoS derives the §5.1.1 budget E[R] ≤ 1/((1−ρb)·µ) from a
// peak design utilization ρb and maximum service rate µ.
func NewMeanResponseQoS(rhoB, mu float64) (MeanResponseQoS, error) {
	return policy.NewMeanResponseQoS(rhoB, mu)
}

// Workloads (paper Table 5, §6).
type (
	// Spec is a workload summary (means and coefficients of variation).
	Spec = workload.Spec
	// Stats pairs inter-arrival and service-demand distributions.
	Stats = workload.Stats
)

// DNS returns the Table 5 DNS look-up workload.
func DNS() Spec { return workload.DNS() }

// NewIdealizedStats returns the §4 idealized model: Poisson arrivals and
// exponential service at the spec's means.
func NewIdealizedStats(s Spec) (Stats, error) { return workload.NewIdealizedStats(s) }

// NewFittedStats returns moment-fitted distributions matching the spec's
// means and coefficients of variation.
func NewFittedStats(s Spec) (Stats, error) { return workload.NewFittedStats(s) }

// Distribution is a sampleable probability distribution (the type behind
// Stats.Inter and Stats.Size), usable directly in the streaming scenario
// configurations.
type Distribution = dist.Distribution

// FitDistribution moment-matches a distribution to the given mean and
// coefficient of variation — Erlang mixture for Cv < 1, exponential at
// Cv = 1, balanced-means hyperexponential for Cv > 1.
func FitDistribution(mean, cv float64) (Distribution, error) { return dist.FitMeanCV(mean, cv) }

// Streaming workload subsystem: bounded-memory job sources for week-long
// traces and bursty scenarios (see internal/stream's package docs for the
// Source contract).
type (
	// JobSource is the minimal pull interface the streaming simulators
	// drive: chunked delivery of arrival-ordered jobs.
	JobSource = queue.JobSource
	// StreamSource adds Reset(seed) for reproducible replay; every source
	// below implements it.
	StreamSource = stream.Source
	// MMPPConfig parameterizes the on/off Markov-modulated Poisson source.
	MMPPConfig = stream.MMPPConfig
	// FlashCrowdConfig parameterizes the spike-and-decay overlay source.
	FlashCrowdConfig = stream.FlashCrowdConfig
	// DiurnalConfig parameterizes the sinusoidally modulated source.
	DiurnalConfig = stream.DiurnalConfig
)

// NewTraceSource streams the §6 trace-driven job stream: bit-identical to
// Stats.TraceJobs under the same seed, in O(chunk) memory.
func NewTraceSource(st Stats, tr *Trace, seed int64) (StreamSource, error) {
	return stream.Trace(st, tr, seed)
}

// Columnar store: the binary trace/event format of internal/colstore —
// zero-copy mmap replay, append-only epoch logs, block-skipping
// aggregation (see cmd/colq for the query CLI).
// ColReader is an open column file; Open memory-maps when possible.
type ColReader = colstore.Reader

// OpenCol opens the column file at path for reading, memory-mapped when the
// platform allows, with a ReaderAt fallback otherwise.
func OpenCol(path string) (*ColReader, error) { return colstore.Open(path) }

// NewColTraceSource replays a KindTrace column file through the
// trace-driven generator — bit-identical to NewTraceSource for equal seeds,
// with zero per-slot parsing on a mapped file.
func NewColTraceSource(r *ColReader, st Stats, seed int64) (StreamSource, error) {
	return stream.ColTrace(r, st, seed)
}

// NewColJobsSource replays a recorded KindJobs column file bit-exactly.
func NewColJobsSource(r *ColReader) (StreamSource, error) { return stream.NewColJobs(r) }

// RecordJobsCol drains src into a KindJobs column file at path, returning
// the number of jobs recorded; replay it with NewColJobsSource.
func RecordJobsCol(src StreamSource, path string) (int, error) {
	w, err := colstore.Create(path, stream.JobsSchema())
	if err != nil {
		return 0, err
	}
	n, err := stream.RecordJobs(src, w.Writer)
	if cerr := w.Close(); err == nil {
		err = cerr
	}
	return n, err
}

// WriteColTrace writes a trace as a column file — the binary counterpart of
// Trace.WriteCSV.
func WriteColTrace(t *Trace, path string) error { return t.WriteCol(path) }

// WriteEpochLog appends a run's per-epoch records to the KindEpochs column
// file at path (created if absent) for offline aggregation with cmd/colq.
func WriteEpochLog(path string, epochs []EpochRecord) error {
	return core.WriteEpochLog(path, epochs)
}

// NewStationarySource streams a fixed-rate job stream from the workload
// statistics over [0, horizon) — the streaming analogue of Stats.Jobs.
func NewStationarySource(st Stats, horizon float64, seed int64) (StreamSource, error) {
	return stream.NewStationary(st, horizon, seed)
}

// NewMMPPSource returns the on/off burst source.
func NewMMPPSource(cfg MMPPConfig, seed int64) (StreamSource, error) {
	return stream.NewMMPP(cfg, seed)
}

// NewFlashCrowdSource returns the spike-and-decay source.
func NewFlashCrowdSource(cfg FlashCrowdConfig, seed int64) (StreamSource, error) {
	return stream.NewFlashCrowd(cfg, seed)
}

// NewDiurnalSource returns the sinusoidally modulated source.
func NewDiurnalSource(cfg DiurnalConfig, seed int64) (StreamSource, error) {
	return stream.NewDiurnal(cfg, seed)
}

// MergeSources interleaves sources into one arrival-ordered stream (e.g. a
// trace baseline plus an MMPP burst overlay).
func MergeSources(sources ...StreamSource) StreamSource { return stream.Merge(sources...) }

// ScaleRateSource multiplies a stream's arrival rate by factor (sizes
// untouched).
func ScaleRateSource(src StreamSource, factor float64) (StreamSource, error) {
	return stream.ScaleRate(src, factor)
}

// SpliceSources plays a until time at, then b shifted to start there.
func SpliceSources(a StreamSource, at float64, b StreamSource) (StreamSource, error) {
	return stream.Splice(a, at, b)
}

// SliceSource adapts a materialized job slice (sorted by arrival) to the
// streaming drivers.
func SliceSource(jobs []Job) StreamSource { return stream.Slice(jobs) }

// CollectSource drains a source into a slice with chunk-sized reads
// (chunk < 1 picks the default).
func CollectSource(src StreamSource, chunk int) ([]Job, error) { return stream.Collect(src, chunk) }

// Utilization traces (paper Figure 7).
type (
	// Trace is a per-slot utilization sequence.
	Trace = trace.Trace
)

// EmailStoreTrace generates the email-store trace: wide diurnal range with
// end-of-day backup surges.
func EmailStoreTrace(days int, seed int64) *Trace { return trace.EmailStore(days, seed) }

// FileServerTrace generates the lightly loaded file-server trace.
func FileServerTrace(days int, seed int64) *Trace { return trace.FileServer(days, seed) }

// Predictors (paper §5.2.2, Algorithm 2).
type (
	// Predictor forecasts per-slot utilization.
	Predictor = predict.Predictor
)

// NewNaivePredictor returns the naive-previous predictor.
func NewNaivePredictor() Predictor { return predict.NewNaivePrevious() }

// NewLMSPredictor returns the normalized LMS adaptive filter with history
// depth p (the paper uses 10).
func NewLMSPredictor(p int, step float64) (Predictor, error) { return predict.NewLMS(p, step) }

// NewLMSCUSUMPredictor returns the Algorithm 2 LMS + CUSUM predictor.
func NewLMSCUSUMPredictor(p int, step float64) (Predictor, error) {
	return predict.NewLMSCUSUM(p, step)
}

// NewOfflinePredictor returns the genie that knows the true utilizations.
func NewOfflinePredictor(values []float64) Predictor { return predict.NewOffline(values) }

// NewSeasonalPredictor wraps a base predictor with day-over-day memory of
// the given period in slots (1440 for daily patterns on minute traces) —
// the accuracy improvement §5.2.2 suggests.
func NewSeasonalPredictor(base Predictor, period int) (Predictor, error) {
	return predict.NewSeasonal(base, period)
}

// SleepScale runtime (paper §5).
type (
	// Manager is the policy manager: candidate space + QoS + selection.
	Manager = core.Manager
	// Strategy picks one policy per epoch.
	Strategy = core.Strategy
	// RunnerConfig describes one trace-driven evaluation run: a trace and
	// a job source fed through one epoch machine (core.LiveRunner).
	RunnerConfig = core.RunnerConfig
	// RunReport aggregates a trace-driven run.
	RunReport = core.RunReport
	// EpochRecord summarizes one epoch of a run.
	EpochRecord = core.EpochRecord
)

// NewManager returns a policy manager over the default five-state space for
// the given profile, workload and QoS constraint.
func NewManager(prof *Profile, spec Spec, qos QoS) *Manager {
	return &Manager{
		Profile:      prof,
		FreqExponent: spec.FreqExponent,
		Space:        policy.DefaultSpace(),
		QoS:          qos,
	}
}

// Run executes the §6 evaluation loop: epoch-by-epoch prediction, policy
// selection and trace-driven serving. The job stream is streamed from the
// incremental trace generator, so week-long traces run in bounded memory.
func Run(cfg RunnerConfig) (RunReport, error) { return core.Run(cfg) }

// RunSource executes the evaluation loop with jobs pulled from an arbitrary
// streaming source — CSV replay, burst overlays, spliced scenarios — with
// the same epoch accounting as Run.
func RunSource(cfg RunnerConfig, src StreamSource) (RunReport, error) {
	return core.RunSource(cfg, src)
}

// Strategies (paper §6.1).

// NewSleepScaleStrategy returns the full SleepScale strategy: per-epoch
// policy selection over all five states with evalJobs-long bootstrap
// streams and over-provisioning factor alpha (§5.2.3).
func NewSleepScaleStrategy(m *Manager, evalJobs int, alpha float64) (Strategy, error) {
	return strategy.NewSleepScale(m, evalJobs, alpha)
}

// NewFixedSleepStrategy returns SleepScale restricted to one state, e.g.
// SS(C3) in Figure 9.
func NewFixedSleepStrategy(m *Manager, s State, evalJobs int, alpha float64) (Strategy, error) {
	return strategy.NewFixedSleep(m, s, evalJobs, alpha)
}

// NewDVFSOnlyStrategy returns the DVFS-only baseline (never sleeps).
func NewDVFSOnlyStrategy(m *Manager, evalJobs int, alpha float64) (Strategy, error) {
	return strategy.NewDVFSOnly(m, evalJobs, alpha)
}

// NewRaceToHaltStrategy returns the R2H baseline: f = 1, one fixed state
// entered the moment the queue empties.
func NewRaceToHaltStrategy(s State) (Strategy, error) {
	return strategy.NewRaceToHalt(s)
}

// NewAnalyticSleepScaleStrategy returns the simulation-free SleepScale
// variant of §5.1.2 observation 3: per-epoch policy selection from the
// closed forms with continuous frequency refinement — microseconds per
// decision instead of milliseconds, exact only for M/M-like workloads.
func NewAnalyticSleepScaleStrategy(m *Manager, alpha float64) (Strategy, error) {
	return strategy.NewAnalyticSleepScale(m, alpha)
}

// NewStaticStrategy returns a strategy that applies one policy forever.
func NewStaticStrategy(p Policy, label string) Strategy {
	return &strategy.Static{Policy: p, Label: label}
}

// Live serving: SleepScale as a long-running controller (cmd/sleepscaled).
type (
	// LiveConfig configures the §6 epoch machine: slot geometry, power
	// model, predictor, strategy and seed.
	LiveConfig = core.LiveConfig
	// ServeConfig configures one daemon serve session.
	ServeConfig = serve.Config
	// ServeServer drives the epoch machine from a wire event stream: jobs and
	// slots in, NDJSON epoch records out, durable checkpoints on the side.
	ServeServer = serve.Server
	// WireWriter encodes the daemon's binary wire protocol.
	WireWriter = serve.WireWriter
	// SlotFeed yields per-slot utilization telemetry incrementally.
	SlotFeed = workload.SlotFeed
)

// NewServeServer starts a fresh daemon serve session.
func NewServeServer(cfg ServeConfig) (*ServeServer, error) { return serve.NewServer(cfg) }

// RestoreServeServer resumes a serve session from its checkpoint; replay
// realigns a feed that restarts from the beginning of the stream.
func RestoreServeServer(cfg ServeConfig, replay bool) (*ServeServer, error) {
	return serve.RestoreServer(cfg, replay)
}

// NewWireWriter returns a wire-protocol encoder over w.
func NewWireWriter(w io.Writer) *WireWriter { return serve.NewWireWriter(w) }

// SliceSlots adapts a materialized utilization trace to a SlotFeed.
func SliceSlots(utilization []float64) SlotFeed { return workload.SliceSlots(utilization) }

// FeedWire replays a job source and slot feed as one interleaved wire
// stream — any StreamSource becomes a load generator for the daemon.
func FeedWire(w *WireWriter, src StreamSource, slots SlotFeed, slotSeconds float64) error {
	return serve.Feed(w, src, slots, slotSeconds)
}

// Multi-server extension (paper §7 future work).
type (
	// FarmResult aggregates a farm run.
	FarmResult = farm.Result
	// Dispatcher routes arriving jobs across a farm's servers: one rule,
	// RouteVirtual, over each server's live configuration, availability and
	// idle anchor.
	Dispatcher = farm.Dispatcher
	// RoundRobin, RandomDispatch, JSQ, PowerOfD and LeastWorkLeft are the
	// provided dispatchers. PowerOfD samples D servers and joins the least
	// backlogged; LeastWorkLeft routes to the earliest completion,
	// wake-up latency included. On large farms JSQ, and LeastWorkLeft
	// while every server runs one configuration, route through an
	// O(log k) index, bit-identically to their linear scans.
	RoundRobin     = farm.RoundRobin
	RandomDispatch = farm.Random
	JSQ            = farm.JSQ
	PowerOfD       = farm.PowerOfD
	LeastWorkLeft  = farm.LeastWorkLeft
)

// RunFarm dispatches a sorted job stream across k servers and aggregates.
func RunFarm(k int, cfg SimConfig, disp Dispatcher, jobs []Job) (FarmResult, error) {
	return farm.Run(k, cfg, disp, jobs)
}

// RunFarmSource is the streaming k-way dispatch loop: jobs pulled from one
// source in bounded chunks are routed through disp at their arrival
// instants without the stream ever being materialized, each job served the
// moment it is routed.
func RunFarmSource(k int, cfg SimConfig, disp Dispatcher, src JobSource) (FarmResult, error) {
	return farm.DispatchSource(k, cfg, disp, src)
}

// Fleet coordination: the §6 evaluation loop over a streamed farm. In shared
// mode (FleetConfig.PerServer false) one strategy decision per epoch applies
// fleet-wide, jobs route through the dispatcher at their arrival instants
// and farm-wide delay statistics feed the over-provisioning guard; with one
// server it matches RunSource bit for bit. The coordinator owns per-server
// (configuration, policy) state, which adds per-server strategy decisions,
// staggered sleep quorums with deep-sleep rotation, and horizontal scaling
// that parks and unparks whole servers.
type (
	// FleetConfig describes one coordinated fleet run: fleet size, trace,
	// strategy, predictor (shared or per-server factory), dispatcher, and
	// the quorum/park coordination knobs.
	FleetConfig = fleet.Config
	// FleetCoordinator drives the epoch-boundary decide→serve→observe cycle
	// over a dispatched farm, one (configuration, policy) pair per server.
	FleetCoordinator = fleet.Coordinator
	// FleetReport aggregates a coordinated run: the farm-wide RunReport plus
	// per-server summaries, per-epoch fleet rollups, peak power, jobs per
	// joule and an energy-proportionality score.
	FleetReport = fleet.Report
	// FleetEpoch is the fleet-level rollup of one epoch: active/parked
	// split, quorum-shallow count, unpark wake-ups and mean frequency.
	FleetEpoch = fleet.Epoch
)

// NewFleetCoordinator validates cfg and builds a reusable coordinator.
func NewFleetCoordinator(cfg FleetConfig) (*FleetCoordinator, error) { return fleet.New(cfg) }

// WriteFleetEpochLog appends a coordinated run's per-epoch records — core
// epoch records zipped with their fleet rollups — to the column file at path.
func WriteFleetEpochLog(path string, rep *FleetReport) error { return fleet.WriteEpochLog(path, rep) }

// Fault injection: deterministic crash/repair timelines driven through the
// fleet coordinator via FleetConfig.Faults. Crashed servers lose their jobs
// in flight (re-dispatched under a bounded retry policy), stop consuming
// energy, and rejoin cold when repaired; an empty timeline is bit-identical
// to no injection at all.
type (
	// FaultEvent is one crash or repair at an exact simulated instant.
	FaultEvent = fault.Event
	// FaultSource is a replayable fault-event stream, the failure-side
	// sibling of StreamSource.
	FaultSource = fault.Source
	// FaultSchedule is a scripted, validated event list implementing
	// FaultSource.
	FaultSchedule = fault.Schedule
	// FaultRenewalConfig parameterizes the seeded MTBF/MTTR renewal process.
	FaultRenewalConfig = fault.RenewalConfig
	// FaultRenewal draws per-server exponential crash/repair timelines,
	// deterministic per seed and independent across servers.
	FaultRenewal = fault.Renewal
	// FaultRetryPolicy bounds failover re-dispatch of jobs lost in flight.
	FaultRetryPolicy = fault.RetryPolicy
)

// ParseFaultSchedule parses the "<time> <server> crash|repair" schedule
// format ('#' comments, blank lines ignored).
func ParseFaultSchedule(text string) (*FaultSchedule, error) { return fault.ParseSchedule(text) }

// NewFaultRenewal builds a seeded per-server MTBF/MTTR renewal timeline.
func NewFaultRenewal(cfg FaultRenewalConfig, seed int64) (*FaultRenewal, error) {
	return fault.NewRenewal(cfg, seed)
}

// WriteFaultLog appends applied fault events (e.g. FleetReport.FaultEvents)
// to the column file at path under the fault-log schema.
func WriteFaultLog(path string, events []FaultEvent) error { return fault.WriteLog(path, events) }

// Multi-core extension (paper §7 future work): one chip, k cores, a shared
// FCFS queue, per-core CPU sleep states and a platform gated by the union
// of core activity.
type (
	// MultiCoreConfig describes a k-core chip sharing one platform.
	MultiCoreConfig = multicore.Config
	// MultiCorePhase is one per-core CPU sleep phase.
	MultiCorePhase = multicore.Phase
	// MultiCoreResult summarizes a multi-core run.
	MultiCoreResult = multicore.Result
)

// SimulateMultiCore runs a sorted job stream through a k-core chip.
func SimulateMultiCore(jobs []Job, cfg MultiCoreConfig) (MultiCoreResult, error) {
	return multicore.Simulate(jobs, cfg)
}

// MMkMeanResponse returns the M/M/k mean response time.
func MMkMeanResponse(k int, lambda, mu float64) (float64, error) {
	return multicore.MMkMeanResponse(k, lambda, mu)
}

// Guarded sleep (§4.2 lesson 3, guarded power gating [23]).

// BreakEvenDelay returns the idle duration at which entering deep pays off
// over staying in shallow at frequency f.
func BreakEvenDelay(prof *Profile, f float64, shallow, deep State) (float64, error) {
	return policy.BreakEvenDelay(prof, f, shallow, deep)
}

// GuardedPlan returns shallow→deep with the deep entry delayed by the
// break-even duration — 2-competitive on every idle period.
func GuardedPlan(prof *Profile, f float64, shallow, deep State) (SleepPlan, error) {
	return policy.GuardedPlan(prof, f, shallow, deep)
}
