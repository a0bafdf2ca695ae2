package core

import (
	"fmt"
	"math/rand"

	"sleepscale/internal/eventlog"
	"sleepscale/internal/policy"
	"sleepscale/internal/power"
	"sleepscale/internal/predict"
	"sleepscale/internal/queue"
	"sleepscale/internal/stream"
	"sleepscale/internal/trace"
	"sleepscale/internal/workload"
)

// DecideInput is what a power-management strategy may consult when choosing
// the policy for the upcoming epoch.
type DecideInput struct {
	// PredictedUtilization is the predictor's forecast for the first slot
	// of the upcoming epoch (§5.2.3), clamped to (0, 1).
	PredictedUtilization float64
	// Window is the recent job-event log for distribution prediction.
	Window *eventlog.Window
	// LastEpochMeanDelay and LastEpochP95Delay summarize the epoch that
	// just ended (0 when it served no jobs); the over-provisioning guard
	// keys off them.
	LastEpochMeanDelay float64
	LastEpochP95Delay  float64
	// LastEpochJobs is the number of jobs completed-or-accepted last epoch.
	LastEpochJobs int
	// Rng is the runner-provided randomness for bootstrap resampling.
	Rng *rand.Rand
}

// Strategy selects one policy per epoch. Implementations include SleepScale
// itself and the §6.1 baselines (DVFS-only, race-to-halt, fixed-state
// SleepScale).
type Strategy interface {
	// Name identifies the strategy in reports ("SS", "R2H(C6)", …).
	Name() string
	// Decide returns the policy to apply for the upcoming epoch.
	Decide(in DecideInput) (policy.Policy, error)
}

// RunnerConfig describes one trace-driven evaluation run (§6).
type RunnerConfig struct {
	// Stats is the generating workload process for the actual job stream.
	Stats workload.Stats
	// FreqExponent is the workload's β.
	FreqExponent float64
	// Profile supplies the power model.
	Profile *power.Profile
	// Trace is the per-slot utilization trace driving arrival intensity.
	Trace *trace.Trace
	// EpochSlots is T: the number of trace slots per policy epoch.
	EpochSlots int
	// Predictor forecasts per-slot utilization; it is fed the realized
	// utilization of every slot as the run plays out.
	Predictor predict.Predictor
	// Strategy picks the per-epoch policy.
	Strategy Strategy
	// WindowEpochs is how many past epochs of job logs to retain for
	// distribution prediction (default 3).
	WindowEpochs int
	// Seed drives workload generation and bootstrap resampling.
	Seed int64
}

// EpochRecord summarizes one epoch of a run.
type EpochRecord struct {
	// Index is the epoch number.
	Index int
	// Predicted is the utilization forecast the decision used.
	Predicted float64
	// Realized is the mean trace utilization over the epoch's slots.
	Realized float64
	// Policy is the strategy's choice.
	Policy policy.Policy
	// Jobs is the number of jobs arriving in the epoch.
	Jobs int
	// MeanDelay is the mean response of those jobs.
	MeanDelay float64
	// P95Delay is the ceiling nearest-rank 95th percentile of those
	// responses — the figure the over-provisioning guard keys off.
	P95Delay float64
	// Energy is the epoch's energy in joules, taken as the delta of the
	// backend's running totals at the epoch boundary. Idle spanning the
	// boundary is split exactly at it; service energy counts in the epoch
	// that accepted the job. Epoch energies therefore sum to the report's
	// Energy.
	Energy float64
	// BusyTime, WakeTime and IdleTime are the epoch's deltas of the
	// corresponding totals (fleet runs sum them across servers).
	BusyTime float64
	WakeTime float64
	IdleTime float64
}

// RunReport aggregates a whole trace-driven run.
type RunReport struct {
	// Strategy and Predictor name the configuration.
	Strategy  string
	Predictor string
	// Jobs is the total number served.
	Jobs int
	// MeanResponse and P95Response are over all jobs, seconds.
	MeanResponse float64
	P95Response  float64
	// AvgPower is total energy over total duration, watts.
	AvgPower float64
	// Energy (joules) and Duration (seconds).
	Energy   float64
	Duration float64
	// Epochs records every per-epoch decision.
	Epochs []EpochRecord
	// PlanEpochs counts decision epochs per sleep-plan name (Figure 10).
	PlanEpochs map[string]int
	// MeanFrequency is the epoch-averaged selected frequency.
	MeanFrequency float64
}

// PlanFractions reports each plan's share of decision epochs, the quantity
// Figure 10 plots.
func (r *RunReport) PlanFractions() map[string]float64 {
	out := make(map[string]float64, len(r.PlanEpochs))
	total := 0
	for _, n := range r.PlanEpochs {
		total += n
	}
	if total == 0 {
		return out
	}
	for name, n := range r.PlanEpochs {
		out[name] = float64(n) / float64(total)
	}
	return out
}

// Run executes the §6 evaluation loop: generate the trace-driven job stream,
// then epoch by epoch predict utilization, let the strategy pick a policy,
// serve the epoch's jobs under it, and feed realized utilizations back to
// the predictor. Queue backlog carries across epoch boundaries, so
// under-prediction shows up as delay in later epochs exactly as §5.2.3
// describes.
//
// The job stream is never materialized: Run streams it from the
// workload.TraceGen incremental generator (seeded with cfg.Seed, so the
// stream is bit-identical to Stats.TraceJobs under the same seed) through
// RunSource, keeping peak job-buffer memory independent of trace length. A
// pre-generated slice runs through RunSource(cfg, stream.Slice(jobs)).
func Run(cfg RunnerConfig) (RunReport, error) {
	// Validate before touching cfg.Stats, so configuration mistakes stay
	// errors rather than nil-distribution panics in the generator.
	if err := validateRunner(cfg); err != nil {
		return RunReport{}, err
	}
	if cfg.Stats.Inter == nil || cfg.Stats.Size == nil {
		return RunReport{}, fmt.Errorf("core: runner needs workload stats to generate the job stream")
	}
	src, err := cfg.Stats.NewTraceGen(cfg.Trace.Utilization, cfg.Trace.SlotSeconds, cfg.Seed)
	if err != nil {
		return RunReport{}, fmt.Errorf("core: job stream: %w", err)
	}
	return RunSource(cfg, src)
}

// validateRunner is the configuration check shared by Run and RunSource.
func validateRunner(cfg RunnerConfig) error {
	if cfg.Trace == nil || cfg.Trace.Len() == 0 {
		return fmt.Errorf("core: runner needs a non-empty trace")
	}
	if err := cfg.Trace.Validate(); err != nil {
		return err
	}
	if cfg.EpochSlots < 1 {
		return fmt.Errorf("core: epoch slots %d < 1", cfg.EpochSlots)
	}
	if cfg.Predictor == nil || cfg.Strategy == nil {
		return fmt.Errorf("core: runner needs a predictor and a strategy")
	}
	return nil
}

// RunSource is the streaming evaluation loop: identical epoch accounting to
// Run, with jobs pulled from src in bounded chunks — any stream.Source (a
// CSV replay, an MMPP burst overlay merged onto a trace, a flash-crowd
// scenario) drives the full runtime. cfg.Stats is not consulted; the trace
// still drives epoch boundaries and the predictor's observations. The
// source is consumed from its current position (Reset it first for
// reproducibility); cfg.Seed seeds only the strategy's bootstrap
// randomness. Jobs arriving at or after the trace's end are left unread.
func RunSource(cfg RunnerConfig, src stream.Source) (RunReport, error) {
	if err := validateRunner(cfg); err != nil {
		return RunReport{}, err
	}
	report := RunReport{
		Strategy:   cfg.Strategy.Name(),
		Predictor:  cfg.Predictor.Name(),
		PlanEpochs: make(map[string]int),
	}
	backend := &engineBackend{}
	if err := runEpochs(cfg, src, backend, &report); err != nil {
		return RunReport{}, err
	}
	res, err := backend.eng.Finish(cfg.Trace.Duration())
	if err != nil {
		return RunReport{}, err
	}
	report.Jobs = res.Jobs
	report.MeanResponse = res.MeanResponse
	report.P95Response = res.ResponseP95
	report.AvgPower = res.AvgPower
	report.Energy = res.Energy
	report.Duration = res.Duration
	return report, nil
}

// engineBackend is the single server the epoch loop drives. applyPolicy
// installs the epoch's configuration — the first call creates the engine —
// and process serves one job, returning its response time. totalsAt reports
// the cumulative counters as of time t (idle priced to t without billing
// it), which the loop differences at epoch boundaries for per-epoch energy
// accounting; it is only called after the first applyPolicy.
// discardResponses (the live runner's default) folds responses into
// streaming moments on creation, so an unbounded run holds O(1) response
// memory. Farm-wide epoch runs are the fleet coordinator's (internal/fleet).
type engineBackend struct {
	eng              *queue.Engine
	discardResponses bool
}

func (b *engineBackend) applyPolicy(epochStart float64, qcfg queue.Config) error {
	if b.eng == nil {
		eng, err := queue.NewEngine(qcfg, 0)
		if err != nil {
			return err
		}
		if b.discardResponses {
			eng.SetRetainResponses(false)
		}
		b.eng = eng
		return nil
	}
	return b.eng.SetConfigAt(epochStart, qcfg)
}

func (b *engineBackend) process(j queue.Job) (float64, error) { return b.eng.Process(j) }

func (b *engineBackend) totalsAt(t float64) queue.Snapshot { return b.eng.TotalsAt(t) }

// runEpochs is RunSource's §6 epoch loop: it replays the trace slot by slot
// through the incremental epochLoop machine, offering each slot's arrivals
// from the chunk cursor and then the slot's realized utilization. The
// machine — the same one the live serving subsystem drives from sockets —
// predicts, decides, installs the policy on the backend, serves, logs the
// window and feeds the predictor, so batch and live epoch accounting can
// never drift. It fills report.Epochs, PlanEpochs and MeanFrequency; closing
// out the backend and the aggregate report fields is the caller's job. cfg
// must already have passed validateRunner.
func runEpochs(cfg RunnerConfig, src stream.Source, backend *engineBackend, report *RunReport) error {
	if src == nil {
		return fmt.Errorf("core: runner needs a job source")
	}
	loop, err := newEpochLoop(loopConfig{
		SlotSeconds:  cfg.Trace.SlotSeconds,
		EpochSlots:   cfg.EpochSlots,
		FreqExponent: cfg.FreqExponent,
		Profile:      cfg.Profile,
		Predictor:    cfg.Predictor,
		Strategy:     cfg.Strategy,
		WindowEpochs: cfg.WindowEpochs,
		Seed:         cfg.Seed,
	}, backend)
	if err != nil {
		return err
	}

	slotSec := cfg.Trace.SlotSeconds
	nSlots := cfg.Trace.Len()
	nEpochs := (nSlots + cfg.EpochSlots - 1) / cfg.EpochSlots
	report.Epochs = make([]EpochRecord, 0, nEpochs)

	// The chunk cursor and the machine's per-epoch job log are the run's
	// only job buffers: one chunk of lookahead plus one epoch of arrivals,
	// however long the trace. Jobs arriving at or after the trace's end are
	// never offered, so they stay unread in the source.
	cursor := stream.NewCursor(src)
	for s := 0; s < nSlots; s++ {
		slotEnd := float64(s+1) * slotSec
		for {
			j, ok := cursor.Peek()
			if !ok || j.Arrival >= slotEnd {
				break
			}
			if err := loop.OfferJob(j); err != nil {
				return err
			}
			cursor.Advance()
		}
		rec, closed, err := loop.OfferSlot(cfg.Trace.Utilization[s])
		if err != nil {
			return err
		}
		if closed {
			report.Epochs = append(report.Epochs, rec)
		}
	}
	rec, closed, err := loop.FinishEpoch()
	if err != nil {
		return err
	}
	if closed {
		report.Epochs = append(report.Epochs, rec)
	}

	if err := stream.Err(src); err != nil {
		return fmt.Errorf("core: job source: %w", err)
	}
	loop.fillReport(report)
	return nil
}

// ClampRho clamps a utilization forecast to the runner's working range
// (0.01, 0.98) — the clamp every epoch driver (batch, live, fleet) applies to
// Predictor.Predict before handing the forecast to Strategy.Decide. Exported
// so the fleet coordinator's per-server decisions use the identical clamp.
func ClampRho(r float64) float64 {
	if r < 0.01 {
		return 0.01
	}
	if r > 0.98 {
		return 0.98
	}
	return r
}
