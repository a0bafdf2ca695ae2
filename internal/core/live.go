package core

import (
	"fmt"
	"math/rand"

	"sleepscale/internal/eventlog"
	"sleepscale/internal/metrics"
	"sleepscale/internal/policy"
	"sleepscale/internal/power"
	"sleepscale/internal/predict"
	"sleepscale/internal/queue"
)

// decideSeedSalt separates the strategy's bootstrap randomness from the
// workload seed (historically rand.NewSource(cfg.Seed + 0x5157)).
const decideSeedSalt = 0x5157

// DecideSeed maps a runner seed to the seed of the strategy's decision RNG.
// Every epoch driver builds its decide stream as
// rand.New(rand.NewSource(DecideSeed(cfg.Seed))) — the live runner's
// counting wrapper is draw-transparent — so an external driver (the fleet
// coordinator) seeding the same way reproduces the decision stream bit for
// bit.
func DecideSeed(seed int64) int64 { return seed + decideSeedSalt }

// WindowEpochs is the depth, in epochs, of the job-log window every epoch
// driver (batch, live and fleet) keeps for distribution prediction.
const WindowEpochs = 3

// countingSource is the runner's deterministic randomness source with a
// draw cursor: it counts Int63 calls so a checkpoint can record (seed,
// draws) and a restore can fast-forward a fresh source to the identical
// stream position. It deliberately implements only rand.Source (not
// Source64): rand.Rand then composes Uint64 from two Int63 draws — exactly
// what rand.NewSource's own Source64 implementation does — so a Rand over a
// countingSource is bit-identical to one over the bare source, and every
// draw advances the cursor by exactly one.
type countingSource struct {
	inner rand.Source
	draws uint64
}

func newCountingSource(seed int64) *countingSource {
	return &countingSource{inner: rand.NewSource(seed)}
}

// Int63 implements rand.Source.
func (s *countingSource) Int63() int64 {
	s.draws++
	return s.inner.Int63()
}

// Seed implements rand.Source, rewinding the cursor.
func (s *countingSource) Seed(seed int64) {
	s.draws = 0
	s.inner.Seed(seed)
}

// skipTo fast-forwards the source to a recorded cursor position.
func (s *countingSource) skipTo(draws uint64) {
	for s.draws < draws {
		s.draws++
		s.inner.Int63()
	}
}

// FeedPredictor is the one predictor-feed path shared by the single-server
// runner and the fleet coordinator: it observes every realized slot
// utilization of a just-finished epoch, in slot order, and returns their
// mean — the epoch's realized utilization. Both epoch drivers close epochs
// through this function (LiveRunner via closeEpoch, which Run and RunSource
// drive too), so the realized-utilization arithmetic cannot drift between
// them.
func FeedPredictor(p predict.Predictor, rhos []float64) (realized float64) {
	for _, rho := range rhos {
		p.Observe(rho)
		realized += rho
	}
	if len(rhos) > 0 {
		realized /= float64(len(rhos))
	}
	return realized
}

// LiveConfig configures a LiveRunner: a RunnerConfig minus the trace and the
// generating workload — both jobs and telemetry slots arrive from outside,
// unbounded.
type LiveConfig struct {
	// SlotSeconds is the telemetry slot length in seconds.
	SlotSeconds float64
	// EpochSlots is T: slots per policy epoch.
	EpochSlots int
	// FreqExponent is the workload's β.
	FreqExponent float64
	// Profile supplies the power model.
	Profile *power.Profile
	// Predictor forecasts per-slot utilization. It must implement
	// encoding.BinaryMarshaler/Unmarshaler for State/Restore to work (all
	// predictors in internal/predict do).
	Predictor predict.Predictor
	// Strategy picks the per-epoch policy.
	Strategy Strategy
	// Seed drives the strategy's bootstrap resampling.
	Seed int64

	// retainResponses keeps the raw per-job response sample for whole-run
	// percentiles; RunSource sets it. Off (the serve daemon's mode) the
	// engine folds responses into streaming moments only — O(1) memory over
	// an unbounded run; Finish then reports exact counts, means and energy
	// but zero whole-run percentiles (per-epoch P95s are unaffected).
	retainResponses bool
}

func (c *LiveConfig) validate() error {
	if c.SlotSeconds <= 0 {
		return fmt.Errorf("core: slot length %g ≤ 0", c.SlotSeconds)
	}
	if c.EpochSlots < 1 {
		return fmt.Errorf("core: epoch slots %d < 1", c.EpochSlots)
	}
	if c.Predictor == nil || c.Strategy == nil {
		return fmt.Errorf("core: runner needs a predictor and a strategy")
	}
	if c.Profile == nil {
		return fmt.Errorf("core: runner needs a power profile")
	}
	return nil
}

// LiveRunner is the §6 epoch machine: the decide→serve→observe cycle,
// advanced one telemetry event at a time with no materialized trace and no
// epoch horizon. Offer jobs as they arrive (OfferJob) and realized slot
// utilizations as slots complete (OfferSlot); every EpochSlots-th slot
// closes an epoch — predict, decide, switch policy, serve, observe — and
// yields its EpochRecord. Run and RunSource are loops that feed it a
// trace's slots and a job stream, so batch and live epoch accounting are
// one code path.
//
// A job is served once the slot containing its arrival completes — the
// machine's only lookahead rule. It changes nothing observable (the engine
// runs in virtual time and the policy in force is fixed at epoch open) and
// it gives live feeds the batch semantics at the end of the stream: jobs
// arriving past the last completed slot are never served, just as the
// batch loop leaves jobs beyond the trace unread.
//
// Steady state allocates nothing: the pending ring, per-epoch job log,
// slot buffer, delay sample and the ping-pong policy-phase scratch are all
// reused across epochs, and memory stays O(pending + one epoch) however
// long the runner runs. A runner restored from State continues
// bit-identically to one that never stopped.
type LiveRunner struct {
	cfg    LiveConfig
	eng    *queue.Engine // nil until the first epoch opens
	window *eventlog.Window

	decideSrc *countingSource
	decideRng *rand.Rand

	epoch     int  // index of the epoch currently being assembled
	slot      int  // global index of the next slot to observe
	epochOpen bool // policy decided and applied for the current epoch

	curPol  policy.Policy
	curPred float64

	rhos        []float64   // realized utilizations of the open epoch's slots
	pending     []queue.Job // offered jobs not yet covered by a completed slot
	pendHead    int
	epochJobs   []queue.Job // jobs served in the open epoch, arrival order
	epochDelays metrics.Sample

	lastArrival float64 // latest offered arrival, for order validation
	jobsOffered int64
	jobsServed  int64

	lastMean, lastP95 float64
	lastJobs          int

	freqSum    float64
	planEpochs map[string]int
	prevTotals queue.Snapshot

	// phaseBuf is the ping-pong scratch behind the per-epoch policy
	// resolution: AppendConfig fills the buffer the previous epoch is NOT
	// using, because the engine still reads the old phase slice while
	// closing out the old idle schedule inside SetConfigAt.
	phaseBuf [2][]queue.SleepPhase
}

// NewLiveRunner validates cfg and returns a runner positioned before the
// first slot.
func NewLiveRunner(cfg LiveConfig) (*LiveRunner, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	window, err := eventlog.NewWindow(WindowEpochs)
	if err != nil {
		return nil, err
	}
	src := newCountingSource(DecideSeed(cfg.Seed))
	return &LiveRunner{
		cfg:        cfg,
		window:     window,
		decideSrc:  src,
		decideRng:  rand.New(src),
		rhos:       make([]float64, 0, cfg.EpochSlots),
		planEpochs: make(map[string]int),
	}, nil
}

// openEpoch runs the top of the epoch cycle: predict, decide, resolve and
// install the policy at the epoch's start instant. The first epoch creates
// the engine.
func (r *LiveRunner) openEpoch() error {
	epochStart := float64(r.slot) * r.cfg.SlotSeconds
	pred := ClampRho(r.cfg.Predictor.Predict())
	pol, err := r.cfg.Strategy.Decide(DecideInput{
		PredictedUtilization: pred,
		Window:               r.window,
		LastEpochMeanDelay:   r.lastMean,
		LastEpochP95Delay:    r.lastP95,
		LastEpochJobs:        r.lastJobs,
		Rng:                  r.decideRng,
	})
	if err != nil {
		return fmt.Errorf("core: epoch %d decision: %w", r.epoch, err)
	}
	buf := &r.phaseBuf[r.epoch&1]
	qcfg, err := pol.AppendConfig(r.cfg.Profile, r.cfg.FreqExponent, (*buf)[:0])
	if err != nil {
		return fmt.Errorf("core: epoch %d policy %v: %w", r.epoch, pol, err)
	}
	*buf = qcfg.Phases // retain growth for reuse
	if r.eng == nil {
		r.eng, err = queue.NewEngine(qcfg, 0)
		if err == nil {
			r.eng.SetRetainResponses(r.cfg.retainResponses)
		}
	} else {
		err = r.eng.SetConfigAt(epochStart, qcfg)
	}
	if err != nil {
		return fmt.Errorf("core: epoch %d switch: %w", r.epoch, err)
	}
	r.curPol, r.curPred = pol, pred
	r.epochOpen = true
	r.epochDelays.Reset()
	r.epochJobs = r.epochJobs[:0]
	r.rhos = r.rhos[:0]
	return nil
}

// OfferJob hands the runner one arriving job, served once the slot
// containing its arrival completes. Arrivals must be non-decreasing and may
// not fall in a slot that has already completed; a rejected job leaves the
// runner untouched.
func (r *LiveRunner) OfferJob(j queue.Job) error {
	if j.Arrival < r.lastArrival {
		return fmt.Errorf("core: job arrival %g before previous %g", j.Arrival, r.lastArrival)
	}
	if open := float64(r.slot) * r.cfg.SlotSeconds; j.Arrival < open {
		return fmt.Errorf("core: job arrival %g before the open slot's start %g: its slot has completed", j.Arrival, open)
	}
	r.lastArrival = j.Arrival
	if r.pendHead > 0 && r.pendHead == len(r.pending) {
		r.pending = r.pending[:0]
		r.pendHead = 0
	}
	r.pending = append(r.pending, j)
	r.jobsOffered++
	return nil
}

// OfferSlot hands the runner one completed telemetry slot's realized
// utilization. Pending jobs the slot covers are served under the epoch's
// policy; closed reports whether the slot completed an epoch, in which case
// rec is its record.
func (r *LiveRunner) OfferSlot(rho float64) (rec EpochRecord, closed bool, err error) {
	if !r.epochOpen {
		if err := r.openEpoch(); err != nil {
			return EpochRecord{}, false, err
		}
	}
	slotEnd := float64(r.slot+1) * r.cfg.SlotSeconds
	for r.pendHead < len(r.pending) {
		j := r.pending[r.pendHead]
		if j.Arrival >= slotEnd {
			break
		}
		resp, err := r.eng.Process(j)
		if err != nil {
			return EpochRecord{}, false, fmt.Errorf("core: epoch %d job %d: %w", r.epoch, r.jobsServed, err)
		}
		r.epochDelays.Add(resp)
		r.epochJobs = append(r.epochJobs, j)
		r.pendHead++
		r.jobsServed++
	}
	if r.pendHead == len(r.pending) {
		r.pending = r.pending[:0]
		r.pendHead = 0
	}
	r.slot++
	r.rhos = append(r.rhos, rho)
	if len(r.rhos) == r.cfg.EpochSlots {
		return r.closeEpoch(), true, nil
	}
	return EpochRecord{}, false, nil
}

// closeEpoch runs the bottom of the epoch cycle: log the epoch's jobs,
// feed the predictor, summarize delays and difference the engine totals.
func (r *LiveRunner) closeEpoch() EpochRecord {
	epochStart := float64(r.slot-len(r.rhos)) * r.cfg.SlotSeconds
	epochEnd := float64(r.slot) * r.cfg.SlotSeconds
	// PushJobs logs the epoch in the window's recycled ring buffers — no
	// per-epoch slice allocations.
	r.window.PushJobs(r.epochJobs, epochStart)
	realized := FeedPredictor(r.cfg.Predictor, r.rhos)
	// The ceiling nearest-rank P95 matches the paper's epoch-budget
	// accounting (the guard keys off it).
	r.lastJobs = r.epochDelays.Count()
	r.lastMean = r.epochDelays.Mean()
	r.lastP95 = r.epochDelays.PercentileNearestRank(95)
	tot := r.eng.TotalsAt(epochEnd)
	rec := EpochRecord{
		Index: r.epoch, Predicted: r.curPred, Realized: realized,
		Policy: r.curPol, Jobs: r.lastJobs, MeanDelay: r.lastMean, P95Delay: r.lastP95,
		Energy:   tot.Energy - r.prevTotals.Energy,
		BusyTime: tot.BusyTime - r.prevTotals.BusyTime,
		WakeTime: tot.WakeTime - r.prevTotals.WakeTime,
		IdleTime: tot.IdleTime - r.prevTotals.IdleTime,
	}
	r.prevTotals = tot
	r.planEpochs[r.curPol.Plan.Name]++
	r.freqSum += r.curPol.Frequency
	r.epoch++
	r.epochOpen = false
	return rec
}

// Epoch is the index of the epoch currently being assembled.
func (r *LiveRunner) Epoch() int { return r.epoch }

// Slot is the global index of the next telemetry slot.
func (r *LiveRunner) Slot() int { return r.slot }

// AtBoundary reports whether the runner sits exactly on an epoch boundary —
// no epoch open, no slots buffered — the only instants at which State may
// be captured.
func (r *LiveRunner) AtBoundary() bool { return !r.epochOpen }

// Finish ends the stream: a partially-filled final epoch is closed short
// (rec/closed, exactly as a batch run's last epoch covers only the trace's
// remaining slots), the engine is finalized at the last completed slot
// boundary, and the whole-run aggregate is returned without its Epochs.
// Pending jobs not covered by a completed slot are never served, matching
// the batch semantics of leaving jobs beyond the trace unread.
func (r *LiveRunner) Finish() (rec EpochRecord, closed bool, report RunReport, err error) {
	if r.epochOpen {
		rec, closed = r.closeEpoch(), true
	}
	report = RunReport{
		Strategy:   r.cfg.Strategy.Name(),
		Predictor:  r.cfg.Predictor.Name(),
		PlanEpochs: make(map[string]int, len(r.planEpochs)),
	}
	for name, n := range r.planEpochs {
		report.PlanEpochs[name] = n
	}
	if r.epoch > 0 {
		report.MeanFrequency = r.freqSum / float64(r.epoch)
	}
	if r.eng == nil {
		return rec, closed, report, nil
	}
	res, err := r.eng.Finish(float64(r.slot) * r.cfg.SlotSeconds)
	if err != nil {
		return EpochRecord{}, false, RunReport{}, err
	}
	report.Jobs = res.Jobs
	report.MeanResponse = res.MeanResponse
	report.P95Response = res.ResponseP95
	report.AvgPower = res.AvgPower
	report.Energy = res.Energy
	report.Duration = res.Duration
	return rec, closed, report, nil
}
