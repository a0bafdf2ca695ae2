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
// workload seed (historically runEpochs' rand.NewSource(cfg.Seed + 0x5157)).
const decideSeedSalt = 0x5157

// DecideSeed maps a runner seed to the seed of the strategy's decision RNG.
// Every epoch driver builds its decide stream as
// rand.New(rand.NewSource(DecideSeed(cfg.Seed))) — the epoch loop's counting
// wrapper is draw-transparent — so an external driver (the fleet coordinator)
// seeding the same way reproduces the decision stream bit for bit.
func DecideSeed(seed int64) int64 { return seed + decideSeedSalt }

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
	seed  int64
	draws uint64
}

func newCountingSource(seed int64) *countingSource {
	return &countingSource{inner: rand.NewSource(seed), seed: seed}
}

// Int63 implements rand.Source.
func (s *countingSource) Int63() int64 {
	s.draws++
	return s.inner.Int63()
}

// Seed implements rand.Source, rewinding the cursor.
func (s *countingSource) Seed(seed int64) {
	s.seed, s.draws = seed, 0
	s.inner.Seed(seed)
}

// skipTo fast-forwards the source to a recorded cursor position.
func (s *countingSource) skipTo(draws uint64) {
	for s.draws < draws {
		s.draws++
		s.inner.Int63()
	}
}

// FeedPredictor is the one predictor-feed path shared by the batch runners,
// the live serve loop and the fleet coordinator: it observes every realized
// slot utilization of a just-finished epoch, in slot order, and returns their
// mean — the epoch's realized utilization. All epoch drivers close epochs
// through this function (batch and live via epochLoop.closeEpoch), so the
// realized-utilization arithmetic cannot drift between them.
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

// loopConfig parameterizes the incremental epoch machine. It is
// RunnerConfig minus the trace (slots arrive incrementally) and minus the
// workload statistics (jobs arrive from outside).
type loopConfig struct {
	// SlotSeconds is the telemetry slot length in seconds.
	SlotSeconds float64
	// EpochSlots is T: slots per policy epoch.
	EpochSlots int
	// FreqExponent is the workload's β.
	FreqExponent float64
	// Profile supplies the power model.
	Profile *power.Profile
	// Predictor forecasts per-slot utilization.
	Predictor predict.Predictor
	// Strategy picks the per-epoch policy.
	Strategy Strategy
	// WindowEpochs is the job-log window depth (default 3).
	WindowEpochs int
	// Seed drives the strategy's bootstrap resampling.
	Seed int64
}

func (c *loopConfig) validate() error {
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

// epochLoop is the incremental form of the §6 epoch loop: the same
// decide→serve→observe cycle as the batch runners, advanced one telemetry
// event at a time, with no materialized trace and no epoch horizon. Jobs
// are offered as they arrive (OfferJob) and realized slot utilizations as
// slots complete (OfferSlot); every EpochSlots-th slot closes an epoch and
// yields its EpochRecord. The batch runners drive the same machine from a
// trace and a job stream, so batch and live epoch accounting are one code
// path and bit-identical by construction.
//
// A job is served once the slot containing its arrival completes — the
// machine's only lookahead rule. It changes nothing observable (the engine
// runs in virtual time and the policy in force is fixed at epoch open) and
// it gives live feeds the batch runners' exact end-of-stream semantics:
// jobs arriving past the last completed slot are never served, just as the
// batch loop leaves jobs beyond the trace unread.
//
// Steady state allocates nothing: the pending ring, per-epoch job log,
// slot buffer, delay sample and the ping-pong policy-phase scratch are all
// reused across epochs.
type epochLoop struct {
	cfg     loopConfig
	backend *engineBackend
	window  *eventlog.Window

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

func newEpochLoop(cfg loopConfig, backend *engineBackend) (*epochLoop, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if backend == nil {
		return nil, fmt.Errorf("core: epoch loop needs a backend")
	}
	windowEpochs := cfg.WindowEpochs
	if windowEpochs <= 0 {
		windowEpochs = 3
	}
	window, err := eventlog.NewWindow(windowEpochs)
	if err != nil {
		return nil, err
	}
	src := newCountingSource(cfg.Seed + decideSeedSalt)
	return &epochLoop{
		cfg:        cfg,
		backend:    backend,
		window:     window,
		decideSrc:  src,
		decideRng:  rand.New(src),
		rhos:       make([]float64, 0, cfg.EpochSlots),
		planEpochs: make(map[string]int),
	}, nil
}

// openEpoch runs the top of the epoch cycle: predict, decide, resolve and
// install the policy at the epoch's start instant.
func (l *epochLoop) openEpoch() error {
	epochStart := float64(l.slot) * l.cfg.SlotSeconds
	pred := ClampRho(l.cfg.Predictor.Predict())
	pol, err := l.cfg.Strategy.Decide(DecideInput{
		PredictedUtilization: pred,
		Window:               l.window,
		LastEpochMeanDelay:   l.lastMean,
		LastEpochP95Delay:    l.lastP95,
		LastEpochJobs:        l.lastJobs,
		Rng:                  l.decideRng,
	})
	if err != nil {
		return fmt.Errorf("core: epoch %d decision: %w", l.epoch, err)
	}
	buf := &l.phaseBuf[l.epoch&1]
	qcfg, err := pol.AppendConfig(l.cfg.Profile, l.cfg.FreqExponent, (*buf)[:0])
	if err != nil {
		return fmt.Errorf("core: epoch %d policy %v: %w", l.epoch, pol, err)
	}
	*buf = qcfg.Phases // retain growth for reuse
	if err := l.backend.applyPolicy(epochStart, qcfg); err != nil {
		return fmt.Errorf("core: epoch %d switch: %w", l.epoch, err)
	}
	l.curPol, l.curPred = pol, pred
	l.epochOpen = true
	l.epochDelays.Reset()
	l.epochJobs = l.epochJobs[:0]
	l.rhos = l.rhos[:0]
	return nil
}

// OfferJob hands the machine one arriving job. Arrivals must be
// non-decreasing; the job is buffered and served once the slot containing
// its arrival completes.
func (l *epochLoop) OfferJob(j queue.Job) error {
	if j.Arrival < l.lastArrival {
		return fmt.Errorf("core: job arrival %g before previous %g", j.Arrival, l.lastArrival)
	}
	l.lastArrival = j.Arrival
	if l.pendHead > 0 && l.pendHead == len(l.pending) {
		l.pending = l.pending[:0]
		l.pendHead = 0
	}
	l.pending = append(l.pending, j)
	l.jobsOffered++
	return nil
}

// OfferSlot hands the machine one completed telemetry slot's realized
// utilization. Pending jobs the slot covers are served under the epoch's
// policy; the EpochSlots-th slot closes the epoch and returns its record
// with closed=true.
func (l *epochLoop) OfferSlot(rho float64) (rec EpochRecord, closed bool, err error) {
	if !l.epochOpen {
		if err := l.openEpoch(); err != nil {
			return EpochRecord{}, false, err
		}
	}
	slotEnd := float64(l.slot+1) * l.cfg.SlotSeconds
	for l.pendHead < len(l.pending) {
		j := l.pending[l.pendHead]
		if j.Arrival >= slotEnd {
			break
		}
		resp, err := l.backend.process(j)
		if err != nil {
			return EpochRecord{}, false, fmt.Errorf("core: epoch %d job %d: %w", l.epoch, l.jobsServed, err)
		}
		l.epochDelays.Add(resp)
		l.epochJobs = append(l.epochJobs, j)
		l.pendHead++
		l.jobsServed++
	}
	if l.pendHead == len(l.pending) {
		l.pending = l.pending[:0]
		l.pendHead = 0
	}
	l.slot++
	l.rhos = append(l.rhos, rho)
	if len(l.rhos) == l.cfg.EpochSlots {
		return l.closeEpoch(), true, nil
	}
	return EpochRecord{}, false, nil
}

// closeEpoch runs the bottom of the epoch cycle: log the epoch's jobs,
// feed the predictor, summarize delays and difference the backend totals.
func (l *epochLoop) closeEpoch() EpochRecord {
	epochStart := float64(l.slot-len(l.rhos)) * l.cfg.SlotSeconds
	epochEnd := float64(l.slot) * l.cfg.SlotSeconds
	// PushJobs logs the epoch in the window's recycled ring buffers — no
	// per-epoch slice allocations.
	l.window.PushJobs(l.epochJobs, epochStart)
	realized := FeedPredictor(l.cfg.Predictor, l.rhos)
	// The ceiling nearest-rank P95 matches the paper's epoch-budget
	// accounting (the guard keys off it).
	l.lastJobs = l.epochDelays.Count()
	l.lastMean = l.epochDelays.Mean()
	l.lastP95 = l.epochDelays.PercentileNearestRank(95)
	tot := l.backend.totalsAt(epochEnd)
	rec := EpochRecord{
		Index: l.epoch, Predicted: l.curPred, Realized: realized,
		Policy: l.curPol, Jobs: l.lastJobs, MeanDelay: l.lastMean, P95Delay: l.lastP95,
		Energy:   tot.Energy - l.prevTotals.Energy,
		BusyTime: tot.BusyTime - l.prevTotals.BusyTime,
		WakeTime: tot.WakeTime - l.prevTotals.WakeTime,
		IdleTime: tot.IdleTime - l.prevTotals.IdleTime,
	}
	l.prevTotals = tot
	l.planEpochs[l.curPol.Plan.Name]++
	l.freqSum += l.curPol.Frequency
	l.epoch++
	l.epochOpen = false
	return rec
}

// FinishEpoch closes a partially-filled final epoch at the end of the
// telemetry stream: if any slots are buffered the epoch closes short, just
// as the batch loop's last epoch covers only the trace's remaining slots.
// Pending jobs not covered by a completed slot are never served, matching
// the batch semantics of leaving jobs beyond the trace unread.
func (l *epochLoop) FinishEpoch() (rec EpochRecord, closed bool, err error) {
	if !l.epochOpen {
		return EpochRecord{}, false, nil
	}
	if len(l.rhos) == 0 {
		// An epoch opened by a job offer alone cannot exist (openEpoch
		// only runs from OfferSlot), so an open epoch always has slots.
		l.epochOpen = false
		return EpochRecord{}, false, nil
	}
	return l.closeEpoch(), true, nil
}

// atBoundary reports whether the machine sits exactly on an epoch boundary
// — no epoch open, no slots buffered — the only instants at which its
// state is checkpointable.
func (l *epochLoop) atBoundary() bool { return !l.epochOpen }

// duration is the simulated span covered by completed slots.
func (l *epochLoop) duration() float64 { return float64(l.slot) * l.cfg.SlotSeconds }

// fillReport folds the machine's whole-run aggregates into a report.
func (l *epochLoop) fillReport(report *RunReport) {
	if l.epoch > 0 {
		report.MeanFrequency = l.freqSum / float64(l.epoch)
	}
	if report.PlanEpochs == nil {
		report.PlanEpochs = make(map[string]int, len(l.planEpochs))
	}
	for name, n := range l.planEpochs {
		report.PlanEpochs[name] += n
	}
}
