package fleet

import (
	"fmt"
	"math"
	"math/rand"
	"slices"

	"sleepscale/internal/core"
	"sleepscale/internal/eventlog"
	"sleepscale/internal/farm"
	"sleepscale/internal/fault"
	"sleepscale/internal/metrics"
	"sleepscale/internal/policy"
	"sleepscale/internal/power"
	"sleepscale/internal/predict"
	"sleepscale/internal/queue"
	"sleepscale/internal/stream"
	"sleepscale/internal/trace"
)

// Config describes one coordinated fleet run.
type Config struct {
	// Servers is the fleet size k.
	Servers int
	// FreqExponent is the workload's β.
	FreqExponent float64
	// Profile supplies the power model.
	Profile *power.Profile
	// Trace drives epoch boundaries and realized utilizations, exactly as in
	// the batch runners.
	Trace *trace.Trace
	// EpochSlots is T: trace slots per policy epoch.
	EpochSlots int
	// Strategy picks policies at epoch boundaries — once per epoch in shared
	// mode, once per active server in per-server mode, consuming the same
	// decision RNG stream either way.
	Strategy core.Strategy
	// Predictor is the shared fleet predictor (PerServer false): it observes
	// the trace's realized slot utilizations, exactly as in core.RunSource.
	Predictor predict.Predictor
	// NewPredictor builds one predictor per server (PerServer true). Each
	// server's predictor observes the per-slot demand actually routed to
	// that server (Σ size / slot length), so skew shows up in its forecasts.
	NewPredictor func() predict.Predictor
	// PerServer selects per-server prediction and decisions.
	PerServer bool
	// Seed drives the strategy's bootstrap resampling via core.DecideSeed.
	Seed int64
	// Dispatcher routes jobs over the active servers. The farm hands its
	// RouteVirtual each server's live configuration, so per-server policies
	// route exactly.
	Dispatcher farm.Dispatcher
	// Quorum, when positive, keeps a rotating duty window of min(Quorum,
	// active) servers no deeper than C1 each epoch. Must not exceed Servers.
	Quorum int
	// Park enables horizontal scaling: the active prefix is sized to
	// ceil(predicted fleet demand / ParkTargetRho) each epoch.
	Park bool
	// ParkTargetRho is the per-active-server utilization the scaler aims at
	// (default 0.7). The active set never shrinks below max(1, Quorum).
	ParkTargetRho float64
	// Observer, when set, sees every fleet epoch record as it closes —
	// the hook the invariant checks and live dashboards use.
	Observer func(Epoch)
	// Faults, when set, injects a deterministic crash/repair timeline into
	// the run: events apply at their exact instants, interleaved with job
	// arrivals (an event on an epoch boundary belongs to the epoch it
	// opens). Run rewinds the source with Reset(Seed) alongside the decision
	// RNG, so every Run replays the same timeline. A nil source walks an
	// empty timeline through the same serve path, and an empty or exhausted
	// source is bit-identical to it — the equivalence suite pins this.
	Faults fault.Source
	// Retry bounds failover re-dispatch of jobs lost in flight on a
	// crashing server: each lost job is re-offered at loss instant +
	// Backoff·attempt until it has been lost Budget times, then dropped.
	// The zero policy drops every lost job outright.
	Retry fault.RetryPolicy
}

// Epoch is the fleet-level rollup of one epoch, alongside the embedded
// runner's core.EpochRecord.
type Epoch struct {
	// Index is the epoch number.
	Index int
	// Active and Parked partition the fleet at this epoch.
	Active int
	Parked int
	// Shallow counts active servers whose installed plan is no deeper than
	// C1. The quorum invariant Shallow ≥ min(Quorum, Active) holds when every
	// epoch opens, and when an epoch with no fault events closes: a duty-window
	// server crashing mid-epoch leaves that epoch's record below quorum,
	// because the window is re-formed only when the next epoch opens.
	Shallow int
	// Unparked counts servers woken this epoch, each paying a deep wake.
	Unparked int
	// MeanFrequency averages the installed frequency over active servers.
	MeanFrequency float64
	// Down counts servers crashed and not yet repaired as the epoch closes;
	// Crashes/Repairs count this epoch's applied fault events, Lost the
	// jobs lost in flight (or arriving with no healthy server), and Dropped
	// the losses whose retry budget was exhausted. All zero without fault
	// injection.
	Down, Crashes, Repairs, Lost, Dropped int
}

// Report aggregates a coordinated fleet run. The embedded RunReport carries
// the fleet-wide quantities: Jobs is the total served, MeanResponse the
// job-weighted mean across servers, AvgPower the cluster's steady draw (the
// sum of per-server average powers) and P95Response the worst per-server
// 95th percentile. With one server in shared mode they match core.RunSource
// bit for bit. The report reuses the coordinator's storage: it is valid
// until the next Run.
type Report struct {
	core.RunReport
	// Servers is the fleet size k.
	Servers int
	// Dispatcher names the routing discipline.
	Dispatcher string
	// FleetEpochs records the fleet dimensions of every epoch, parallel to
	// Epochs.
	FleetEpochs []Epoch
	// PerServer holds each server's whole-run scalar summary.
	PerServer []queue.Summary
	// PeakPower is k servers at full frequency, the energy-proportionality
	// denominator.
	PeakPower float64
	// EnergyProportionality scores how closely per-epoch energy tracks the
	// ideal proportional fleet (busy·P_active(1)): 1 − Σ|E_e −
	// Busy_e·P1|/(PeakPower·Duration). 1 is perfectly proportional.
	EnergyProportionality float64
	// JobsPerJoule is the fleet's performance-per-watt figure of merit.
	JobsPerJoule float64
	// Fault accounting, kept on every run (without fault injection every
	// offered job completes). The conservation invariant holds exactly:
	// Offered == Completed + Requeued + Dropped, where Requeued counts jobs
	// still awaiting re-dispatch when the trace ended, and Completed equals
	// the embedded Jobs count (every retained engine response is a completed
	// job). Retries counts re-dispatch attempts; FaultEvents is the applied
	// timeline in order (aliasing coordinator storage, valid until the next
	// Run).
	Offered, Completed, Requeued, Dropped int
	Retries, Crashes, Repairs             int
	FaultEvents                           []fault.Event
}

// Coordinator owns per-server (queue.Config, policy) state and drives the
// epoch-boundary decide→serve→observe cycle over a dispatched farm. Build
// one with New; Run executes a whole trace. A coordinator is reusable —
// Run resets all simulation state — but predictors carry their learned
// state across runs (build a fresh coordinator for independent replays).
type Coordinator struct {
	cfg     Config
	k       int
	lo      int // active-set floor: max(1, Quorum)
	parkPol policy.Policy
	parkCfg queue.Config

	f    *farm.Farm
	view *farm.Farm // Select view over actList, refilled every segment

	window    *eventlog.Window
	decideSrc rand.Source
	decideRng *rand.Rand
	preds     []predict.Predictor // per-server mode

	pols    []policy.Policy // installed policy per server
	parked  []bool
	rotor   int // quorum duty-window origin
	epoch   int
	unpark  int // servers woken at the current epoch's boundary
	recPred float64
	recPol  policy.Policy

	// Healthy-set state. actList is the active healthy servers in strictly
	// ascending order — always a prefix of the fleet without fault
	// injection. healthy is every not-down server ascending;
	// newAct/inPrev/inNew are openEpoch scratch. The segment walker's state
	// lives in faults.go.
	actList   []int
	newAct    []int
	inPrev    []bool
	inNew     []bool
	healthy   []int
	downSrv   []bool
	downCount int

	faultCur *fault.Cursor
	faultLog []fault.Event
	pending  [][]pendJob
	retryq   []retryJob
	retrySeq uint64
	segAtt   []int
	eJobs    []queue.Job
	eSrv     []int
	eResp    []float64
	eLost    []bool

	offered, completed, dropped       int
	retries, crashes, repairs         int
	epCrash, epRepair, epLost, epDrop int

	// phaseBufs is the per-server ping-pong phase scratch: AppendConfig
	// fills the buffer the server's engine is NOT reading, because the
	// engine still reads the old phase slice while closing out the old
	// idle schedule inside SetConfigAt. phaseSlot[s] names the buffer
	// server s's next install fills and flips on every install — not with
	// the epoch parity, since a server that is down at a boundary misses
	// that epoch's install and keeps its older phases live.
	phaseBufs   [][2][]queue.SleepPhase
	phaseSlot   []uint8
	cappedPlans map[string]policy.SleepPlan
	rawPred     []float64

	cursor      *stream.Cursor
	src         epochSource
	epochJobs   []queue.Job
	demand      []float64 // active×slots per-server demand scratch
	epochDelays metrics.Sample

	lastMean, lastP95 float64
	lastJobs          int
	prevTotals        queue.Snapshot
	freqSum           float64

	report Report
}

// epochSource replays one epoch's collected jobs as a queue.JobSource.
type epochSource struct {
	jobs []queue.Job
	pos  int
}

func (s *epochSource) Next(buf []queue.Job) (int, bool) {
	n := copy(buf, s.jobs[s.pos:])
	s.pos += n
	return n, s.pos < len(s.jobs)
}

// New validates cfg and builds a coordinator.
func New(cfg Config) (*Coordinator, error) {
	if cfg.Servers < 1 {
		return nil, fmt.Errorf("fleet: size %d < 1", cfg.Servers)
	}
	if cfg.Trace == nil || cfg.Trace.Len() == 0 {
		return nil, fmt.Errorf("fleet: coordinator needs a non-empty trace")
	}
	if err := cfg.Trace.Validate(); err != nil {
		return nil, err
	}
	if cfg.EpochSlots < 1 {
		return nil, fmt.Errorf("fleet: epoch slots %d < 1", cfg.EpochSlots)
	}
	if cfg.Strategy == nil {
		return nil, fmt.Errorf("fleet: coordinator needs a strategy")
	}
	if cfg.Profile == nil {
		return nil, fmt.Errorf("fleet: coordinator needs a power profile")
	}
	if cfg.Dispatcher == nil {
		return nil, fmt.Errorf("fleet: coordinator needs a dispatcher")
	}
	if cfg.PerServer {
		if cfg.NewPredictor == nil {
			return nil, fmt.Errorf("fleet: per-server mode needs a predictor factory")
		}
	} else if cfg.Predictor == nil {
		return nil, fmt.Errorf("fleet: coordinator needs a predictor")
	}
	if cfg.Quorum < 0 || cfg.Quorum > cfg.Servers {
		return nil, fmt.Errorf("fleet: quorum %d outside [0, %d servers]", cfg.Quorum, cfg.Servers)
	}
	if cfg.ParkTargetRho == 0 {
		cfg.ParkTargetRho = 0.7
	}
	if cfg.ParkTargetRho <= 0 || cfg.ParkTargetRho > 1 {
		return nil, fmt.Errorf("fleet: park target utilization %g outside (0, 1]", cfg.ParkTargetRho)
	}
	if err := cfg.Retry.Validate(); err != nil {
		return nil, fmt.Errorf("fleet: %w", err)
	}
	if cfg.Faults == nil {
		cfg.Faults = noFaults{}
	}
	window, err := eventlog.NewWindow(core.WindowEpochs)
	if err != nil {
		return nil, err
	}
	k := cfg.Servers
	c := &Coordinator{
		cfg:         cfg,
		k:           k,
		lo:          max(1, cfg.Quorum),
		window:      window,
		pols:        make([]policy.Policy, k),
		parked:      make([]bool, k),
		phaseBufs:   make([][2][]queue.SleepPhase, k),
		phaseSlot:   make([]uint8, k),
		cappedPlans: make(map[string]policy.SleepPlan),
		rawPred:     make([]float64, k),
		actList:     make([]int, 0, k),
		newAct:      make([]int, 0, k),
		inPrev:      make([]bool, k),
		inNew:       make([]bool, k),
		healthy:     make([]int, 0, k),
		downSrv:     make([]bool, k),
		pending:     make([][]pendJob, k),
		faultCur:    fault.NewCursor(cfg.Faults),
	}
	c.decideSrc = rand.NewSource(core.DecideSeed(cfg.Seed))
	c.decideRng = rand.New(c.decideSrc)
	// The park configuration: full frequency to drain accepted work fast,
	// then straight to the deepest state. Resolved once; its phase storage
	// is never shared with the per-server ping-pong buffers.
	c.parkPol = policy.Policy{Frequency: 1, Plan: policy.SingleState(power.DeeperSleep)}
	c.parkCfg, err = c.parkPol.Config(cfg.Profile, cfg.FreqExponent)
	if err != nil {
		return nil, fmt.Errorf("fleet: park policy: %w", err)
	}
	if c.f, err = farm.New(k, c.parkCfg, cfg.Dispatcher); err != nil {
		return nil, err
	}
	if cfg.PerServer {
		c.preds = make([]predict.Predictor, k)
		for s := range c.preds {
			if c.preds[s] = cfg.NewPredictor(); c.preds[s] == nil {
				return nil, fmt.Errorf("fleet: predictor factory returned nil")
			}
		}
	}
	c.report.PerServer = make([]queue.Summary, k)
	return c, nil
}

// Installed reports server s's currently installed policy and whether it is
// parked — the accessor invariant checks use from inside an Observer.
func (c *Coordinator) Installed(s int) (policy.Policy, bool) {
	return c.pols[s], c.parked[s]
}

// Run executes the §6 epoch loop over the whole trace with jobs pulled from
// src (consumed from its current position; Reset it first for
// reproducibility). Jobs arriving at or after the trace's end are left
// unread. The returned report aliases coordinator storage and is valid
// until the next Run.
func (c *Coordinator) Run(src stream.Source) (*Report, error) {
	if src == nil {
		return nil, fmt.Errorf("fleet: coordinator needs a job source")
	}
	if err := c.resetRun(src); err != nil {
		return nil, err
	}
	tr := c.cfg.Trace
	slotSec := tr.SlotSeconds
	nSlots := tr.Len()
	for s0 := 0; s0 < nSlots; s0 += c.cfg.EpochSlots {
		slots := c.cfg.EpochSlots
		if s0+slots > nSlots {
			slots = nSlots - s0
		}
		epochStart := float64(s0) * slotSec
		epochEnd := float64(s0+slots) * slotSec
		if err := c.openEpoch(epochStart); err != nil {
			return nil, err
		}
		c.epochJobs = c.epochJobs[:0]
		for {
			j, ok := c.cursor.Peek()
			if !ok || j.Arrival >= epochEnd {
				break
			}
			c.epochJobs = append(c.epochJobs, j)
			c.cursor.Advance()
		}
		if err := c.serveEpochFaults(epochStart, epochEnd); err != nil {
			return nil, err
		}
		c.closeEpoch(epochStart, epochEnd, tr.Utilization[s0:s0+slots], slotSec)
		c.settleEpoch(epochEnd)
	}
	if err := stream.Err(src); err != nil {
		return nil, fmt.Errorf("fleet: job source: %w", err)
	}
	c.finish(tr.Duration())
	return &c.report, nil
}

// resetRun rewinds all simulation state for a fresh trace replay, reusing
// every buffer: every server restarts idle at t = 0 under the park
// configuration, and the first epoch installs its decisions from there.
// Predictor state is deliberately not reset — see Coordinator.
func (c *Coordinator) resetRun(src stream.Source) error {
	if err := c.f.Reset(c.parkCfg); err != nil {
		return err
	}
	c.epoch = 0
	c.rotor = 0
	c.unpark = 0
	for s := range c.parked {
		c.parked[s] = false
	}
	c.actList = c.actList[:0]
	c.healthy = c.healthy[:0]
	for s := 0; s < c.k; s++ {
		c.actList = append(c.actList, s)
		c.healthy = append(c.healthy, s)
		c.downSrv[s] = false
		c.inPrev[s] = false // may be left marked by an aborted openEpoch
		c.inNew[s] = false
	}
	c.downCount = 0
	c.resetFaults()
	c.lastMean, c.lastP95, c.lastJobs = 0, 0, 0
	c.prevTotals = queue.Snapshot{}
	c.freqSum = 0
	c.window.Reset()
	c.decideSrc.Seed(core.DecideSeed(c.cfg.Seed))
	c.epochDelays.Reset()
	if c.cursor == nil {
		c.cursor = stream.NewCursor(src)
	} else {
		c.cursor.Reset(src)
	}
	rep := &c.report
	rep.Strategy = c.cfg.Strategy.Name()
	if c.cfg.PerServer {
		rep.Predictor = c.preds[0].Name()
	} else {
		rep.Predictor = c.cfg.Predictor.Name()
	}
	rep.Jobs = 0
	rep.MeanResponse, rep.P95Response = 0, 0
	rep.AvgPower, rep.Energy, rep.Duration, rep.MeanFrequency = 0, 0, 0, 0
	nEpochs := (c.cfg.Trace.Len() + c.cfg.EpochSlots - 1) / c.cfg.EpochSlots
	if rep.Epochs == nil {
		rep.Epochs = make([]core.EpochRecord, 0, nEpochs)
	}
	rep.Epochs = rep.Epochs[:0]
	if rep.FleetEpochs == nil {
		rep.FleetEpochs = make([]Epoch, 0, nEpochs)
	}
	rep.FleetEpochs = rep.FleetEpochs[:0]
	if rep.PlanEpochs == nil {
		rep.PlanEpochs = make(map[string]int)
	} else {
		for name := range rep.PlanEpochs {
			delete(rep.PlanEpochs, name)
		}
	}
	rep.Servers = c.k
	rep.Dispatcher = c.cfg.Dispatcher.Name()
	rep.PeakPower = float64(c.k) * c.cfg.Profile.ActivePower(1)
	rep.EnergyProportionality, rep.JobsPerJoule = 0, 0
	return nil
}

// openEpoch runs the top of the epoch cycle: predict per server, size the
// active set, decide policies, enforce the quorum cap, and install the
// resulting configurations at the epoch's start instant.
//
// All of it is driven by explicit server lists — the previously active set
// (actList as the epoch opens) and the healthy set — so crashed servers are
// skipped everywhere. Without fault injection both lists are ascending
// prefixes of the fleet.
func (c *Coordinator) openEpoch(epochStart float64) error {
	perServer := c.cfg.PerServer
	prevAct := c.actList
	c.epCrash, c.epRepair, c.epLost, c.epDrop = 0, 0, 0, 0

	// 1. Predict. Parked servers' predictors are frozen: they see no demand
	// while parked, so feeding them would only teach them zeros. Down
	// servers' predictors are frozen the same way.
	var sharedPred float64
	if perServer {
		for _, s := range prevAct {
			c.rawPred[s] = core.ClampRho(c.preds[s].Predict())
		}
	} else {
		sharedPred = core.ClampRho(c.cfg.Predictor.Predict())
	}

	// 2. Size the active set to predicted fleet demand, within what is
	// healthy. The quorum/min-active floor caps to the healthy count: a
	// quorum window larger than the surviving fleet degrades to "everything
	// healthy stays shallow" rather than failing.
	h := len(c.healthy)
	m := h
	if c.cfg.Park {
		w := 0.0
		if perServer {
			for _, s := range prevAct {
				w += c.rawPred[s]
			}
		} else {
			w = sharedPred * float64(len(prevAct))
		}
		m = int(math.Ceil(w / c.cfg.ParkTargetRho))
		lo := c.lo
		if lo > h {
			lo = h
		}
		if m < lo {
			m = lo
		}
		if m > h {
			m = h
		}
	}
	// The new active set is the first m healthy servers. Mark membership to
	// find the park/unpark transitions.
	c.newAct = append(c.newAct[:0], c.healthy[:m]...)
	for _, s := range prevAct {
		c.inPrev[s] = true
	}
	c.unpark = 0
	for _, s := range c.newAct {
		c.inNew[s] = true
		if !c.inPrev[s] { // servers about to unpark need forecasts too
			if perServer {
				c.rawPred[s] = core.ClampRho(c.preds[s].Predict())
			}
			c.parked[s] = false
			c.unpark++
		}
	}
	for _, s := range prevAct {
		if !c.inNew[s] {
			c.parked[s] = true
			c.pols[s] = c.parkPol
		}
	}

	// 3. Decide, consuming the decision RNG once per decision in active
	// server order — shared mode consumes exactly one draw sequence per
	// epoch, as the single-server loop does. With every server
	// down there is nobody to decide for: the RNG is not consumed and the
	// previous recommendation stands in the epoch record.
	if len(c.newAct) > 0 {
		if perServer {
			sum := 0.0
			for _, s := range c.newAct {
				pol, err := c.decide(c.rawPred[s])
				if err != nil {
					return fmt.Errorf("fleet: epoch %d server %d decision: %w", c.epoch, s, err)
				}
				c.pols[s] = pol
				sum += c.rawPred[s]
			}
			c.recPred = sum / float64(len(c.newAct))
			c.recPol = c.pols[c.newAct[0]]
		} else {
			pol, err := c.decide(sharedPred)
			if err != nil {
				return fmt.Errorf("fleet: epoch %d decision: %w", c.epoch, err)
			}
			for _, s := range c.newAct {
				c.pols[s] = pol
			}
			c.recPred = sharedPred
			c.recPol = pol
		}
	} else {
		c.recPred = 0
	}

	// 4. Quorum: cap the rotating duty window to C1-or-shallower plans.
	if q := c.cfg.Quorum; q > 0 && len(c.newAct) > 0 {
		ml := len(c.newAct)
		d := q
		if d > ml {
			d = ml
		}
		start := c.rotor % ml
		for i := 0; i < d; i++ {
			s := c.newAct[(start+i)%ml]
			c.pols[s].Plan = c.capPlan(c.pols[s].Plan)
		}
		c.rotor += d
	}

	// 5. Install: switch every active server at the boundary in server
	// order, waking the newly unparked first, then park the newly parked;
	// down servers are never touched (their engines reject clocked calls).
	// Run starts every server idle under the park configuration, so the
	// first epoch installs through the same loop — a switch at t = 0 bills
	// nothing.
	for _, s := range c.newAct {
		if !c.inPrev[s] { // unparking: pay the deep wake before the switch
			if err := c.f.Server(s).WakeAt(epochStart); err != nil {
				return fmt.Errorf("fleet: epoch %d server %d unpark: %w", c.epoch, s, err)
			}
		}
		qcfg, err := c.resolve(s)
		if err != nil {
			return err
		}
		if err := c.f.Server(s).SetConfigAt(epochStart, qcfg); err != nil {
			return fmt.Errorf("fleet: epoch %d server %d switch: %w", c.epoch, s, err)
		}
	}
	for _, s := range prevAct {
		if !c.inNew[s] { // newly parked: drain fast, then deepest sleep
			if err := c.f.Server(s).SetConfigAt(epochStart, c.parkCfg); err != nil {
				return fmt.Errorf("fleet: epoch %d server %d park: %w", c.epoch, s, err)
			}
		}
	}
	for _, s := range prevAct {
		c.inPrev[s] = false
	}
	for _, s := range c.newAct {
		c.inNew[s] = false
	}
	c.actList = append(c.actList[:0], c.newAct...)
	return nil
}

// decide runs one strategy decision against the shared epoch telemetry.
func (c *Coordinator) decide(pred float64) (policy.Policy, error) {
	return c.cfg.Strategy.Decide(core.DecideInput{
		PredictedUtilization: pred,
		Window:               c.window,
		LastEpochMeanDelay:   c.lastMean,
		LastEpochP95Delay:    c.lastP95,
		LastEpochJobs:        c.lastJobs,
		Rng:                  c.decideRng,
	})
}

// resolve materializes server s's installed policy into a queue.Config using
// the server's ping-pong phase scratch, flipping its slot for the next
// install.
func (c *Coordinator) resolve(s int) (queue.Config, error) {
	buf := &c.phaseBufs[s][c.phaseSlot[s]]
	qcfg, err := c.pols[s].AppendConfig(c.cfg.Profile, c.cfg.FreqExponent, (*buf)[:0])
	if err != nil {
		return queue.Config{}, fmt.Errorf("fleet: epoch %d server %d policy %v: %w", c.epoch, s, c.pols[s], err)
	}
	*buf = qcfg.Phases // retain growth for reuse
	c.phaseSlot[s] ^= 1
	return qcfg, nil
}

// capPlan truncates a plan to its C1-or-shallower prefix, memoized by plan
// name. A plan that never goes deeper than C1 is returned unchanged; one
// that starts deep becomes an immediate-halt plan, the shallowest plan that
// still sleeps.
func (c *Coordinator) capPlan(pl policy.SleepPlan) policy.SleepPlan {
	if pl.DeepestState().CPU <= power.C1 {
		return pl
	}
	if capped, ok := c.cappedPlans[pl.Name]; ok {
		return capped
	}
	n := 0
	for n < len(pl.Phases) && pl.Phases[n].State.CPU <= power.C1 {
		n++
	}
	var capped policy.SleepPlan
	if n == 0 {
		capped = policy.SingleState(power.Halt)
		capped.Name = pl.Name + "≤C1"
	} else {
		capped = policy.SleepPlan{Name: pl.Name + "≤C1", Phases: pl.Phases[:n:n]}
	}
	c.cappedPlans[pl.Name] = capped
	return capped
}

// closeEpoch runs the bottom of the epoch cycle: summarize delays in
// dispatch order, log the window, feed the predictors, difference the fleet
// totals and emit both epoch records. The delays are the segment walker's
// accumulation — every job dispatched this epoch, retries included — with
// responses of jobs later lost in flight masked out.
func (c *Coordinator) closeEpoch(epochStart, epochEnd float64, rhos []float64, slotSec float64) {
	c.epochDelays.Reset()
	for i, r := range c.eResp {
		if !c.eLost[i] {
			c.epochDelays.Add(r)
		}
	}
	c.window.PushJobs(c.epochJobs, epochStart)
	var realized float64
	if c.cfg.PerServer {
		// Same arithmetic as core.FeedPredictor's realized mean; the
		// observations go to the per-server predictors instead.
		for _, rho := range rhos {
			realized += rho
		}
		if len(rhos) > 0 {
			realized /= float64(len(rhos))
		}
		c.feedPerServer(rhos, epochStart, slotSec)
	} else {
		realized = core.FeedPredictor(c.cfg.Predictor, rhos)
	}
	c.lastJobs = c.epochDelays.Count()
	c.lastMean = c.epochDelays.Mean()
	c.lastP95 = c.epochDelays.PercentileNearestRank(95)
	tot := c.totalsAt(epochEnd)
	rep := &c.report
	rep.Epochs = append(rep.Epochs, core.EpochRecord{
		Index: c.epoch, Predicted: c.recPred, Realized: realized,
		Policy: c.recPol, Jobs: c.lastJobs, MeanDelay: c.lastMean, P95Delay: c.lastP95,
		Energy:   tot.Energy - c.prevTotals.Energy,
		BusyTime: tot.BusyTime - c.prevTotals.BusyTime,
		WakeTime: tot.WakeTime - c.prevTotals.WakeTime,
		IdleTime: tot.IdleTime - c.prevTotals.IdleTime,
	})
	c.prevTotals = tot

	shallow := 0
	for _, s := range c.actList {
		if c.pols[s].Plan.DeepestState().CPU <= power.C1 {
			shallow++
		}
	}
	var freq float64
	if c.cfg.PerServer {
		for _, s := range c.actList {
			freq += c.pols[s].Frequency
			rep.PlanEpochs[c.pols[s].Plan.Name]++
		}
		if len(c.actList) > 0 {
			freq /= float64(len(c.actList))
		}
	} else {
		// The decided frequency, not a recomputed mean: (f·m)/m is not
		// bit-equal to f, and shared mode's records are pinned bit for bit.
		freq = c.recPol.Frequency
		rep.PlanEpochs[c.recPol.Plan.Name]++
	}
	c.freqSum += freq
	fe := Epoch{
		Index: c.epoch, Active: len(c.actList), Parked: c.k - len(c.actList) - c.downCount,
		Shallow: shallow, Unparked: c.unpark, MeanFrequency: freq,
		Down: c.downCount, Crashes: c.epCrash, Repairs: c.epRepair,
		Lost: c.epLost, Dropped: c.epDrop,
	}
	rep.FleetEpochs = append(rep.FleetEpochs, fe)
	if c.cfg.Observer != nil {
		c.cfg.Observer(fe)
	}
	c.epoch++
}

// feedPerServer observes each active server's realized demand — the sizes
// of the jobs routed to it this epoch, bucketed by arrival slot and
// normalized by the slot length — into its predictor, in slot order. The
// demand matrix is indexed by real server id, and only the currently active
// (healthy) servers' rows are observed: demand routed to a server that
// crashed later in the epoch stays unobserved, consistent with
// frozen-while-down predictors.
func (c *Coordinator) feedPerServer(rhos []float64, epochStart, slotSec float64) {
	slots := len(rhos)
	need := c.k * slots
	c.demand = slices.Grow(c.demand[:0], need)[:need]
	clear(c.demand)
	for i, j := range c.eJobs {
		slot := int((j.Arrival - epochStart) / slotSec)
		if slot < 0 {
			slot = 0
		}
		if slot >= slots {
			slot = slots - 1
		}
		c.demand[c.eSrv[i]*slots+slot] += j.Size
	}
	for _, s := range c.actList {
		row := c.demand[s*slots : (s+1)*slots]
		for _, d := range row {
			c.preds[s].Observe(d / slotSec)
		}
	}
}

// totalsAt sums cumulative counters over every server — parked ones too, so
// epoch energy deltas account for the whole fleet — in server order.
func (c *Coordinator) totalsAt(t float64) queue.Snapshot {
	var sum queue.Snapshot
	for s := 0; s < c.k; s++ {
		sn := c.f.Server(s).TotalsAt(t)
		sum.Energy += sn.Energy
		sum.BusyTime += sn.BusyTime
		sum.WakeTime += sn.WakeTime
		sum.IdleTime += sn.IdleTime
		sum.Jobs += sn.Jobs
		sum.Wakes += sn.Wakes
	}
	return sum
}

// finish closes every server at the trace's end and folds the per-server
// summaries into the fleet aggregates in farm.Finish's summation order.
func (c *Coordinator) finish(duration float64) {
	rep := &c.report
	if c.epoch > 0 {
		rep.MeanFrequency = c.freqSum / float64(c.epoch)
	}
	// Jobs still tracked in flight past the trace's end were accepted and
	// complete (engines bill their service); fold them in so the
	// conservation ledger closes: offered == completed + requeued + dropped,
	// with completed matching the retained engine responses.
	for s := range c.pending {
		c.completed += len(c.pending[s])
		c.pending[s] = c.pending[s][:0]
	}
	rep.Offered = c.offered
	rep.Completed = c.completed
	rep.Requeued = len(c.retryq)
	rep.Dropped = c.dropped
	rep.Retries = c.retries
	rep.Crashes = c.crashes
	rep.Repairs = c.repairs
	rep.FaultEvents = c.faultLog
	var respSum float64
	for s := 0; s < c.k; s++ {
		sum := c.f.Server(s).FinishSummary(duration)
		rep.PerServer[s] = sum
		rep.Jobs += sum.Jobs
		respSum += sum.MeanResponse * float64(sum.Jobs)
		rep.AvgPower += sum.AvgPower
		rep.Energy += sum.Energy
		if sum.ResponseP95 > rep.P95Response {
			rep.P95Response = sum.ResponseP95
		}
		if sum.Duration > rep.Duration {
			rep.Duration = sum.Duration
		}
	}
	if rep.Jobs > 0 {
		rep.MeanResponse = respSum / float64(rep.Jobs)
	}
	if rep.Energy > 0 {
		rep.JobsPerJoule = float64(rep.Jobs) / rep.Energy
	}
	var dev float64
	p1 := c.cfg.Profile.ActivePower(1)
	for i := range rep.Epochs {
		dev += math.Abs(rep.Epochs[i].Energy - rep.Epochs[i].BusyTime*p1)
	}
	if denom := rep.PeakPower * duration; denom > 0 {
		rep.EnergyProportionality = 1 - dev/denom
	}
}
