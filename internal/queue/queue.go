// Package queue implements the operation model of §3.2 and the queueing
// simulator of Algorithm 1, generalized to sequences of low-power states
// with enter delays and to arbitrary service-rate frequency scaling.
//
// The model is a single-server FCFS queue. At frequency f a job of size s
// (seconds of work at f = 1) takes s/f^β seconds, where β is the frequency
// exponent (1 = CPU-bound, 0 = memory-bound). Whenever the queue empties the
// server walks down a configured sequence of low-power phases; phase i is
// entered τᵢ seconds after the queue empties. A job arrival triggers an
// immediate wake-up from the phase occupied at that instant, costing that
// phase's wake-up latency, during which the server consumes active power
// (the paper's conservative assumption) and serves nothing.
//
// Three entry points are provided: Simulate, the batch evaluator for one-off
// runs; Engine, a resumable simulator that supports changing the
// configuration mid-run so that the SleepScale runtime can switch policies at
// epoch boundaries while queue backlog carries across epochs; and Evaluator,
// the reusable simulation kernel the policy manager uses to score many
// candidate configurations against one shared job stream.
//
// # Reuse contract
//
// Engine and Evaluator are allocation-conscious: Engine.Reset rewinds an
// engine for a fresh run while keeping every internal buffer (the response
// sample and the phase-residency tally), and Evaluator.Evaluate produces a
// Summary — plain scalars, no heap references — so the §5.1.1 selection loop
// runs with zero steady-state allocations. Anything that must survive the
// next Reset (Result.Responses, Result.Residency) is only materialized by
// Finish, which Simulate calls on a fresh engine.
package queue

import (
	"errors"
	"fmt"
	"math"
	"sync"

	"sleepscale/internal/metrics"
)

// Job is one unit of work.
type Job struct {
	// Arrival is the absolute arrival time in seconds.
	Arrival float64
	// Size is the service demand in seconds of work at f = 1.
	Size float64
}

// SleepPhase is one low-power state in the idle-entry sequence, already
// resolved to concrete numbers for the frequency being simulated.
type SleepPhase struct {
	// Name labels the phase for residency reporting, e.g. "C6S0(i)".
	Name string
	// Power is the power drawn while resident in this phase, in watts.
	Power float64
	// WakeLatency is the time to return to active service, in seconds.
	WakeLatency float64
	// EnterAfter is τᵢ: seconds after the queue empties at which the
	// server enters this phase.
	EnterAfter float64
}

// Config fully describes one operating policy at one frequency.
type Config struct {
	// Frequency is the DVFS factor f ∈ (0, 1].
	Frequency float64
	// FreqExponent is β: the service rate scales as f^β.
	FreqExponent float64
	// ActivePower is the power while serving or waking, in watts.
	ActivePower float64
	// IdlePower is the power while idle before the first sleep phase is
	// entered (the server lingers in C0(a)S0(a)), in watts.
	IdlePower float64
	// Phases is the ordered low-power sequence; EnterAfter must be
	// non-decreasing. Empty means the server never sleeps (DVFS-only).
	Phases []SleepPhase
}

// Validate reports whether the configuration is simulatable.
func (c *Config) Validate() error {
	if !(c.Frequency > 0 && c.Frequency <= 1) {
		return fmt.Errorf("queue: frequency %g outside (0,1]", c.Frequency)
	}
	if c.FreqExponent < 0 || c.FreqExponent > 1 {
		return fmt.Errorf("queue: frequency exponent %g outside [0,1]", c.FreqExponent)
	}
	if c.ActivePower < 0 || c.IdlePower < 0 {
		return fmt.Errorf("queue: negative power")
	}
	prev := math.Inf(-1)
	for i, ph := range c.Phases {
		if ph.EnterAfter < 0 || ph.EnterAfter < prev {
			return fmt.Errorf("queue: phase %d (%s) enter delay %g not non-decreasing",
				i, ph.Name, ph.EnterAfter)
		}
		if ph.Power < 0 || ph.WakeLatency < 0 {
			return fmt.Errorf("queue: phase %d (%s) negative power or wake", i, ph.Name)
		}
		prev = ph.EnterAfter
	}
	return nil
}

// Speed returns the effective service-rate multiplier f^β.
func (c *Config) Speed() float64 {
	if c.FreqExponent == 0 {
		return 1
	}
	if c.FreqExponent == 1 {
		return c.Frequency
	}
	return math.Pow(c.Frequency, c.FreqExponent)
}

// ServiceTime reports how long a job of the given size takes under this
// configuration.
func (c *Config) ServiceTime(size float64) float64 { return size / c.Speed() }

// occupiedPhase reports the index of the phase occupied at idle offset off
// (seconds since the idle schedule's anchor), or -1 when the server has not
// yet entered the first phase.
func (c *Config) occupiedPhase(off float64) int {
	idx := -1
	for i, ph := range c.Phases {
		if ph.EnterAfter <= off {
			idx = i
		} else {
			break
		}
	}
	return idx
}

// NextFreeAt advances the server-availability recursion of Engine.Process for
// one job, with none of the energy or metrics accounting: given a server
// whose accepted work completes at freeAt — and whose idle schedule is
// anchored there, which holds whenever the engine has only processed jobs
// since its last reset (no SetConfigAt) — it returns the completion time
// after additionally serving j. The arithmetic mirrors Process operation for
// operation, so state-dependent dispatchers (farm JSQ) can route against a
// lightweight freeAt shadow and pick bit-identically to routing against live
// engines.
func (c *Config) NextFreeAt(freeAt float64, j Job) float64 {
	return c.NextFreeAtAnchored(freeAt, freeAt, j)
}

// NextFreeAtAnchored is NextFreeAt for a server whose idle schedule is
// anchored at anchor rather than at freeAt — the general form of the
// availability recursion, matching Engine.Process even after a SetConfigAt
// during an idle period moved the anchor. anchor must equal freeAt whenever
// the server has processed a job since the last anchor move (Process re-sets
// both to the departure time); NextFreeAt is the anchor == freeAt special
// case.
func (c *Config) NextFreeAtAnchored(freeAt, anchor float64, j Job) float64 {
	svc := c.ServiceTime(j.Size)
	var start float64
	if j.Arrival > freeAt {
		w := 0.0
		if k := c.occupiedPhase(j.Arrival - anchor); k >= 0 {
			w = c.Phases[k].WakeLatency
		}
		start = j.Arrival + w
	} else {
		start = freeAt
	}
	return start + svc
}

// Result summarizes one simulation run.
type Result struct {
	// Jobs is the number of completed jobs.
	Jobs int
	// MeanResponse is the mean response (sojourn) time in seconds.
	MeanResponse float64
	// ResponseP95 and ResponseP99 are response-time percentiles.
	ResponseP95 float64
	ResponseP99 float64
	// AvgPower is Energy / Duration, in watts.
	AvgPower float64
	// Energy is total energy in joules.
	Energy float64
	// Duration is the simulated wall-clock span in seconds.
	Duration float64
	// BusyTime, WakeTime and IdleTime partition Duration.
	BusyTime float64
	WakeTime float64
	IdleTime float64
	// Wakes counts wake-up transitions.
	Wakes int
	// Residency maps phase name → seconds of residency. The pre-sleep
	// idle window is reported under "idle-active".
	Residency map[string]float64
	// Responses is the full response-time sample for tail analysis.
	Responses *metrics.Sample
	// MeasuredUtilization is BusyTime / Duration.
	MeasuredUtilization float64
}

// PreSleepBucket is the residency bucket for idle time spent before the
// first sleep phase is entered.
const PreSleepBucket = "idle-active"

// Engine is a resumable FCFS simulator. Create with NewEngine, feed jobs in
// non-decreasing arrival order with Process, optionally switch configuration
// with SetConfigAt, and close with Finish. Reset rewinds the engine for a
// fresh run under a new configuration while keeping its internal buffers, so
// one engine can score many candidate policies without allocating.
type Engine struct {
	cfg   Config
	speed float64 // cfg.Speed()

	freeAt float64 // server is busy until this time
	anchor float64 // start of the current idle schedule
	billed float64 // idle billed up to this absolute time

	energy   float64
	busy     float64
	wake     float64
	idle     float64
	wakes    int
	started  float64
	lastSeen float64

	// resid is the hot-path residency tally, indexed by phase: resid[0] is
	// the pre-sleep bucket, resid[i+1] is cfg.Phases[i]. The name-keyed map
	// only materializes in Finish. residPrev carries residency accumulated
	// under earlier configurations across SetConfigAt switches; it stays nil
	// until the first switch, so the one-config evaluation path never
	// touches a map, and Reset empties it in place so a switching re-run
	// (e.g. an epoch loop replayed per benchmark op) never reallocates it.
	resid     []float64
	residPrev *metrics.WeightedTally
	responses metrics.Sample

	// discardResponses drops raw response observations, keeping only the
	// streaming moments (count, mean, variance, min, max). A long-running
	// serve loop sets it so engine memory stays O(1) however many jobs the
	// unbounded feed delivers; the cost is that percentile queries over the
	// whole run (FinishSummary's ResponseP95/P99) report 0 — per-epoch tails
	// are the epoch driver's own bounded sample, unaffected.
	discardResponses bool

	// down marks a crashed server (see CrashAt/RejoinAt in crash.go): it
	// accepts no work, accrues no idle energy, and its billing clocks stay
	// frozen at the crash instant until RejoinAt.
	down bool
}

// ErrOutOfOrder reports a job processed with an arrival before the previous
// job's arrival.
var ErrOutOfOrder = errors.New("queue: job arrivals out of order")

// NewEngine returns an engine that starts idle at time start under cfg.
func NewEngine(cfg Config, start float64) (*Engine, error) {
	e := &Engine{}
	if err := e.Reset(cfg, start); err != nil {
		return nil, err
	}
	return e, nil
}

// Reset rewinds the engine to start idle at time start under cfg, exactly as
// a fresh NewEngine would, but reuses every internal buffer. Results returned
// by a previous Finish remain valid except for Result.Responses, which
// aliases the engine's sample and is cleared by the reset.
func (e *Engine) Reset(cfg Config, start float64) error {
	if err := cfg.Validate(); err != nil {
		return err
	}
	e.cfg, e.speed = cfg, cfg.Speed()
	e.freeAt, e.anchor, e.billed = start, start, start
	e.started, e.lastSeen = start, start
	e.energy, e.busy, e.wake, e.idle = 0, 0, 0, 0
	e.wakes = 0
	e.resid = resizeZero(e.resid, len(cfg.Phases)+1)
	if e.residPrev != nil {
		e.residPrev.Reset() // emptied in place: a re-run's switches reuse it
	}
	e.responses.Reset()
	e.down = false
	return nil
}

// resizeZero returns s resized to n zeroed elements, reusing capacity.
func resizeZero(s []float64, n int) []float64 {
	if cap(s) < n {
		return make([]float64, n)
	}
	s = s[:n]
	for i := range s {
		s[i] = 0
	}
	return s
}

// billIdle charges idle energy for the absolute interval [from, to) against
// the idle schedule anchored at e.anchor, and updates residency buckets.
func (e *Engine) billIdle(from, to float64) {
	if to <= from {
		return
	}
	o1, o2 := from-e.anchor, to-e.anchor
	e.idle += to - from
	// Pre-sleep segment [0, τ₁).
	preEnd := math.Inf(1)
	if len(e.cfg.Phases) > 0 {
		preEnd = e.cfg.Phases[0].EnterAfter
	}
	if o1 < preEnd {
		seg := math.Min(o2, preEnd) - o1
		e.energy += seg * e.cfg.IdlePower
		e.resid[0] += seg
	}
	for i, ph := range e.cfg.Phases {
		start := ph.EnterAfter
		end := math.Inf(1)
		if i+1 < len(e.cfg.Phases) {
			end = e.cfg.Phases[i+1].EnterAfter
		}
		lo := math.Max(o1, start)
		hi := math.Min(o2, end)
		if hi > lo {
			e.energy += (hi - lo) * ph.Power
			e.resid[i+1] += hi - lo
		}
	}
}

// flushResidency folds the phase-indexed tally into the name-keyed carry
// tally, zeroing the slice. Called at configuration switches (the phase set
// may change) — never on the one-config hot path.
func (e *Engine) flushResidency() {
	if e.residPrev == nil {
		e.residPrev = metrics.NewWeightedTally()
	}
	if e.resid[0] != 0 {
		e.residPrev.Add(PreSleepBucket, e.resid[0])
	}
	for i, ph := range e.cfg.Phases {
		if v := e.resid[i+1]; v != 0 {
			e.residPrev.Add(ph.Name, v)
		}
	}
}

// Process serves one job and reports its response time. Jobs must be fed in
// non-decreasing arrival order.
func (e *Engine) Process(j Job) (response float64, err error) {
	if j.Arrival < e.lastSeen {
		return 0, fmt.Errorf("%w: %g after %g", ErrOutOfOrder, j.Arrival, e.lastSeen)
	}
	if j.Size < 0 {
		return 0, fmt.Errorf("queue: negative job size %g", j.Size)
	}
	if e.down {
		return 0, ErrDown
	}
	e.lastSeen = j.Arrival
	start := e.freeAt
	if j.Arrival > start {
		start = e.wakeUp(j.Arrival)
	}
	response = e.step(j, start)
	if e.discardResponses {
		// Moments only: Count/Mean stay exact (Snapshot.Jobs, the epoch
		// deltas and FinishSummary's MeanResponse are unaffected); the raw
		// sample — and with it whole-run percentiles — is not kept.
		e.responses.Stream.Add(response)
	} else {
		e.responses.Add(response)
	}
	return response, nil
}

// step serves an accepted job from start, when the server is free and
// awake, and returns its response time: Process's arithmetic, without its
// checks, its wake-up and the recording of the response.
func (e *Engine) step(j Job, start float64) float64 {
	svc := j.Size / e.speed
	e.busy += svc
	e.energy += svc * e.cfg.ActivePower
	e.freeAt = start + svc
	// The queue empties at freeAt (as far as this job knows); the idle
	// schedule re-anchors there. A later arrival before freeAt simply
	// moves both on.
	e.anchor, e.billed = e.freeAt, e.freeAt
	return e.freeAt - j.Arrival
}

// wakeUp wakes the server, idle since freeAt < t, at t: it bills the idle
// gap [billed, t) and charges the wake-up latency of the sleep phase
// occupied at t — wake time at active power, wakes incremented. It returns
// when the server is awake, t + latency.
func (e *Engine) wakeUp(t float64) float64 {
	e.billIdle(e.billed, t)
	e.billed = t
	w := 0.0
	if k := e.cfg.occupiedPhase(t - e.anchor); k >= 0 {
		w = e.cfg.Phases[k].WakeLatency
	}
	if w > 0 {
		e.wakes++
		e.wake += w
		e.energy += w * e.cfg.ActivePower
	}
	return t + w
}

// SetRetainResponses controls whether Process keeps the raw response sample
// (the default, enabling whole-run percentiles) or only the streaming
// moments (O(1) memory for unbounded runs; see the discardResponses field).
// Switch before the first Process of a run.
func (e *Engine) SetRetainResponses(retain bool) { e.discardResponses = !retain }

// WakeAt wakes an idle server at absolute time t without serving a job: the
// fleet coordinator's unpark. Idle up to t is billed under the current
// configuration, the wake-up latency of the sleep phase occupied at t is
// charged exactly as Process charges it for an arriving job — wake time at
// active power, wakes incremented — and the server is busy waking until
// t + latency, where its idle schedule re-anchors. A job arriving during the
// wake therefore queues behind it, so an unparked server's first response
// pays the full deep-sleep wake cost. A busy server (t ≤ freeAt) has nothing
// to wake; the call is a no-op.
func (e *Engine) WakeAt(t float64) error {
	if t < e.lastSeen {
		return fmt.Errorf("queue: wake at %g before last arrival %g", t, e.lastSeen)
	}
	if e.down {
		return ErrDown
	}
	e.lastSeen = t
	if t > e.freeAt {
		// Busy waking until t + latency, where the idle schedule re-anchors.
		e.freeAt = e.wakeUp(t)
		e.anchor, e.billed = e.freeAt, e.freeAt
	}
	return nil
}

// SetConfigAt switches the engine to a new configuration at absolute time t.
// Idle time before t is billed under the old configuration; the idle
// schedule re-anchors at t, so the sleep-entry clock restarts under the new
// policy (a frequency change requires brief activity anyway). Work already
// accepted (the current backlog horizon freeAt) completes at the old speed;
// the new configuration applies to jobs processed afterwards.
func (e *Engine) SetConfigAt(t float64, cfg Config) error {
	if err := cfg.Validate(); err != nil {
		return err
	}
	if t < e.lastSeen {
		return fmt.Errorf("queue: config switch at %g before last arrival %g", t, e.lastSeen)
	}
	if e.down {
		return ErrDown
	}
	if t > e.freeAt {
		// Server is idle at the switch: close out the old schedule.
		e.billIdle(e.billed, t)
		e.anchor = t
		e.billed = t
	}
	e.lastSeen = t
	// The new configuration may have a different phase set, so the
	// phase-indexed residency tally is folded into the name-keyed carry.
	e.flushResidency()
	e.cfg, e.speed = cfg, cfg.Speed()
	e.resid = resizeZero(e.resid, len(cfg.Phases)+1)
	return nil
}

// Config returns the engine's current configuration.
func (e *Engine) Config() Config { return e.cfg }

// FreeAt reports the time at which all accepted work completes.
func (e *Engine) FreeAt() float64 { return e.freeAt }

// IdleAnchor reports the start of the engine's current idle schedule: the
// last departure time, or the instant of the last idle-period SetConfigAt if
// that came later. State-dependent dispatchers price wake-ups from it.
func (e *Engine) IdleAnchor() float64 { return e.anchor }

// NextFreeAt reports the time at which the engine's work would complete if it
// additionally served j, without serving it — the same availability recursion
// Process runs, priced against the engine's live configuration and its actual
// idle anchor. Unlike Config.NextFreeAt on FreeAt alone, this stays exact
// after a mid-run SetConfigAt during an idle period (the anchor moved while
// freeAt did not).
func (e *Engine) NextFreeAt(j Job) float64 {
	return e.cfg.NextFreeAtAnchored(e.freeAt, e.anchor, j)
}

// Backlog reports the seconds of accepted-but-unfinished work as of time t.
func (e *Engine) Backlog(t float64) float64 {
	if e.freeAt <= t {
		return 0
	}
	return e.freeAt - t
}

// Snapshot captures running totals so a caller can compute per-epoch deltas.
type Snapshot struct {
	Energy   float64
	BusyTime float64
	WakeTime float64
	IdleTime float64
	Jobs     int
	Wakes    int
}

// Snapshot reports the engine's cumulative counters.
func (e *Engine) Snapshot() Snapshot {
	return Snapshot{
		Energy:   e.energy,
		BusyTime: e.busy,
		WakeTime: e.wake,
		IdleTime: e.idle,
		Jobs:     e.responses.Count(),
		Wakes:    e.wakes,
	}
}

// idleEnergyBetween prices the idle interval [from, to) against the current
// idle schedule without billing it — the pure-read mirror of billIdle's
// energy arithmetic (same segments, same phase boundaries), minus the
// residency bookkeeping.
func (e *Engine) idleEnergyBetween(from, to float64) float64 {
	if to <= from {
		return 0
	}
	o1, o2 := from-e.anchor, to-e.anchor
	var energy float64
	preEnd := math.Inf(1)
	if len(e.cfg.Phases) > 0 {
		preEnd = e.cfg.Phases[0].EnterAfter
	}
	if o1 < preEnd {
		energy += (math.Min(o2, preEnd) - o1) * e.cfg.IdlePower
	}
	for i, ph := range e.cfg.Phases {
		end := math.Inf(1)
		if i+1 < len(e.cfg.Phases) {
			end = e.cfg.Phases[i+1].EnterAfter
		}
		lo := math.Max(o1, ph.EnterAfter)
		hi := math.Min(o2, end)
		if hi > lo {
			energy += (hi - lo) * ph.Power
		}
	}
	return energy
}

// TotalsAt reports the cumulative counters as they would stand with idle
// billed up to time t, without mutating the engine — what lets an epoch
// driver take exact per-epoch energy deltas at boundaries that fall inside
// an idle period. Idle the engine has already billed (t ≤ billed horizon) is
// never double-counted; service energy remains attributed at accept time, so
// work straddling t counts in the epoch that accepted it. TotalsAt(end of
// run) equals FinishSummary's totals.
func (e *Engine) TotalsAt(t float64) Snapshot {
	s := e.Snapshot()
	if t > e.billed && !e.down {
		s.Energy += e.idleEnergyBetween(e.billed, t)
		s.IdleTime += t - e.billed
	}
	return s
}

// EngineState is the complete resumable state of an Engine minus its
// configuration (which callers persist alongside, normally by re-deriving it
// from the policy in force) and minus the raw response sample: responses are
// captured as streaming moments only, so a restored engine reports exact
// counts, means and energy totals but whole-run percentiles restart empty.
// Engines running with SetRetainResponses(false) — the serve daemon's mode —
// lose nothing. All fields are plain values; State deep-copies the slices.
type EngineState struct {
	FreeAt, Anchor, Billed   float64
	Energy, Busy, Wake, Idle float64
	Wakes                    int
	Started, LastSeen        float64
	Resid                    []float64
	// ResidPrevNames/ResidPrevWeights carry the name-keyed residency folded
	// at configuration switches, in first-seen order.
	ResidPrevNames   []string
	ResidPrevWeights []float64
	Responses        metrics.StreamState
	DiscardResponses bool
}

// State captures the engine's resumable state; see EngineState for what a
// restore preserves. The engine is not mutated.
func (e *Engine) State() EngineState {
	st := EngineState{
		FreeAt: e.freeAt, Anchor: e.anchor, Billed: e.billed,
		Energy: e.energy, Busy: e.busy, Wake: e.wake, Idle: e.idle,
		Wakes: e.wakes, Started: e.started, LastSeen: e.lastSeen,
		Resid:            append([]float64(nil), e.resid...),
		Responses:        e.responses.Stream.State(),
		DiscardResponses: e.discardResponses,
	}
	if e.residPrev != nil {
		for _, name := range e.residPrev.Names() {
			st.ResidPrevNames = append(st.ResidPrevNames, name)
			st.ResidPrevWeights = append(st.ResidPrevWeights, e.residPrev.Get(name))
		}
	}
	return st
}

// RestoreEngine reconstructs an engine mid-run from a captured state under
// cfg, which must be the configuration that was in force at capture time
// (cfg.Phases is deep-copied, so the caller's slice stays its own). The
// restored engine continues bit-identically to the original: same billing,
// same wake pricing, same totals at every future instant.
func RestoreEngine(cfg Config, st EngineState) (*Engine, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if len(st.ResidPrevNames) != len(st.ResidPrevWeights) {
		return nil, fmt.Errorf("queue: residency names/weights length mismatch (%d vs %d)",
			len(st.ResidPrevNames), len(st.ResidPrevWeights))
	}
	if len(st.Resid) != len(cfg.Phases)+1 {
		return nil, fmt.Errorf("queue: residency tally has %d buckets, config wants %d",
			len(st.Resid), len(cfg.Phases)+1)
	}
	cfg.Phases = append([]SleepPhase(nil), cfg.Phases...)
	e := &Engine{
		cfg: cfg, speed: cfg.Speed(),
		freeAt: st.FreeAt, anchor: st.Anchor, billed: st.Billed,
		energy: st.Energy, busy: st.Busy, wake: st.Wake, idle: st.Idle,
		wakes: st.Wakes, started: st.Started, lastSeen: st.LastSeen,
		resid:            append([]float64(nil), st.Resid...),
		discardResponses: st.DiscardResponses,
	}
	if len(st.ResidPrevNames) > 0 {
		e.residPrev = metrics.NewWeightedTally()
		for i, name := range st.ResidPrevNames {
			e.residPrev.Add(name, st.ResidPrevWeights[i])
		}
	}
	e.responses.Stream.SetState(st.Responses)
	return e, nil
}

// Summary is the scalar aggregate of a run: the same quantities as Result
// minus the residency map and the raw response sample, so producing one
// allocates nothing. It is what Evaluator returns per candidate policy.
type Summary struct {
	Jobs                int
	MeanResponse        float64
	ResponseP95         float64
	ResponseP99         float64
	AvgPower            float64
	Energy              float64
	Duration            float64
	BusyTime            float64
	WakeTime            float64
	IdleTime            float64
	Wakes               int
	MeasuredUtilization float64
}

// FinishSummary closes the run at time at (which must be ≥ the last
// departure), billing any trailing idle, and returns the scalar aggregate.
// Unlike Finish it materializes no residency map and exposes no sample, so
// the engine can be Reset and reused without invalidating the return value.
func (e *Engine) FinishSummary(at float64) Summary {
	if at < e.freeAt {
		at = e.freeAt
	}
	if at > e.freeAt && !e.down {
		// A down server consumes nothing: its billing clocks stay frozen at
		// the crash instant, so down time appears in Duration but in none of
		// the busy/wake/idle buckets.
		e.billIdle(e.billed, at)
		e.billed = at
	}
	dur := at - e.started
	sum := Summary{
		Jobs:         e.responses.Count(),
		MeanResponse: e.responses.Mean(),
		ResponseP95:  e.responses.Percentile(95),
		ResponseP99:  e.responses.Percentile(99),
		Energy:       e.energy,
		Duration:     dur,
		BusyTime:     e.busy,
		WakeTime:     e.wake,
		IdleTime:     e.idle,
		Wakes:        e.wakes,
	}
	if dur > 0 {
		sum.AvgPower = e.energy / dur
		sum.MeasuredUtilization = e.busy / dur
	}
	return sum
}

// Finish closes the run at time at (which must be ≥ the last departure),
// billing any trailing idle, and returns the aggregate result. The returned
// Result.Responses aliases the engine's sample: it is valid until the next
// Reset.
func (e *Engine) Finish(at float64) (Result, error) {
	sum := e.FinishSummary(at)
	res := Result{
		Jobs:                sum.Jobs,
		MeanResponse:        sum.MeanResponse,
		ResponseP95:         sum.ResponseP95,
		ResponseP99:         sum.ResponseP99,
		AvgPower:            sum.AvgPower,
		Energy:              sum.Energy,
		Duration:            sum.Duration,
		BusyTime:            sum.BusyTime,
		WakeTime:            sum.WakeTime,
		IdleTime:            sum.IdleTime,
		Wakes:               sum.Wakes,
		MeasuredUtilization: sum.MeasuredUtilization,
		Residency:           make(map[string]float64, len(e.resid)),
		Responses:           &e.responses,
	}
	if e.residPrev != nil {
		for _, name := range e.residPrev.Names() {
			res.Residency[name] = e.residPrev.Get(name)
		}
	}
	if v := e.resid[0]; v != 0 {
		res.Residency[PreSleepBucket] += v
	}
	for i, ph := range e.cfg.Phases {
		if v := e.resid[i+1]; v != 0 {
			res.Residency[ph.Name] += v
		}
	}
	return res, nil
}

// Simulate runs Algorithm 1: it serves jobs (which must be sorted by
// arrival) under cfg, starting idle at time 0, and ends the measurement at
// the last departure. For scoring many candidate configurations against one
// stream, Evaluator amortizes this function's per-call allocations.
func Simulate(jobs []Job, cfg Config) (Result, error) {
	eng, err := NewEngine(cfg, 0)
	if err != nil {
		return Result{}, err
	}
	if err := eng.run(jobs); err != nil {
		return Result{}, err
	}
	return eng.Finish(eng.freeAt)
}

// JobSource is the minimal pull interface the streaming drivers consume: it
// fills buf with the next jobs in non-decreasing arrival order, returning
// the count and whether more may follow (the stream package's Source
// satisfies it). Sources that can fail mid-stream expose Err() error, which
// the drivers check after exhaustion.
type JobSource interface {
	Next(buf []Job) (n int, ok bool)
}

// run feeds a whole sorted stream through the engine. The engine must be
// freshly constructed or Reset. It checks the stream once, then serves it
// as Process would. The first job Process would reject goes to Process
// itself for its error, and so does a NaN arrival, which Process accepts.
func (e *Engine) run(jobs []Job) error {
	for i := 0; i < len(jobs); i++ {
		k := i + e.accepted(jobs[i:])
		for _, j := range jobs[i:k] {
			start := e.freeAt
			if j.Arrival > start {
				start = e.wakeUp(j.Arrival)
			}
			if r := e.step(j, start); e.discardResponses {
				e.responses.Stream.Add(r)
			} else {
				e.responses.Add(r)
			}
		}
		if k > i {
			e.lastSeen = jobs[k-1].Arrival
		}
		if k == len(jobs) {
			break
		}
		if _, err := e.Process(jobs[k]); err != nil {
			return fmt.Errorf("job %d: %w", k, err)
		}
		i = k
	}
	return nil
}

// accepted reports how many leading jobs Process would accept, fed in
// order after the engine's last arrival, stopping early at a NaN arrival.
func (e *Engine) accepted(jobs []Job) int {
	if e.down {
		return 0
	}
	last := e.lastSeen
	for i, j := range jobs {
		if !(j.Arrival >= last) || j.Size < 0 {
			return i
		}
		last = j.Arrival
	}
	return len(jobs)
}

// Evaluator is the reusable simulation kernel for candidate-policy scoring:
// it owns one Engine (and thereby the response-sample and residency buffers)
// and evaluates many configurations over one shared job stream with zero
// steady-state allocations. An Evaluator is not safe for concurrent use; the
// selection loop gives each worker its own (see GetEvaluator).
type Evaluator struct {
	eng  Engine
	jobs []Job
}

// SetStream replaces the shared job stream for later Evaluate calls, keeping
// the evaluator's buffers.
func (ev *Evaluator) SetStream(jobs []Job) { ev.jobs = jobs }

// SetRetainResponses chooses what later Evaluate calls keep of the
// responses. By default (true) the raw sample is kept and every Summary field
// is reported, exactly as Simulate reports it. Moments only (false) stores,
// copies and orders nothing per response: Jobs and MeanResponse stay exact,
// ResponseP95/P99 read 0 and Responses holds no values. Release restores the
// default.
func (ev *Evaluator) SetRetainResponses(retain bool) { ev.eng.SetRetainResponses(retain) }

// Evaluate runs Algorithm 1 for one candidate configuration over the shared
// stream, exactly as Simulate(jobs, cfg) would, and returns the scalar
// summary (moments only after SetRetainResponses(false)). The result is a
// value: it stays valid across further Evaluate calls.
func (ev *Evaluator) Evaluate(cfg Config) (Summary, error) {
	if err := ev.eng.Reset(cfg, 0); err != nil {
		return Summary{}, err
	}
	if err := ev.eng.run(ev.jobs); err != nil {
		return Summary{}, err
	}
	return ev.eng.FinishSummary(ev.eng.freeAt), nil
}

// Responses exposes the response sample of the most recent Evaluate call,
// e.g. for tail inspection. It aliases evaluator-owned storage: the next
// Evaluate or Release invalidates it.
func (ev *Evaluator) Responses() *metrics.Sample { return &ev.eng.responses }

// evaluatorPool recycles evaluators (and their engine buffers) across policy
// selections, so the per-epoch decision loop settles into zero allocations.
var evaluatorPool = sync.Pool{New: func() any { return new(Evaluator) }}

// GetEvaluator returns a pooled evaluator bound to the given stream. Release
// it with Release when done; one evaluator per goroutine.
func GetEvaluator(jobs []Job) *Evaluator {
	ev := evaluatorPool.Get().(*Evaluator)
	ev.SetStream(jobs)
	return ev
}

// Release drops the evaluator's stream reference (so the pool does not pin
// caller job slices), restores response retention, and returns it to the
// pool; the internal buffers are kept for the next GetEvaluator.
func (ev *Evaluator) Release() {
	ev.jobs = nil
	ev.eng.SetRetainResponses(true)
	evaluatorPool.Put(ev)
}
