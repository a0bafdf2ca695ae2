// Package multicore extends the SleepScale model to a multi-core server —
// the second future-work direction of §7. A k-core chip serves one shared
// FCFS queue; each core walks its own CPU sleep schedule when idle, but the
// platform (chipset, RAM, PSU, fans) is shared: it can only leave its active
// state while *every* core is idle, and only reach its deep state after the
// whole chip has been idle for a configurable delay. This captures the
// coordination problem guarded power gating [23] points at: one busy core
// pins the platform for all of them.
//
// The simulator assigns each arriving job to the earliest-available core
// (FCFS for multi-server queues); among simultaneously idle cores it picks
// the most recently idled one, which occupies the shallowest sleep state and
// therefore wakes cheapest ("shallowest-first" reuse).
package multicore

import (
	"errors"
	"fmt"
	"math"
	"sync"

	"sleepscale/internal/metrics"
	"sleepscale/internal/queue"
)

// Phase is one per-core CPU sleep phase (CPU power component only; the
// platform is accounted separately).
type Phase struct {
	// Name labels the phase for residency reporting, e.g. "C6".
	Name string
	// Power is the per-core CPU power while resident, watts.
	Power float64
	// WakeLatency is the core's time to return to service, seconds.
	WakeLatency float64
	// EnterAfter is τ: seconds after the core idles at which it enters.
	EnterAfter float64
}

// Config describes a k-core server sharing one platform.
type Config struct {
	// Cores is k ≥ 1.
	Cores int
	// Frequency is the chip-wide DVFS factor f ∈ (0, 1].
	Frequency float64
	// FreqExponent is β (service rate ∝ f^β).
	FreqExponent float64
	// CPUActivePower is one core's power while serving or waking, watts.
	CPUActivePower float64
	// CoreSleep is the per-core CPU sleep schedule.
	CoreSleep []Phase
	// PlatformActivePower applies while at least one core is serving or
	// waking; PlatformIdlePower while the whole chip is idle; and
	// PlatformSleepPower once the chip has been idle for
	// PlatformSleepAfter seconds.
	PlatformActivePower float64
	PlatformIdlePower   float64
	PlatformSleepPower  float64
	// PlatformSleepAfter is the all-idle delay before platform sleep;
	// +Inf (or simply a huge value) disables platform sleep.
	PlatformSleepAfter float64
	// PlatformWakeLatency is the extra latency to revive a sleeping
	// platform; the effective wake of a job is the maximum of the core
	// and platform latencies.
	PlatformWakeLatency float64
}

// Validate checks the configuration.
func (c *Config) Validate() error {
	if c.Cores < 1 {
		return fmt.Errorf("multicore: %d cores", c.Cores)
	}
	if !(c.Frequency > 0 && c.Frequency <= 1) {
		return fmt.Errorf("multicore: frequency %g outside (0,1]", c.Frequency)
	}
	if c.FreqExponent < 0 || c.FreqExponent > 1 {
		return fmt.Errorf("multicore: frequency exponent %g outside [0,1]", c.FreqExponent)
	}
	if c.CPUActivePower < 0 || c.PlatformActivePower < 0 ||
		c.PlatformIdlePower < 0 || c.PlatformSleepPower < 0 {
		return fmt.Errorf("multicore: negative power")
	}
	if c.PlatformSleepAfter < 0 || c.PlatformWakeLatency < 0 {
		return fmt.Errorf("multicore: negative platform delay")
	}
	prev := math.Inf(-1)
	for i, ph := range c.CoreSleep {
		if ph.EnterAfter < 0 || ph.EnterAfter < prev {
			return fmt.Errorf("multicore: phase %d enter %g not non-decreasing", i, ph.EnterAfter)
		}
		if ph.Power < 0 || ph.WakeLatency < 0 {
			return fmt.Errorf("multicore: phase %d negative power or wake", i)
		}
		prev = ph.EnterAfter
	}
	return nil
}

func (c *Config) speed() float64 {
	switch c.FreqExponent {
	case 0:
		return 1
	case 1:
		return c.Frequency
	default:
		return math.Pow(c.Frequency, c.FreqExponent)
	}
}

// Result summarizes a multi-core run.
type Result struct {
	// Jobs served.
	Jobs int
	// MeanResponse and ResponseP95 in seconds.
	MeanResponse float64
	ResponseP95  float64
	// Energy (J), Duration (s) and AvgPower (W) for the whole chip.
	Energy   float64
	Duration float64
	AvgPower float64
	// CPUEnergy and PlatformEnergy partition Energy.
	CPUEnergy      float64
	PlatformEnergy float64
	// CoreBusy[i] is core i's cumulative serving+waking time.
	CoreBusy []float64
	// PlatformResidency maps "active"/"idle"/"sleep" to seconds.
	PlatformResidency map[string]float64
}

// ErrOutOfOrder mirrors queue.ErrOutOfOrder for the shared-queue simulator.
var ErrOutOfOrder = errors.New("multicore: job arrivals out of order")

// core tracks one core's lazy energy accounting, mirroring queue.Engine's
// idle billing but with CPU-only powers.
type core struct {
	freeAt float64 // busy (serving or waking) until this time
	billed float64 // idle billed up to this absolute time
	busy   float64
	energy float64
}

// Simulator is the resumable k-core engine. A zero Simulator is ready for
// Reset, which rewinds it for a fresh run while keeping its buffers, so one
// simulator can score many configurations (or be recycled by Simulate's
// pool) without allocating.
type Simulator struct {
	cfg   Config
	cores []core
	// Platform horizon: busy (≥1 core active) until this time; idle billed
	// up to billedP.
	platformBusyUntil float64
	billedP           float64
	platformEnergy    float64
	// Platform residency tally: the bucket set is fixed, so three scalars
	// replace a name-keyed map on the hot path.
	residActive float64
	residIdle   float64
	residSleep  float64

	lastSeen  float64
	lastBegin float64
	responses metrics.Sample
	started   float64
}

// Reset rewinds the simulator to all cores idle at time start under cfg,
// reusing the core and response buffers.
func (s *Simulator) Reset(cfg Config, start float64) error {
	if err := cfg.Validate(); err != nil {
		return err
	}
	s.cfg = cfg
	if cap(s.cores) < cfg.Cores {
		s.cores = make([]core, cfg.Cores)
	} else {
		s.cores = s.cores[:cfg.Cores]
	}
	for i := range s.cores {
		s.cores[i] = core{freeAt: start, billed: start}
	}
	s.platformBusyUntil = start
	s.billedP = start
	s.platformEnergy = 0
	s.residActive, s.residIdle, s.residSleep = 0, 0, 0
	s.lastSeen = start
	s.lastBegin = start
	s.started = start
	s.responses.Reset()
	return nil
}

// coreIdleEnergy bills core idle time [from, to) against the CPU sleep
// schedule anchored at the core's freeAt.
func (s *Simulator) coreIdleEnergy(c *core, from, to float64) {
	if to <= from {
		return
	}
	o1, o2 := from-c.freeAt, to-c.freeAt
	preEnd := math.Inf(1)
	if len(s.cfg.CoreSleep) > 0 {
		preEnd = s.cfg.CoreSleep[0].EnterAfter
	}
	if o1 < preEnd {
		seg := math.Min(o2, preEnd) - o1
		c.energy += seg * s.cfg.CPUActivePower
	}
	for i, ph := range s.cfg.CoreSleep {
		start := ph.EnterAfter
		end := math.Inf(1)
		if i+1 < len(s.cfg.CoreSleep) {
			end = s.cfg.CoreSleep[i+1].EnterAfter
		}
		lo, hi := math.Max(o1, start), math.Min(o2, end)
		if hi > lo {
			c.energy += (hi - lo) * ph.Power
		}
	}
}

// corePhase reports the sleep phase a core occupies at idle offset off, or
// -1 while still in the pre-sleep window.
func (s *Simulator) corePhase(off float64) int {
	idx := -1
	for i, ph := range s.cfg.CoreSleep {
		if ph.EnterAfter <= off {
			idx = i
		} else {
			break
		}
	}
	return idx
}

// platformIdleEnergy bills chip-wide idle [from, to) against the platform
// schedule anchored at platformBusyUntil.
func (s *Simulator) platformIdleEnergy(from, to float64) {
	if to <= from {
		return
	}
	o1, o2 := from-s.platformBusyUntil, to-s.platformBusyUntil
	sleepAt := s.cfg.PlatformSleepAfter
	if o1 < sleepAt {
		seg := math.Min(o2, sleepAt) - o1
		s.platformEnergy += seg * s.cfg.PlatformIdlePower
		s.residIdle += seg
	}
	if o2 > sleepAt {
		seg := o2 - math.Max(o1, sleepAt)
		s.platformEnergy += seg * s.cfg.PlatformSleepPower
		s.residSleep += seg
	}
}

// Process serves one job, returning its response time. Jobs must be fed in
// non-decreasing arrival order.
func (s *Simulator) Process(j queue.Job) (float64, error) {
	if j.Arrival < s.lastSeen {
		return 0, fmt.Errorf("%w: %g after %g", ErrOutOfOrder, j.Arrival, s.lastSeen)
	}
	if j.Size < 0 {
		return 0, fmt.Errorf("multicore: negative job size %g", j.Size)
	}
	s.lastSeen = j.Arrival
	svc := j.Size / s.cfg.speed()

	// Choose the core: among idle cores the most recently idled (shallowest
	// state, cheapest wake); with none idle, the earliest to free (FCFS).
	best, bestIdle := -1, false
	for i := range s.cores {
		c := &s.cores[i]
		// A zero-length gap (freeAt == arrival) is busy continuation, not
		// an idle period — matching queue.Engine's boundary semantics.
		idle := c.freeAt < j.Arrival
		switch {
		case best < 0:
			best, bestIdle = i, idle
		case idle && !bestIdle:
			best, bestIdle = i, true
		case idle && bestIdle && c.freeAt > s.cores[best].freeAt:
			best = i
		case !idle && !bestIdle && c.freeAt < s.cores[best].freeAt:
			best = i
		}
	}
	c := &s.cores[best]

	var begin, wake float64
	if c.freeAt < j.Arrival {
		// Idle assignment: wake from the occupied phase; a sleeping
		// platform adds its own revival latency.
		if k := s.corePhase(j.Arrival - c.freeAt); k >= 0 {
			wake = s.cfg.CoreSleep[k].WakeLatency
		}
		if s.platformBusyUntil <= j.Arrival &&
			j.Arrival-s.platformBusyUntil >= s.cfg.PlatformSleepAfter {
			wake = math.Max(wake, s.cfg.PlatformWakeLatency)
		}
		begin = j.Arrival
	} else {
		// Queued: service begins the moment the core frees; no wake.
		begin = c.freeAt
	}
	if begin < s.lastBegin-1e-9 {
		return 0, fmt.Errorf("multicore: internal: busy segment begins out of order (%g after %g)",
			begin, s.lastBegin)
	}
	if begin > s.lastBegin {
		s.lastBegin = begin
	}

	// Bill the core's idle gap, then its wake + service at active power.
	s.coreIdleEnergy(c, c.billed, begin)
	c.energy += (wake + svc) * s.cfg.CPUActivePower
	c.busy += wake + svc
	end := begin + wake + svc
	c.freeAt = end
	c.billed = end

	// Platform horizon: bill any chip-wide idle gap, then extend the busy
	// union. Overlapping segments only extend the horizon.
	if begin > s.platformBusyUntil {
		s.platformIdleEnergy(s.billedP, begin)
		s.billedP = begin
		s.platformBusyUntil = begin
	}
	if end > s.platformBusyUntil {
		seg := end - math.Max(begin, s.billedP)
		if seg > 0 {
			s.platformEnergy += seg * s.cfg.PlatformActivePower
			s.residActive += seg
		}
		s.platformBusyUntil = end
		s.billedP = end
	}

	resp := end - j.Arrival
	s.responses.Add(resp)
	return resp, nil
}

// Finish closes the run at time at (≥ the last departure) and aggregates.
func (s *Simulator) Finish(at float64) (Result, error) {
	for i := range s.cores {
		c := &s.cores[i]
		if at < c.freeAt {
			at = c.freeAt
		}
	}
	for i := range s.cores {
		c := &s.cores[i]
		s.coreIdleEnergy(c, c.billed, at)
		c.billed = at
	}
	if at > s.billedP {
		s.platformIdleEnergy(s.billedP, at)
		s.billedP = at
	}
	res := Result{
		Jobs:              s.responses.Count(),
		MeanResponse:      s.responses.Mean(),
		ResponseP95:       s.responses.Percentile(95),
		Duration:          at - s.started,
		PlatformEnergy:    s.platformEnergy,
		CoreBusy:          make([]float64, len(s.cores)),
		PlatformResidency: map[string]float64{},
	}
	for i := range s.cores {
		res.CPUEnergy += s.cores[i].energy
		res.CoreBusy[i] = s.cores[i].busy
	}
	res.Energy = res.CPUEnergy + res.PlatformEnergy
	if res.Duration > 0 {
		res.AvgPower = res.Energy / res.Duration
	}
	if s.residActive != 0 {
		res.PlatformResidency["active"] = s.residActive
	}
	if s.residIdle != 0 {
		res.PlatformResidency["idle"] = s.residIdle
	}
	if s.residSleep != 0 {
		res.PlatformResidency["sleep"] = s.residSleep
	}
	return res, nil
}

// simPool recycles simulators across Simulate calls: Result carries no
// references into the simulator (CoreBusy and PlatformResidency are fresh),
// so the kernel's buffers can be reused immediately.
var simPool = sync.Pool{New: func() any { return new(Simulator) }}

// Simulate runs a whole sorted job stream from time 0 and finishes at the
// last departure, drawing a reusable simulator from an internal pool.
func Simulate(jobs []queue.Job, cfg Config) (Result, error) {
	sim := simPool.Get().(*Simulator)
	defer simPool.Put(sim)
	if err := sim.Reset(cfg, 0); err != nil {
		return Result{}, err
	}
	for i, j := range jobs {
		if _, err := sim.Process(j); err != nil {
			return Result{}, fmt.Errorf("job %d: %w", i, err)
		}
	}
	last := 0.0
	for i := range sim.cores {
		if t := sim.cores[i].freeAt; t > last {
			last = t
		}
	}
	return sim.Finish(last)
}

// ErlangC returns the M/M/k probability of queueing with offered load
// a = λ/µ on k servers (a < k). It is the textbook validation target for
// the simulator's zero-wake configuration.
func ErlangC(k int, a float64) (float64, error) {
	if k < 1 || a <= 0 || a >= float64(k) {
		return 0, fmt.Errorf("multicore: ErlangC(k=%d, a=%g) out of range", k, a)
	}
	// Compute a^n/n! iteratively to avoid overflow.
	term := 1.0
	sum := term // n = 0
	for n := 1; n < k; n++ {
		term *= a / float64(n)
		sum += term
	}
	top := term * a / float64(k) * float64(k) / (float64(k) - a)
	return top / (sum + top), nil
}

// MMkMeanResponse returns the M/M/k mean response 1/µ + C(k,a)/(kµ−λ).
func MMkMeanResponse(k int, lambda, mu float64) (float64, error) {
	c, err := ErlangC(k, lambda/mu)
	if err != nil {
		return 0, err
	}
	return 1/mu + c/(float64(k)*mu-lambda), nil
}
