package core

import (
	"encoding"
	"fmt"
	"sort"

	"sleepscale/internal/eventlog"
	"sleepscale/internal/policy"
	"sleepscale/internal/power"
	"sleepscale/internal/queue"
)

// LivePhase is one serialized sleep-plan phase of the policy in force.
type LivePhase struct {
	// CPU and Platform are the power.CPUState/PlatformState enum values.
	CPU, Platform int
	// Enter is τ in seconds.
	Enter float64
}

// LiveState is the complete resumable state of a LiveRunner, captured at an
// epoch boundary. All fields are plain exported values (the predictor is a
// self-describing binary blob), so any codec can persist it; RestoreLiveRunner
// rebuilds a runner that continues bit-identically — same decisions, same
// engine billing, same epoch records — under the same LiveConfig. Runner
// configuration is deliberately not part of the state: a checkpoint is
// restored into a runner built from the same config that produced it.
type LiveState struct {
	// Epoch and Slot position the run; Slot is always Epoch*EpochSlots at a
	// boundary.
	Epoch, Slot int
	// LastArrival is the latest offered arrival, for order validation.
	LastArrival float64
	// JobsOffered and JobsServed are the lifetime job counts.
	JobsOffered, JobsServed int64
	// Pending holds offered jobs not yet covered by a completed slot.
	Pending []queue.Job
	// LastMean, LastP95 and LastJobs summarize the epoch just closed.
	LastMean, LastP95 float64
	LastJobs          int
	// FreqSum accumulates selected frequencies for MeanFrequency.
	FreqSum float64
	// PlanNames/PlanCounts are the per-plan epoch counts, name-sorted.
	PlanNames  []string
	PlanCounts []int64
	// RngDraws is the decision RNG's cursor: the number of draws consumed.
	RngDraws uint64
	// Predictor is the predictor's MarshalBinary blob.
	Predictor []byte
	// Window is the job-log window contents.
	Window eventlog.WindowState
	// HasEngine is false only before the first epoch ever opened.
	HasEngine bool
	// CurFrequency and CurPlanName/CurPhases serialize the policy in force,
	// from which the engine's configuration is re-derived on restore.
	CurFrequency float64
	CurPlanName  string
	CurPhases    []LivePhase
	// Engine is the queue engine's resumable state.
	Engine queue.EngineState
	// PrevTotals is the running-total baseline for epoch deltas.
	PrevTotals queue.Snapshot
}

// State captures the runner's resumable state. It fails unless the runner
// sits on an epoch boundary (no epoch open) and the predictor implements
// encoding.BinaryMarshaler. The runner is not mutated; the returned state
// shares no memory with it.
func (r *LiveRunner) State() (*LiveState, error) {
	st := &LiveState{}
	if err := r.Capture(st); err != nil {
		return nil, err
	}
	st.Window = r.window.State()
	return st, nil
}

// Capture is State into dst without the window copy: dst's slices are
// reused, and dst.Window aliases the runner's job-log ring instead of
// copying it. The alias is valid only until the next epoch closes (an
// OfferSlot that reports closed, or Finish); until then dst encodes exactly
// as State would. A boundary capture therefore costs the counters, pending
// jobs, predictor blob, RNG cursor, policy in force and engine state — what
// an open epoch changes — and never the window, which only a close changes.
func (r *LiveRunner) Capture(dst *LiveState) error {
	if !r.AtBoundary() {
		return fmt.Errorf("core: live state: epoch %d open (%d/%d slots); state is only capturable at epoch boundaries",
			r.epoch, len(r.rhos), r.cfg.EpochSlots)
	}
	bm, ok := r.cfg.Predictor.(encoding.BinaryMarshaler)
	if !ok {
		return fmt.Errorf("core: predictor %s is not checkpointable", r.cfg.Predictor.Name())
	}
	blob, err := bm.MarshalBinary()
	if err != nil {
		return err
	}
	*dst = LiveState{
		Epoch:       r.epoch,
		Slot:        r.slot,
		LastArrival: r.lastArrival,
		JobsOffered: r.jobsOffered,
		JobsServed:  r.jobsServed,
		Pending:     append(dst.Pending[:0], r.pending[r.pendHead:]...),
		LastMean:    r.lastMean,
		LastP95:     r.lastP95,
		LastJobs:    r.lastJobs,
		FreqSum:     r.freqSum,
		PlanNames:   dst.PlanNames[:0],
		PlanCounts:  dst.PlanCounts[:0],
		RngDraws:    r.decideSrc.draws,
		Predictor:   blob,
		Window:      r.window.View(dst.Window.Epochs),
		CurPhases:   dst.CurPhases[:0],
		PrevTotals:  r.prevTotals,
	}
	for name := range r.planEpochs {
		dst.PlanNames = append(dst.PlanNames, name)
	}
	sort.Strings(dst.PlanNames)
	for _, name := range dst.PlanNames {
		dst.PlanCounts = append(dst.PlanCounts, int64(r.planEpochs[name]))
	}
	if r.eng != nil {
		dst.HasEngine = true
		dst.CurFrequency = r.curPol.Frequency
		dst.CurPlanName = r.curPol.Plan.Name
		for _, ph := range r.curPol.Plan.Phases {
			dst.CurPhases = append(dst.CurPhases, LivePhase{
				CPU: int(ph.State.CPU), Platform: int(ph.State.Platform), Enter: ph.Enter,
			})
		}
		dst.Engine = r.eng.State()
	}
	return nil
}

// RestoreLiveRunner rebuilds a runner from a captured state under cfg, which
// must be the configuration that produced the state (same predictor and
// strategy construction, same seed, same slot geometry). The restored runner
// continues bit-identically to the original: every subsequent OfferJob,
// OfferSlot, State and Finish behaves exactly as the uninterrupted runner's
// would. Malformed state returns an error, never panics.
func RestoreLiveRunner(cfg LiveConfig, st *LiveState) (*LiveRunner, error) {
	r, err := NewLiveRunner(cfg)
	if err != nil {
		return nil, err
	}
	if st == nil {
		return nil, fmt.Errorf("core: restore: nil state")
	}
	if st.Epoch < 0 || st.Slot != st.Epoch*cfg.EpochSlots {
		return nil, fmt.Errorf("core: restore: slot %d not the boundary of epoch %d (T=%d)",
			st.Slot, st.Epoch, cfg.EpochSlots)
	}
	if len(st.PlanNames) != len(st.PlanCounts) {
		return nil, fmt.Errorf("core: restore: %d plan names, %d counts", len(st.PlanNames), len(st.PlanCounts))
	}
	if st.Window.Capacity != WindowEpochs {
		return nil, fmt.Errorf("core: restore: window capacity %d, want %d",
			st.Window.Capacity, WindowEpochs)
	}
	// Every closed epoch pushes one window entry, so the window cannot hold
	// more than Epoch of them.
	if len(st.Window.Epochs) > st.Epoch {
		return nil, fmt.Errorf("core: restore: window holds %d epochs, only %d closed",
			len(st.Window.Epochs), st.Epoch)
	}
	bu, ok := cfg.Predictor.(encoding.BinaryUnmarshaler)
	if !ok {
		return nil, fmt.Errorf("core: predictor %s is not checkpointable", cfg.Predictor.Name())
	}
	if err := bu.UnmarshalBinary(st.Predictor); err != nil {
		return nil, err
	}
	window, err := eventlog.RestoreWindow(st.Window)
	if err != nil {
		return nil, err
	}
	r.window = window
	r.decideSrc.skipTo(st.RngDraws)
	r.epoch, r.slot = st.Epoch, st.Slot
	r.lastArrival = st.LastArrival
	r.jobsOffered, r.jobsServed = st.JobsOffered, st.JobsServed
	r.pending = append(r.pending[:0], st.Pending...)
	r.lastMean, r.lastP95, r.lastJobs = st.LastMean, st.LastP95, st.LastJobs
	r.freqSum = st.FreqSum
	for i, name := range st.PlanNames {
		r.planEpochs[name] = int(st.PlanCounts[i])
	}
	r.prevTotals = st.PrevTotals
	if st.HasEngine {
		pol := policy.Policy{
			Frequency: st.CurFrequency,
			Plan:      policy.SleepPlan{Name: st.CurPlanName},
		}
		for _, ph := range st.CurPhases {
			pol.Plan.Phases = append(pol.Plan.Phases, policy.PlanPhase{
				State: power.State{CPU: power.CPUState(ph.CPU), Platform: power.PlatformState(ph.Platform)},
				Enter: ph.Enter,
			})
		}
		// AppendConfig re-derives the engine configuration in force;
		// RestoreEngine deep-copies its phases, so no scratch aliasing.
		qcfg, err := pol.AppendConfig(cfg.Profile, cfg.FreqExponent, nil)
		if err != nil {
			return nil, fmt.Errorf("core: restore: policy in force: %w", err)
		}
		eng, err := queue.RestoreEngine(qcfg, st.Engine)
		if err != nil {
			return nil, err
		}
		r.eng = eng
		r.curPol = pol
	}
	return r, nil
}
