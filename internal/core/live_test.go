package core

import (
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"sleepscale/internal/policy"
	"sleepscale/internal/power"
	"sleepscale/internal/predict"
	"sleepscale/internal/queue"
	"sleepscale/internal/trace"
	"sleepscale/internal/workload"
)

// liveFixture materializes the golden trace's job stream once so live tests
// can slice it at arbitrary slot boundaries.
func liveFixture(t *testing.T) (*trace.Trace, []queue.Job) {
	t.Helper()
	tr := goldenTrace(t)
	cfg := runnerConfig(t, &staticStrategy{}, tr, 5)
	jobs := cfg.Stats.TraceJobs(tr.Utilization, tr.SlotSeconds,
		rand.New(rand.NewSource(cfg.Seed)))
	if len(jobs) == 0 {
		t.Fatal("no jobs in fixture stream")
	}
	return tr, jobs
}

func liveConfig(t *testing.T, strat Strategy, pred predict.Predictor, seed int64, epochSlots int) LiveConfig {
	t.Helper()
	return LiveConfig{
		SlotSeconds:     60,
		EpochSlots:      epochSlots,
		FreqExponent:    1,
		Profile:         power.Xeon(),
		Predictor:       pred,
		Strategy:        strat,
		Seed:            seed,
		retainResponses: true,
	}
}

// driveLive feeds jobs and slots [fromSlot, len(util)) into r in arrival
// order — the same interleaving the batch cursor produces — and returns the
// epoch records emitted. jobIdx tracks how many jobs have been offered so a
// restored runner resumes at the right position.
func driveLive(t *testing.T, r *LiveRunner, util []float64, jobs []queue.Job, fromSlot int, jobIdx int, stopSlot int) (recs []EpochRecord, nextJob int) {
	t.Helper()
	for s := fromSlot; s < stopSlot; s++ {
		slotEnd := float64(s+1) * 60
		for jobIdx < len(jobs) && jobs[jobIdx].Arrival < slotEnd {
			if err := r.OfferJob(jobs[jobIdx]); err != nil {
				t.Fatal(err)
			}
			jobIdx++
		}
		rec, closed, err := r.OfferSlot(util[s])
		if err != nil {
			t.Fatal(err)
		}
		if closed {
			recs = append(recs, rec)
		}
	}
	return recs, jobIdx
}

// TestLiveMatchesBatch is the tentpole's first contract: a LiveRunner fed a
// batch run's jobs and slots incrementally produces bit-identical epoch
// records and aggregates — batch and live share one epoch machine.
func TestLiveMatchesBatch(t *testing.T) {
	tr, jobs := liveFixture(t)
	mu := workload.DNS().MaxServiceRate()
	qos, err := policy.NewMeanResponseQoS(0.8, mu)
	if err != nil {
		t.Fatal(err)
	}
	strategies := map[string]func() Strategy{
		"static": func() Strategy {
			return &staticStrategy{pol: policy.Policy{
				Frequency: 0.7, Plan: policy.SingleState(power.DeepSleep)}}
		},
		"switching": func() Strategy {
			return &switchingStrategy{plans: []policy.Policy{
				{Frequency: 1, Plan: policy.SingleState(power.OperatingIdle)},
				{Frequency: 0.6, Plan: policy.SingleState(power.DeeperSleep)},
			}}
		},
		// The manager-backed strategy consults the window and draws from the
		// decision RNG, so this case pins the full decision-state plumbing.
		"manager": func() Strategy {
			return &managerStrategyForTest{m: &Manager{
				Profile:      power.Xeon(),
				FreqExponent: 1,
				Space:        policy.Space{Plans: policy.DefaultPlans(), FreqStep: 0.05, MinFreq: 0.05},
				QoS:          qos,
			}, evalJobs: 200}
		},
	}
	for name, mk := range strategies {
		t.Run(name, func(t *testing.T) {
			cfg := runnerConfig(t, mk(), tr, 5)
			want, err := RunSource(cfg, sliceSource(jobs))
			if err != nil {
				t.Fatal(err)
			}

			live, err := NewLiveRunner(liveConfig(t, mk(), predict.NewNaivePrevious(), cfg.Seed, 5))
			if err != nil {
				t.Fatal(err)
			}
			recs, _ := driveLive(t, live, tr.Utilization, jobs, 0, 0, tr.Len())
			rec, closed, got, err := live.Finish()
			if err != nil {
				t.Fatal(err)
			}
			if closed {
				recs = append(recs, rec)
			}
			got.Epochs = recs
			requireReportsIdentical(t, got, want)
		})
	}
}

// sliceSource adapts a job slice for RunSource without importing stream in
// this file (stream.Slice exists; re-wrapping keeps the fixture local).
type sliceJobs struct {
	jobs []queue.Job
	pos  int
}

func sliceSource(jobs []queue.Job) *sliceJobs { return &sliceJobs{jobs: jobs} }

func (s *sliceJobs) Next(buf []queue.Job) (int, bool) {
	n := copy(buf, s.jobs[s.pos:])
	s.pos += n
	return n, s.pos < len(s.jobs)
}
func (s *sliceJobs) Reset(int64) { s.pos = 0 }

// TestLiveFinishWithPartialEpoch pins the short-final-epoch semantics: a
// live feed ending mid-epoch closes the epoch over its completed slots,
// exactly as a batch run over the same shortened trace would.
func TestLiveFinishWithPartialEpoch(t *testing.T) {
	tr, jobs := liveFixture(t)
	nSlots := tr.Len() - 2 // not a multiple of 5: final epoch holds 3 slots
	short := &trace.Trace{Name: "short", SlotSeconds: 60, Utilization: tr.Utilization[:nSlots]}
	pol := policy.Policy{Frequency: 0.7, Plan: policy.SingleState(power.DeepSleep)}

	cfg := runnerConfig(t, &staticStrategy{pol: pol}, short, 5)
	want, err := RunSource(cfg, sliceSource(jobs))
	if err != nil {
		t.Fatal(err)
	}

	live, err := NewLiveRunner(liveConfig(t, &staticStrategy{pol: pol}, predict.NewNaivePrevious(), cfg.Seed, 5))
	if err != nil {
		t.Fatal(err)
	}
	recs, _ := driveLive(t, live, short.Utilization, jobs, 0, 0, nSlots)
	rec, closed, got, err := live.Finish()
	if err != nil {
		t.Fatal(err)
	}
	if !closed {
		t.Fatal("partial final epoch not closed")
	}
	recs = append(recs, rec)
	got.Epochs = recs
	requireReportsIdentical(t, got, want)
}

// TestLiveRestoreEquivalence is the tentpole's durability contract: capture
// State at an epoch boundary, abandon the runner mid-epoch ("kill"), restore
// into a fresh runner and continue — the stitched record sequence and final
// aggregates must be bit-identical to an uninterrupted run, across seeds and
// checkpoint intervals.
func TestLiveRestoreEquivalence(t *testing.T) {
	tr, _ := liveFixture(t)
	mu := workload.DNS().MaxServiceRate()
	qos, err := policy.NewMeanResponseQoS(0.8, mu)
	if err != nil {
		t.Fatal(err)
	}
	mkStrategy := func() Strategy {
		return &managerStrategyForTest{m: &Manager{
			Profile:      power.Xeon(),
			FreqExponent: 1,
			Space:        policy.Space{Plans: policy.DefaultPlans(), FreqStep: 0.05, MinFreq: 0.05},
			QoS:          qos,
		}, evalJobs: 200}
	}
	mkPredictor := func() predict.Predictor {
		lms, err := predict.NewLMS(4, 0.4)
		if err != nil {
			t.Fatal(err)
		}
		return lms
	}
	// Restore runs in the serve daemon's discard-responses mode: EngineState
	// carries responses as streaming moments only, so whole-run percentiles
	// are excluded from the restore contract (per-epoch P95s are exact).
	mkConfig := func(seed int64) LiveConfig {
		cfg := liveConfig(t, mkStrategy(), mkPredictor(), seed, 5)
		cfg.retainResponses = false
		return cfg
	}

	for _, seed := range []int64{1, 42} {
		for _, everyEpochs := range []int{2, 5} {
			t.Run("", func(t *testing.T) {
				st := runnerConfig(t, &staticStrategy{}, tr, 5).Stats
				jobs := st.TraceJobs(tr.Utilization, tr.SlotSeconds,
					rand.New(rand.NewSource(seed)))

				// Uninterrupted reference.
				ref, err := NewLiveRunner(mkConfig(seed))
				if err != nil {
					t.Fatal(err)
				}
				wantRecs, _ := driveLive(t, ref, tr.Utilization, jobs, 0, 0, tr.Len())
				_, _, wantRep, err := ref.Finish()
				if err != nil {
					t.Fatal(err)
				}

				// Interrupted run: checkpoint at every everyEpochs-th
				// boundary, kill mid-epoch past the second checkpoint.
				victim, err := NewLiveRunner(mkConfig(seed))
				if err != nil {
					t.Fatal(err)
				}
				var snap *LiveState
				var snapJobIdx int
				var kept []EpochRecord
				jobIdx := 0
				killSlot := everyEpochs*2*5 + 3 // mid-epoch, past two checkpoints
				for s := 0; s < killSlot; s++ {
					slotEnd := float64(s+1) * 60
					for jobIdx < len(jobs) && jobs[jobIdx].Arrival < slotEnd {
						if err := victim.OfferJob(jobs[jobIdx]); err != nil {
							t.Fatal(err)
						}
						jobIdx++
					}
					rec, closed, err := victim.OfferSlot(tr.Utilization[s])
					if err != nil {
						t.Fatal(err)
					}
					if closed {
						kept = append(kept, rec)
						if victim.Epoch()%everyEpochs == 0 {
							snap, err = victim.State()
							if err != nil {
								t.Fatal(err)
							}
							snapJobIdx = jobIdx
						}
					}
				}
				if snap == nil {
					t.Fatal("no checkpoint captured before kill")
				}
				// The kill discards everything after the last checkpoint.
				kept = kept[:snap.Epoch]

				restored, err := RestoreLiveRunner(mkConfig(seed), snap)
				if err != nil {
					t.Fatal(err)
				}
				tail, _ := driveLive(t, restored, tr.Utilization, jobs, snap.Slot, snapJobIdx, tr.Len())
				_, _, gotRep, err := restored.Finish()
				if err != nil {
					t.Fatal(err)
				}
				gotRecs := append(kept, tail...)

				if len(gotRecs) != len(wantRecs) {
					t.Fatalf("stitched epochs %d, want %d", len(gotRecs), len(wantRecs))
				}
				for i := range gotRecs {
					if !reflect.DeepEqual(gotRecs[i], wantRecs[i]) {
						t.Fatalf("epoch %d diverges after restore:\n got %+v\nwant %+v",
							i, gotRecs[i], wantRecs[i])
					}
				}
				gotRep.Epochs, wantRep.Epochs = gotRecs, wantRecs
				requireReportsIdentical(t, gotRep, wantRep)
			})
		}
	}
}

// TestLiveRestorePendingJobs pins that jobs offered past the last completed
// slot survive a checkpoint: the restored runner serves them, bit-identical.
func TestLiveRestorePendingJobs(t *testing.T) {
	pol := policy.Policy{Frequency: 0.8, Plan: policy.SingleState(power.DeepSleep)}
	mk := func() (*LiveRunner, error) {
		cfg := liveConfig(t, &staticStrategy{pol: pol}, predict.NewNaivePrevious(), 7, 2)
		cfg.retainResponses = false
		return NewLiveRunner(cfg)
	}
	jobs := []queue.Job{
		{Arrival: 10, Size: 0.5}, {Arrival: 70, Size: 0.5},
		{Arrival: 130, Size: 0.5}, {Arrival: 150, Size: 0.5}, {Arrival: 200, Size: 0.5},
	}
	util := []float64{0.3, 0.3, 0.3, 0.3}

	ref, err := mk()
	if err != nil {
		t.Fatal(err)
	}
	var wantRecs []EpochRecord
	for _, j := range jobs { // offer everything up front: all beyond slot 0
		if err := ref.OfferJob(j); err != nil {
			t.Fatal(err)
		}
	}
	for _, rho := range util {
		rec, closed, err := ref.OfferSlot(rho)
		if err != nil {
			t.Fatal(err)
		}
		if closed {
			wantRecs = append(wantRecs, rec)
		}
	}
	_, _, wantRep, err := ref.Finish()
	if err != nil {
		t.Fatal(err)
	}

	victim, err := mk()
	if err != nil {
		t.Fatal(err)
	}
	for _, j := range jobs {
		if err := victim.OfferJob(j); err != nil {
			t.Fatal(err)
		}
	}
	var gotRecs []EpochRecord
	for _, rho := range util[:2] {
		rec, closed, err := victim.OfferSlot(rho)
		if err != nil {
			t.Fatal(err)
		}
		if closed {
			gotRecs = append(gotRecs, rec)
		}
	}
	snap, err := victim.State()
	if err != nil {
		t.Fatal(err)
	}
	if len(snap.Pending) != 3 {
		t.Fatalf("pending jobs in state = %d, want 3", len(snap.Pending))
	}
	restoreCfg := liveConfig(t, &staticStrategy{pol: pol}, predict.NewNaivePrevious(), 7, 2)
	restoreCfg.retainResponses = false
	restored, err := RestoreLiveRunner(restoreCfg, snap)
	if err != nil {
		t.Fatal(err)
	}
	for _, rho := range util[2:] {
		rec, closed, err := restored.OfferSlot(rho)
		if err != nil {
			t.Fatal(err)
		}
		if closed {
			gotRecs = append(gotRecs, rec)
		}
	}
	_, _, gotRep, err := restored.Finish()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(gotRecs, wantRecs) {
		t.Fatalf("records diverge:\n got %+v\nwant %+v", gotRecs, wantRecs)
	}
	gotRep.Epochs, wantRep.Epochs = gotRecs, wantRecs
	requireReportsIdentical(t, gotRep, wantRep)
}

// TestLiveStateValidation covers the error paths: mid-epoch capture, stale
// geometry, malformed counts — errors, never panics.
func TestLiveStateValidation(t *testing.T) {
	pol := policy.Policy{Frequency: 1, Plan: policy.SingleState(power.DeepSleep)}
	cfg := liveConfig(t, &staticStrategy{pol: pol}, predict.NewNaivePrevious(), 1, 3)
	r, err := NewLiveRunner(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := r.OfferSlot(0.3); err != nil {
		t.Fatal(err)
	}
	if r.AtBoundary() {
		t.Fatal("mid-epoch runner claims boundary")
	}
	if _, err := r.State(); err == nil {
		t.Error("mid-epoch State accepted")
	}
	if err := r.OfferJob(queue.Job{Arrival: 100}); err != nil {
		t.Fatal(err)
	}
	if err := r.OfferJob(queue.Job{Arrival: 10}); err == nil {
		t.Error("out-of-order arrival accepted")
	}

	// Fresh boundary state to corrupt.
	r2, err := NewLiveRunner(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if _, _, err := r2.OfferSlot(0.3); err != nil {
			t.Fatal(err)
		}
	}
	good, err := r2.State()
	if err != nil {
		t.Fatal(err)
	}

	bad := *good
	bad.Slot = good.Slot + 1
	if _, err := RestoreLiveRunner(cfg, &bad); err == nil {
		t.Error("off-boundary slot accepted")
	}
	bad = *good
	bad.PlanCounts = bad.PlanCounts[:0]
	if len(bad.PlanNames) > 0 {
		if _, err := RestoreLiveRunner(cfg, &bad); err == nil {
			t.Error("mismatched plan counts accepted")
		}
	}
	bad = *good
	bad.Window.Capacity = 99
	if _, err := RestoreLiveRunner(cfg, &bad); err == nil {
		t.Error("wrong window capacity accepted")
	}
	bad = *good
	bad.Window.Epochs = append(bad.Window.Epochs[:len(bad.Window.Epochs):len(bad.Window.Epochs)], bad.Window.Epochs...)
	if _, err := RestoreLiveRunner(cfg, &bad); err == nil {
		t.Errorf("window of %d epochs accepted after %d closed", len(bad.Window.Epochs), bad.Epoch)
	}
	bad = *good
	bad.Predictor = []byte{1, 2, 3}
	if _, err := RestoreLiveRunner(cfg, &bad); err == nil {
		t.Error("corrupt predictor blob accepted")
	}
	if _, err := RestoreLiveRunner(cfg, nil); err == nil {
		t.Error("nil state accepted")
	}
}

// TestLiveRejectsJobInCompletedSlot pins OfferJob's slot check. After a job
// at 5 s and seven 60 s slots (T = 5, so epoch 1 is open at slot 7), a job
// whose slot has already completed is refused with an error naming its
// arrival and the open slot's start, and the runner goes on exactly as if it
// had never been offered; a job exactly at the open slot's start is
// accepted and served.
func TestLiveRejectsJobInCompletedSlot(t *testing.T) {
	pol := policy.Policy{Frequency: 0.8, Plan: policy.SingleState(power.DeepSleep)}
	run := func(t *testing.T, late *queue.Job) (RunReport, error) {
		t.Helper()
		r, err := NewLiveRunner(liveConfig(t, &staticStrategy{pol: pol}, predict.NewNaivePrevious(), 1, 5))
		if err != nil {
			t.Fatal(err)
		}
		if err := r.OfferJob(queue.Job{Arrival: 5, Size: 0.5}); err != nil {
			t.Fatal(err)
		}
		var recs []EpochRecord
		slots := func(n int) {
			for i := 0; i < n; i++ {
				rec, closed, err := r.OfferSlot(0.3)
				if err != nil {
					t.Fatal(err)
				}
				if closed {
					recs = append(recs, rec)
				}
			}
		}
		slots(7)
		var offerErr error
		if late != nil {
			offerErr = r.OfferJob(*late)
		}
		slots(5)
		rec, closed, rep, err := r.Finish()
		if err != nil {
			t.Fatal(err)
		}
		if closed {
			recs = append(recs, rec)
		}
		rep.Epochs = recs
		return rep, offerErr
	}
	ref, _ := run(t, nil)
	for _, c := range []struct {
		name    string
		arrival float64
		accept  bool
	}{
		{"before the open epoch", 100, false},
		{"in a completed slot of the open epoch", 310, false},
		{"at the open slot's start", 420, true},
	} {
		t.Run(c.name, func(t *testing.T) {
			rep, err := run(t, &queue.Job{Arrival: c.arrival, Size: 0.5})
			if c.accept {
				if err != nil {
					t.Fatalf("job at %g refused: %v", c.arrival, err)
				}
				if rep.Jobs != ref.Jobs+1 {
					t.Fatalf("served %d jobs, want %d", rep.Jobs, ref.Jobs+1)
				}
				return
			}
			if err == nil {
				t.Fatalf("job at %g in a completed slot accepted", c.arrival)
			}
			for _, want := range []string{fmt.Sprint(c.arrival), "420"} {
				if !strings.Contains(err.Error(), want) {
					t.Errorf("error %q does not name %s", err, want)
				}
			}
			requireReportsIdentical(t, rep, ref)
		})
	}
}

// TestFeedPredictorSharedPath is the satellite-f equivalence check: the
// extracted FeedPredictor observes exactly what a hand-rolled loop would, so
// batch and live predictor feeds cannot drift.
func TestFeedPredictorSharedPath(t *testing.T) {
	rhos := []float64{0.1, 0.4, 0.9, 0.2, 0.55}
	a, err := predict.NewLMS(3, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	b, err := predict.NewLMS(3, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	realized := FeedPredictor(a, rhos)
	var manual float64
	for _, r := range rhos {
		b.Observe(r)
		manual += r
	}
	manual /= float64(len(rhos))
	if realized != manual {
		t.Fatalf("realized %v, manual %v", realized, manual)
	}
	if a.Predict() != b.Predict() {
		t.Fatalf("predictions diverge: %v vs %v", a.Predict(), b.Predict())
	}
	if got := FeedPredictor(predict.NewNaivePrevious(), nil); got != 0 {
		t.Fatalf("empty feed realized %v, want 0", got)
	}
}

// TestCountingSourceBitIdentical pins the RNG-cursor trick: a Rand over a
// countingSource draws the same stream as one over the bare source, and
// skipTo fast-forwards to the identical position.
func TestCountingSourceBitIdentical(t *testing.T) {
	plain := rand.New(rand.NewSource(99))
	cs := newCountingSource(99)
	counted := rand.New(cs)
	for i := 0; i < 1000; i++ {
		// Mix the call types the strategies use.
		if plain.Float64() != counted.Float64() {
			t.Fatalf("Float64 diverges at %d", i)
		}
		if plain.Intn(1000) != counted.Intn(1000) {
			t.Fatalf("Intn diverges at %d", i)
		}
	}
	draws := cs.draws

	cs2 := newCountingSource(99)
	cs2.skipTo(draws)
	resumed := rand.New(cs2)
	for i := 0; i < 100; i++ {
		if plain.Float64() != resumed.Float64() {
			t.Fatalf("resumed Float64 diverges at %d", i)
		}
	}
}
