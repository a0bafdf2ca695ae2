package core

import (
	"crypto/sha256"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"testing"

	"sleepscale/internal/colstore"
	"sleepscale/internal/policy"
	"sleepscale/internal/power"
	"sleepscale/internal/stream"
)

// TestEpochEnergySumsToReportEnergy pins the per-epoch accounting: epoch
// energy (and busy/wake/idle) deltas sum to the closed-out report's totals,
// for a strategy that switches policies so boundaries land in idle periods
// under changing phase schedules.
func TestEpochEnergySumsToReportEnergy(t *testing.T) {
	plans := []policy.Policy{
		{Frequency: 1, Plan: policy.SingleState(power.OperatingIdle)},
		{Frequency: 0.6, Plan: policy.SingleState(power.DeeperSleep)},
	}
	tr := shortTrace(12, 0.2)
	rep, err := Run(runnerConfig(t, &switchingStrategy{plans: plans}, tr, 3))
	if err != nil {
		t.Fatal(err)
	}
	var energy, busy, wake, idle float64
	var jobs int
	for _, e := range rep.Epochs {
		energy += e.Energy
		busy += e.BusyTime
		wake += e.WakeTime
		idle += e.IdleTime
		jobs += e.Jobs
		if e.Jobs > 0 && e.P95Delay < e.MeanDelay*0.5 {
			t.Fatalf("epoch %d p95 %g implausibly below mean %g", e.Index, e.P95Delay, e.MeanDelay)
		}
	}
	// The final Finish may bill trailing idle past the last epoch boundary
	// only when backlog runs past the trace end; with the boundary at trace
	// end, the sums must match the report exactly up to float summation.
	if math.Abs(energy-rep.Energy) > 1e-6*rep.Energy {
		t.Fatalf("epoch energies sum to %g, report says %g", energy, rep.Energy)
	}
	if jobs != rep.Jobs {
		t.Fatalf("epoch jobs sum to %d, report says %d", jobs, rep.Jobs)
	}
	if busy+wake+idle <= 0 {
		t.Fatal("no time accounted")
	}
}

// TestEpochLogRoundTrip pins WriteEpochLog: records come back through the
// column reader bit-exactly, plan names resolve through the dictionary, and
// a second run appends.
func TestEpochLogRoundTrip(t *testing.T) {
	plans := []policy.Policy{
		{Frequency: 1, Plan: policy.SingleState(power.OperatingIdle)},
		{Frequency: 0.7, Plan: policy.SingleState(power.DeeperSleep)},
	}
	tr := shortTrace(12, 0.3)
	rep, err := Run(runnerConfig(t, &switchingStrategy{plans: plans}, tr, 3))
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "epochs.col")
	if err := WriteEpochLog(path, rep.Epochs); err != nil {
		t.Fatal(err)
	}

	r, err := colstore.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	if r.Rows() != len(rep.Epochs) {
		t.Fatalf("log has %d rows, want %d", r.Rows(), len(rep.Epochs))
	}
	s := r.Schema()
	energyCol := s.ColIndex("energy")
	planCol := s.ColIndex("plan")
	if energyCol < 0 || planCol < 0 {
		t.Fatalf("schema missing columns: %v", s.Cols)
	}
	var energies, planIDs []float64
	for b := 0; b < r.NumBlocks(); b++ {
		ev, err := r.Col(b, energyCol, nil)
		if err != nil {
			t.Fatal(err)
		}
		energies = append(energies, ev...)
		pv, err := r.Col(b, planCol, nil)
		if err != nil {
			t.Fatal(err)
		}
		planIDs = append(planIDs, pv...)
	}
	for i, e := range rep.Epochs {
		if math.Float64bits(energies[i]) != math.Float64bits(e.Energy) {
			t.Fatalf("epoch %d energy %v != %v", i, energies[i], e.Energy)
		}
		if got := s.Dict[int(planIDs[i])]; got != e.Policy.Plan.Name {
			t.Fatalf("epoch %d plan %q != %q", i, got, e.Policy.Plan.Name)
		}
	}

	// Per-epoch mean energy through the query engine — the colq use case.
	res, err := colstore.Query{Col: "energy", Op: colstore.Mean, GroupBy: "epoch"}.Run(r)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Groups) != len(rep.Epochs) {
		t.Fatalf("query found %d epochs, want %d", len(res.Groups), len(rep.Epochs))
	}
	r.Close()

	// Appending a second run grows the same file.
	if err := WriteEpochLog(path, rep.Epochs); err != nil {
		t.Fatal(err)
	}
	r2, err := colstore.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer r2.Close()
	if r2.Rows() != 2*len(rep.Epochs) {
		t.Fatalf("after append: %d rows, want %d", r2.Rows(), 2*len(rep.Epochs))
	}
}

// TestEpochLogFormatPin pins the bytes WriteEpochLog writes for fixed
// records by their SHA-256, so a change to the epoch-log columns, their
// order or the row fill shows here and not only in cmd/colq's output.
func TestEpochLogFormatPin(t *testing.T) {
	plans := []policy.Policy{
		{Frequency: 0.45, Plan: policy.SingleState(power.DeeperSleep)},
		{Frequency: 1, Plan: policy.SingleState(power.OperatingIdle)},
	}
	var recs []EpochRecord
	for i := 0; i < 5; i++ {
		x := float64(i) + 1.0/3
		recs = append(recs, EpochRecord{
			Index: i, Predicted: 0.1 * x, Realized: 0.11 * x, Policy: plans[i%2],
			Jobs: 100 + i, MeanDelay: 0.01 * x, P95Delay: 0.03 * x,
			Energy: 1e4 * x, BusyTime: 20 * x, WakeTime: 0.5 * x, IdleTime: 40 * x,
		})
	}
	path := filepath.Join(t.TempDir(), "epochs.col")
	if err := WriteEpochLog(path, recs); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	const want = "ea3eeac78779a4d9feeb84a708310429cc62b2c31f441278cfa481153087d194"
	if got := fmt.Sprintf("%x", sha256.Sum256(data)); got != want {
		t.Fatalf("epoch log SHA-256 %s, want %s", got, want)
	}
}

// TestRunWithEventTee pins the eventlog tee path end to end: RunSource with
// a teed window is not part of the runner API, so this exercises the
// stream-recording analogue — record the trace-driven stream, replay it
// through the runner, and check both runs agree bit-for-bit.
func TestRunWithRecordedJobsMatchesLive(t *testing.T) {
	pol := policy.Policy{Frequency: 1, Plan: policy.SingleState(power.DeepSleep)}
	tr := shortTrace(12, 0.3)
	cfg := runnerConfig(t, &staticStrategy{pol: pol}, tr, 3)

	live, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}

	src, err := cfg.Stats.NewTraceGen(tr.Utilization, tr.SlotSeconds, cfg.Seed)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "jobs.col")
	w, err := colstore.Create(path, stream.JobsSchema())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := stream.RecordJobs(src, w.Writer); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	r, err := colstore.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	replaySrc, err := stream.NewColJobs(r)
	if err != nil {
		t.Fatal(err)
	}
	// Fresh config: the predictor is stateful and the live run fed it.
	cfg2 := runnerConfig(t, &staticStrategy{pol: pol}, tr, 3)
	replay, err := RunSource(cfg2, replaySrc)
	if err != nil {
		t.Fatal(err)
	}
	requireReportsIdentical(t, replay, live)
}
