package stream

import (
	"math"
	"os"
	"path/filepath"
	"testing"

	"sleepscale/internal/colstore"
	"sleepscale/internal/queue"
	"sleepscale/internal/trace"
	"sleepscale/internal/workload"
)

func dnsStats(t *testing.T) workload.Stats {
	t.Helper()
	st, err := workload.NewIdealizedStats(workload.DNS())
	if err != nil {
		t.Fatal(err)
	}
	return st
}

func jobsEqualBits(t *testing.T, label string, got, want []queue.Job) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d jobs, want %d", label, len(got), len(want))
	}
	for i := range got {
		if math.Float64bits(got[i].Arrival) != math.Float64bits(want[i].Arrival) ||
			math.Float64bits(got[i].Size) != math.Float64bits(want[i].Size) {
			t.Fatalf("%s: job %d = %+v, want %+v", label, i, got[i], want[i])
		}
	}
}

// TestColTraceMatchesCSVAndMaterialized pins the determinism contract: for
// equal seeds, the columnar trace replay is bit-identical to the
// materialized-trace source, across seeds and across Reset.
func TestColTraceMatchesCSVAndMaterialized(t *testing.T) {
	tr := trace.EmailStore(1, 3)
	colPath := filepath.Join(t.TempDir(), "t.col")
	if err := tr.WriteCol(colPath); err != nil {
		t.Fatal(err)
	}
	r, err := colstore.Open(colPath)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	st := dnsStats(t)

	for _, seed := range []int64{1, 7, 42} {
		mat, err := Trace(st, tr, seed)
		if err != nil {
			t.Fatal(err)
		}
		want, err := Collect(mat, 0)
		if err != nil {
			t.Fatal(err)
		}
		if len(want) == 0 {
			t.Fatal("empty reference stream")
		}

		col, err := ColTrace(r, st, seed)
		if err != nil {
			t.Fatal(err)
		}
		gotCol, err := Collect(col, 0)
		if err != nil {
			t.Fatal(err)
		}
		jobsEqualBits(t, "col", gotCol, want)

		// Reset mid-stream and replay: still bit-identical.
		col.Reset(seed)
		var buf [100]queue.Job
		col.Next(buf[:])
		col.Reset(seed)
		again, err := Collect(col, 0)
		if err != nil {
			t.Fatal(err)
		}
		jobsEqualBits(t, "col-reset", again, want)
	}
}

// TestColTraceReaderAtMatchesMapped pins the mmap and ReaderAt open paths to
// the same replayed stream.
func TestColTraceReaderAtMatchesMapped(t *testing.T) {
	tr := trace.FileServer(1, 5)
	colPath := filepath.Join(t.TempDir(), "t.col")
	if err := tr.WriteCol(colPath); err != nil {
		t.Fatal(err)
	}
	st := dnsStats(t)

	mm, err := colstore.Open(colPath)
	if err != nil {
		t.Fatal(err)
	}
	defer mm.Close()
	f, err := os.Open(colPath)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	stt, _ := f.Stat()
	ra, err := colstore.OpenReaderAt(f, stt.Size())
	if err != nil {
		t.Fatal(err)
	}
	defer ra.Close()

	s1, err := ColTrace(mm, st, 9)
	if err != nil {
		t.Fatal(err)
	}
	s2, err := ColTrace(ra, st, 9)
	if err != nil {
		t.Fatal(err)
	}
	j1, err := Collect(s1, 0)
	if err != nil {
		t.Fatal(err)
	}
	j2, err := Collect(s2, 0)
	if err != nil {
		t.Fatal(err)
	}
	jobsEqualBits(t, "readerat", j2, j1)
}

// TestColJobsRecordReplay pins recorded-job replay: RecordJobs then
// NewColJobs returns the exact float64 bits of the original stream, and
// Reset replays from the top.
func TestColJobsRecordReplay(t *testing.T) {
	st := dnsStats(t)
	src, err := NewStationary(st, 5000, 11)
	if err != nil {
		t.Fatal(err)
	}
	want, err := Collect(src, 0)
	if err != nil {
		t.Fatal(err)
	}

	path := filepath.Join(t.TempDir(), "jobs.col")
	w, err := colstore.Create(path, JobsSchema())
	if err != nil {
		t.Fatal(err)
	}
	src.Reset(11)
	n, err := RecordJobs(src, w.Writer)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if n != len(want) {
		t.Fatalf("recorded %d jobs, want %d", n, len(want))
	}

	r, err := colstore.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	replay, err := NewColJobs(r)
	if err != nil {
		t.Fatal(err)
	}
	got, err := Collect(replay, 0)
	if err != nil {
		t.Fatal(err)
	}
	jobsEqualBits(t, "replay", got, want)

	replay.Reset(0)
	again, err := Collect(replay, 17) // odd chunk size crosses block edges
	if err != nil {
		t.Fatal(err)
	}
	jobsEqualBits(t, "replay-reset", again, want)
}

func TestColSourceKindChecks(t *testing.T) {
	st := dnsStats(t)
	tr := trace.FileServer(1, 5)
	colPath := filepath.Join(t.TempDir(), "t.col")
	if err := tr.WriteCol(colPath); err != nil {
		t.Fatal(err)
	}
	r, err := colstore.Open(colPath)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if _, err := NewColJobs(r); err == nil {
		t.Fatal("NewColJobs accepted a trace file")
	}
	jobsPath := filepath.Join(t.TempDir(), "j.col")
	w, err := colstore.Create(jobsPath, JobsSchema())
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Append([]float64{1, 2}); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	jr, err := colstore.Open(jobsPath)
	if err != nil {
		t.Fatal(err)
	}
	defer jr.Close()
	if _, err := ColTrace(jr, st, 1); err == nil {
		t.Fatal("ColTrace accepted a jobs file")
	}
}

// TestColTraceRejectsBadUtilization pins the replay-side validation: a slot
// outside [0,1) errors exactly as the CSV row parser would.
func TestColTraceRejectsBadUtilization(t *testing.T) {
	path := filepath.Join(t.TempDir(), "bad.col")
	w, err := colstore.Create(path, trace.ColSchema(60))
	if err != nil {
		t.Fatal(err)
	}
	for i, u := range []float64{0.5, 1.5, 0.2} {
		if err := w.Append([]float64{float64(i), u}); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	r, err := colstore.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	src, err := ColTrace(r, dnsStats(t), 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Collect(src, 0); err == nil {
		t.Fatal("out-of-range utilization replayed without error")
	}
}
