package serve

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"testing"

	"sleepscale/internal/colstore"
	"sleepscale/internal/core"
	"sleepscale/internal/policy"
	"sleepscale/internal/power"
	"sleepscale/internal/predict"
	"sleepscale/internal/queue"
	"sleepscale/internal/strategy"
	"sleepscale/internal/stream"
	"sleepscale/internal/trace"
	"sleepscale/internal/workload"
)

// fixture builds the serve tests' scenario: the golden daily-window trace
// and its generated job stream under the given seed.
func fixture(t *testing.T, seed int64) (util []float64, jobs []queue.Job) {
	t.Helper()
	tr, err := trace.EmailStore(1, 3).DailyWindow(120, 300)
	if err != nil {
		t.Fatal(err)
	}
	stats, err := workload.NewIdealizedStats(workload.DNS())
	if err != nil {
		t.Fatal(err)
	}
	jobs = stats.TraceJobs(tr.Utilization, tr.SlotSeconds, rand.New(rand.NewSource(seed)))
	if len(jobs) == 0 {
		t.Fatal("no jobs in fixture stream")
	}
	return tr.Utilization, jobs
}

// liveCfg is the daemon-mode runner configuration the tests share.
func liveCfg(t *testing.T, strat core.Strategy, pred predict.Predictor, seed int64) core.LiveConfig {
	t.Helper()
	return core.LiveConfig{
		SlotSeconds:  60,
		EpochSlots:   5,
		FreqExponent: 1,
		Profile:      power.Xeon(),
		Predictor:    pred,
		Strategy:     strat,
		Seed:         seed,
	}
}

func mkSleepScale(t *testing.T, seed int64) core.LiveConfig {
	t.Helper()
	mu := workload.DNS().MaxServiceRate()
	qos, err := policy.NewMeanResponseQoS(0.8, mu)
	if err != nil {
		t.Fatal(err)
	}
	m := &core.Manager{
		Profile:      power.Xeon(),
		FreqExponent: 1,
		Space:        policy.Space{Plans: policy.DefaultPlans(), FreqStep: 0.05, MinFreq: 0.05},
		QoS:          qos,
	}
	ss, err := strategy.NewSleepScale(m, 200, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	lms, err := predict.NewLMS(4, 0.4)
	if err != nil {
		t.Fatal(err)
	}
	return liveCfg(t, ss, lms, seed)
}

// encodeStream materializes the full wire stream for a fixture — the bytes
// a load generator would send.
func encodeStream(t *testing.T, util []float64, jobs []queue.Job) []byte {
	t.Helper()
	var buf bytes.Buffer
	w := NewWireWriter(&buf)
	if err := Feed(w, stream.Slice(jobs), workload.SliceSlots(util), 60); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// logRows reads every row of a colstore epoch log, plus the plan dictionary.
func logRows(t *testing.T, path string) (rows [][]float64, dict []string) {
	t.Helper()
	r, err := colstore.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	ncols := len(r.Schema().Cols)
	cols := make([][]float64, ncols)
	for b := 0; b < r.NumBlocks(); b++ {
		for c := 0; c < ncols; c++ {
			v, err := r.Col(b, c, nil)
			if err != nil {
				t.Fatal(err)
			}
			cols[c] = append(cols[c], v...)
		}
	}
	for i := 0; i < r.Rows(); i++ {
		row := make([]float64, ncols)
		for c := range cols {
			row[c] = cols[c][i]
		}
		rows = append(rows, row)
	}
	return rows, append([]string(nil), r.Schema().Dict...)
}

func requireSameLog(t *testing.T, gotPath, wantPath string) {
	t.Helper()
	got, gotDict := logRows(t, gotPath)
	want, wantDict := logRows(t, wantPath)
	if !reflect.DeepEqual(gotDict, wantDict) {
		t.Fatalf("plan dictionaries diverge: %v vs %v", gotDict, wantDict)
	}
	if len(got) != len(want) {
		t.Fatalf("log rows: %d vs %d", len(got), len(want))
	}
	for i := range got {
		if !reflect.DeepEqual(got[i], want[i]) {
			t.Fatalf("log row %d diverges:\n got %v\nwant %v", i, got[i], want[i])
		}
	}
}

// TestWireRoundTrip pins the wire format: events decode to exactly what was
// encoded, bit for bit.
func TestWireRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	w := NewWireWriter(&buf)
	events := []Event{
		{Kind: EventJob, Job: queue.Job{Arrival: 0.1234567890123456789, Size: 3e-17}},
		{Kind: EventSlot, Rho: 0.7},
		{Kind: EventJob, Job: queue.Job{Arrival: 61, Size: 0.001}},
		{Kind: EventSlot, Rho: 0.2},
	}
	for _, ev := range events {
		var err error
		if ev.Kind == EventJob {
			err = w.Job(ev.Job)
		} else {
			err = w.Slot(ev.Rho)
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	if err := w.End(); err != nil {
		t.Fatal(err)
	}

	r := NewWireReader(bytes.NewReader(buf.Bytes()))
	for i, want := range events {
		got, err := r.Next()
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Fatalf("event %d: %+v, want %+v", i, got, want)
		}
	}
	if got, err := r.Next(); err != nil || got.Kind != EventEnd {
		t.Fatalf("end event: %+v, %v", got, err)
	}
}

// TestWireRejectsDamage pins the failure modes: truncation mid-event and
// mid-magic, a bad magic, an unknown kind — errors, never hangs or panics.
func TestWireRejectsDamage(t *testing.T) {
	var buf bytes.Buffer
	w := NewWireWriter(&buf)
	if err := w.Job(queue.Job{Arrival: 1, Size: 2}); err != nil {
		t.Fatal(err)
	}
	if err := w.End(); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()

	for _, cut := range []int{0, 2, 4, 5, 12, len(full) - 1} {
		r := NewWireReader(bytes.NewReader(full[:cut]))
		var err error
		for err == nil {
			var ev Event
			ev, err = r.Next()
			if err == nil && ev.Kind == EventEnd {
				t.Fatalf("cut %d: clean end from truncated stream", cut)
			}
		}
		if !errors.Is(err, io.ErrUnexpectedEOF) {
			t.Errorf("cut %d: err = %v, want unexpected EOF", cut, err)
		}
	}

	r := NewWireReader(strings.NewReader("XXXX"))
	if _, err := r.Next(); err == nil {
		t.Error("bad magic accepted")
	}
	r = NewWireReader(strings.NewReader(wireMagic + "?"))
	if _, err := r.Next(); err == nil {
		t.Error("unknown event kind accepted")
	}
}

// TestServeMatchesBatch is the serve loop's determinism contract: the daemon
// fed a batch run's stream over the wire produces a bit-identical epoch log
// and aggregates to core.RunSource over the same inputs.
func TestServeMatchesBatch(t *testing.T) {
	util, jobs := fixture(t, 1)
	tr := &trace.Trace{Name: "fixture", SlotSeconds: 60, Utilization: util}
	dir := t.TempDir()

	// Batch reference.
	mu := workload.DNS().MaxServiceRate()
	qos, err := policy.NewMeanResponseQoS(0.8, mu)
	if err != nil {
		t.Fatal(err)
	}
	m := &core.Manager{
		Profile:      power.Xeon(),
		FreqExponent: 1,
		Space:        policy.Space{Plans: policy.DefaultPlans(), FreqStep: 0.05, MinFreq: 0.05},
		QoS:          qos,
	}
	ss, err := strategy.NewSleepScale(m, 200, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	lms, err := predict.NewLMS(4, 0.4)
	if err != nil {
		t.Fatal(err)
	}
	batchCfg := core.RunnerConfig{
		FreqExponent: 1,
		Profile:      power.Xeon(),
		Trace:        tr,
		EpochSlots:   5,
		Predictor:    lms,
		Strategy:     ss,
		Seed:         1,
	}
	want, err := core.RunSource(batchCfg, stream.Slice(jobs))
	if err != nil {
		t.Fatal(err)
	}
	wantLog := filepath.Join(dir, "batch.col")
	if err := core.WriteEpochLog(wantLog, want.Epochs); err != nil {
		t.Fatal(err)
	}

	// Live daemon over the wire.
	gotLog := filepath.Join(dir, "serve.col")
	var out bytes.Buffer
	srv, err := NewServer(Config{
		Runner:       mkSleepScale(t, 1),
		EpochLogPath: gotLog,
		Out:          &out,
	})
	if err != nil {
		t.Fatal(err)
	}
	rep, done, err := srv.Serve(bytes.NewReader(encodeStream(t, util, jobs)))
	if err != nil {
		t.Fatal(err)
	}
	if !done {
		t.Fatal("clean stream did not finish")
	}
	requireSameLog(t, gotLog, wantLog)
	if rep.Jobs != want.Jobs || rep.Energy != want.Energy ||
		rep.Duration != want.Duration || rep.MeanResponse != want.MeanResponse ||
		rep.MeanFrequency != want.MeanFrequency || rep.AvgPower != want.AvgPower {
		t.Fatalf("aggregates diverge:\n got %+v\nwant %+v", rep, want)
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	if len(lines) != len(want.Epochs)+1 {
		t.Fatalf("NDJSON lines = %d, want %d epochs + 1 summary", len(lines), len(want.Epochs))
	}
	if !strings.Contains(lines[len(lines)-1], `"done":true`) {
		t.Fatalf("last NDJSON line is not the summary: %s", lines[len(lines)-1])
	}
	for i, line := range lines {
		if !strings.HasPrefix(line, "{") || !strings.HasSuffix(line, "}") {
			t.Fatalf("NDJSON line %d malformed: %s", i, line)
		}
	}
}

// TestServeKillRestoreEquivalence is the durability acceptance criterion:
// interrupt the daemon mid-stream (truncated feed ⇒ drain persists the last
// boundary), restore from the checkpoint with a from-the-start replay, and
// require the stitched epoch log and final report to be bit-identical to an
// uninterrupted run — across 2 seeds × 2 checkpoint intervals.
func TestServeKillRestoreEquivalence(t *testing.T) {
	for _, seed := range []int64{1, 42} {
		for _, every := range []int{3, 7} {
			t.Run("", func(t *testing.T) {
				util, jobs := fixture(t, seed)
				full := encodeStream(t, util, jobs)
				dir := t.TempDir()

				// Uninterrupted reference.
				refLog := filepath.Join(dir, "ref.col")
				ref, err := NewServer(Config{Runner: mkSleepScale(t, seed), EpochLogPath: refLog})
				if err != nil {
					t.Fatal(err)
				}
				wantRep, done, err := ref.Serve(bytes.NewReader(full))
				if err != nil || !done {
					t.Fatal(done, err)
				}

				// Interrupted run: the feed dies ~60% in, mid-event.
				cfg := Config{
					Runner:          mkSleepScale(t, seed),
					CheckpointPath:  filepath.Join(dir, "ckpt"),
					CheckpointEvery: every,
					EpochLogPath:    filepath.Join(dir, "live.col"),
				}
				victim, err := NewServer(cfg)
				if err != nil {
					t.Fatal(err)
				}
				cut := len(full) * 6 / 10
				if _, done, err := victim.Serve(bytes.NewReader(full[:cut])); done || err == nil {
					t.Fatalf("truncated stream finished cleanly (done=%v err=%v)", done, err)
				}

				// Simulate unflushed rows landing after the checkpoint (a
				// crash between log flush and checkpoint write): restore
				// must truncate them away.
				if err := core.WriteEpochLog(cfg.EpochLogPath, []core.EpochRecord{
					{Index: 999, Jobs: 1}, {Index: 1000, Jobs: 2},
				}); err != nil {
					t.Fatal(err)
				}

				restored, err := RestoreServer(Config{
					Runner:          mkSleepScale(t, seed),
					CheckpointPath:  cfg.CheckpointPath,
					CheckpointEvery: every,
					EpochLogPath:    cfg.EpochLogPath,
				}, true)
				if err != nil {
					t.Fatal(err)
				}
				gotRep, done, err := restored.Serve(bytes.NewReader(full))
				if err != nil {
					t.Fatal(err)
				}
				if !done {
					t.Fatal("replayed stream did not finish")
				}
				requireSameLog(t, cfg.EpochLogPath, refLog)
				if gotRep.Jobs != wantRep.Jobs || gotRep.Energy != wantRep.Energy ||
					gotRep.Duration != wantRep.Duration || gotRep.MeanResponse != wantRep.MeanResponse ||
					gotRep.MeanFrequency != wantRep.MeanFrequency {
					t.Fatalf("aggregates diverge:\n got %+v\nwant %+v", gotRep, wantRep)
				}
			})
		}
	}
}

// TestServeStopGraceful pins the SIGTERM drain path: Stop mid-stream
// persists a checkpoint at the last epoch boundary; a replayed restore
// finishes bit-identically to an uninterrupted run.
func TestServeStopGraceful(t *testing.T) {
	util, jobs := fixture(t, 7)
	full := encodeStream(t, util, jobs)
	dir := t.TempDir()

	refLog := filepath.Join(dir, "ref.col")
	ref, err := NewServer(Config{Runner: mkSleepScale(t, 7), EpochLogPath: refLog})
	if err != nil {
		t.Fatal(err)
	}
	if _, done, err := ref.Serve(bytes.NewReader(full)); err != nil || !done {
		t.Fatal(done, err)
	}

	cfg := Config{
		Runner:          mkSleepScale(t, 7),
		CheckpointPath:  filepath.Join(dir, "ckpt"),
		CheckpointEvery: 4,
		EpochLogPath:    filepath.Join(dir, "live.col"),
	}
	victim, err := NewServer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Reader that requests a stop partway through the stream: the loop
	// notices at the next event boundary — the in-process shape of "SIGTERM,
	// then the socket closes".
	sr := &stopReader{r: bytes.NewReader(full), stopAfter: len(full) / 2, srv: victim}
	rep, done, err := victim.Serve(sr)
	if err != nil {
		t.Fatalf("graceful stop surfaced error: %v", err)
	}
	if done {
		t.Fatalf("stopped serve reported done (report %+v)", rep)
	}

	restored, err := RestoreServer(cfg, true)
	if err != nil {
		t.Fatal(err)
	}
	if _, done, err := restored.Serve(bytes.NewReader(full)); err != nil || !done {
		t.Fatal(done, err)
	}
	requireSameLog(t, cfg.EpochLogPath, refLog)
}

// TestServeRejectsLateJob pins the runner's slot check at the wire: with
// 60 s slots and T = 5, a job arriving after seven slots in a slot that has
// already completed fails Serve with the runner's error, instead of failing
// later in the engine (100 s) or being served silently (310 s).
func TestServeRejectsLateJob(t *testing.T) {
	pol := policy.Policy{Frequency: 1, Plan: policy.SingleState(power.DeepSleep)}
	for _, late := range []float64{100, 310} {
		var buf bytes.Buffer
		w := NewWireWriter(&buf)
		must := func(err error) {
			t.Helper()
			if err != nil {
				t.Fatal(err)
			}
		}
		must(w.Job(queue.Job{Arrival: 5, Size: 0.5}))
		for i := 0; i < 7; i++ {
			must(w.Slot(0.3))
		}
		must(w.Job(queue.Job{Arrival: late, Size: 0.5}))
		for i := 0; i < 5; i++ {
			must(w.Slot(0.3))
		}
		must(w.End())
		srv, err := NewServer(Config{Runner: liveCfg(t,
			&strategy.Static{Policy: pol, Label: "static"}, predict.NewNaivePrevious(), 1)})
		must(err)
		_, done, err := srv.Serve(&buf)
		if err == nil || done {
			t.Fatalf("late job at %g: Serve done=%v err=%v, want the slot error", late, done, err)
		}
		if want := fmt.Sprintf("job arrival %g before the open slot's start 420", late); !strings.Contains(err.Error(), want) {
			t.Fatalf("late job at %g: error %q, want it to contain %q", late, err, want)
		}
	}
}

// stopReader calls srv.Stop once stopAfter bytes have been read, then keeps
// serving the remaining bytes — the server must stop on its own at the next
// event boundary.
type stopReader struct {
	r         *bytes.Reader
	stopAfter int
	read      int
	srv       *Server
}

func (s *stopReader) Read(p []byte) (int, error) {
	n, err := s.r.Read(p)
	s.read += n
	if s.read >= s.stopAfter {
		s.srv.Stop()
	}
	return n, err
}

// TestCheckpointRoundTrip pins the codec: encode → decode is exact.
func TestCheckpointRoundTrip(t *testing.T) {
	util, jobs := fixture(t, 3)
	srv, err := NewServer(Config{Runner: mkSleepScale(t, 3)})
	if err != nil {
		t.Fatal(err)
	}
	// Advance a few epochs by hand to populate every state field.
	r := srv.Runner()
	ji := 0
	for s := 0; s < 35; s++ {
		slotEnd := float64(s+1) * 60
		for ji < len(jobs) && jobs[ji].Arrival < slotEnd {
			if err := r.OfferJob(jobs[ji]); err != nil {
				t.Fatal(err)
			}
			ji++
		}
		if _, _, err := r.OfferSlot(util[s]); err != nil {
			t.Fatal(err)
		}
	}
	st, err := r.State()
	if err != nil {
		t.Fatal(err)
	}
	c := &Checkpoint{State: *st, EpochLogRows: 12345, EpochLogDict: []string{"C0S0", "C6S0(i)"}}
	got, err := DecodeCheckpoint(EncodeCheckpoint(c))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, c) {
		t.Fatalf("round trip diverges:\n got %+v\nwant %+v", got, c)
	}
}

// TestCheckpointFormatPin pins the checkpoint format by the SHA-256 of one
// fixed runner state's image. The runner forecasts with LMS+CUSUM, so the
// nested predictor blob is pinned too. A change that moves this hash
// changes what every restarted daemon reads back.
func TestCheckpointFormatPin(t *testing.T) {
	util, jobs := fixture(t, 3)
	cfg := mkSleepScale(t, 3)
	lc, err := predict.NewLMSCUSUM(6, 0.4)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Predictor = lc
	r, err := core.NewLiveRunner(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ji := 0
	for s := 0; s < 40; s++ {
		slotEnd := float64(s+1) * 60
		for ji < len(jobs) && jobs[ji].Arrival < slotEnd {
			if err := r.OfferJob(jobs[ji]); err != nil {
				t.Fatal(err)
			}
			ji++
		}
		if _, _, err := r.OfferSlot(util[s]); err != nil {
			t.Fatal(err)
		}
	}
	st, err := r.State()
	if err != nil {
		t.Fatal(err)
	}
	img := EncodeCheckpoint(&Checkpoint{State: *st, EpochLogRows: 8, EpochLogDict: st.PlanNames})
	const want = "c388d935ad688291c4e8f820e67979d244602582dba44de582a65c9c65b1ecef"
	if got := fmt.Sprintf("%x", sha256.Sum256(img)); got != want {
		t.Fatalf("checkpoint image SHA-256 %s, want %s", got, want)
	}
}

// TestCheckpointCorruption is the decoder-hardening satellite: truncated,
// bit-flipped, oversized-length and wrong-magic checkpoints error and fall
// back to the previous snapshot — never a panic, never a partial state.
func TestCheckpointCorruption(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "ckpt")

	mk := func(epoch int) *Checkpoint {
		util, jobs := fixture(t, 5)
		srv, err := NewServer(Config{Runner: mkSleepScale(t, 5)})
		if err != nil {
			t.Fatal(err)
		}
		r := srv.Runner()
		ji := 0
		for s := 0; s < epoch*5; s++ {
			slotEnd := float64(s+1) * 60
			for ji < len(jobs) && jobs[ji].Arrival < slotEnd {
				if err := r.OfferJob(jobs[ji]); err != nil {
					t.Fatal(err)
				}
				ji++
			}
			if _, _, err := r.OfferSlot(util[s]); err != nil {
				t.Fatal(err)
			}
		}
		st, err := r.State()
		if err != nil {
			t.Fatal(err)
		}
		return &Checkpoint{State: *st}
	}

	if _, err := LoadCheckpoint(path); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("missing checkpoint: err = %v, want not-exist", err)
	}

	c1, c2 := mk(2), mk(4)
	if err := WriteImage(path, EncodeCheckpoint(c1)); err != nil {
		t.Fatal(err)
	}
	if err := WriteImage(path, EncodeCheckpoint(c2)); err != nil {
		t.Fatal(err)
	}
	got, err := LoadCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.State.Epoch != c2.State.Epoch {
		t.Fatalf("loaded epoch %d, want %d", got.State.Epoch, c2.State.Epoch)
	}

	pristine, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	corruptions := map[string]func([]byte) []byte{
		"truncated":  func(b []byte) []byte { return b[:len(b)/2] },
		"empty":      func([]byte) []byte { return nil },
		"bad-magic":  func(b []byte) []byte { c := append([]byte(nil), b...); c[0] = 'X'; return c },
		"crc-flip":   func(b []byte) []byte { c := append([]byte(nil), b...); c[len(c)-1] ^= 0x40; return c },
		"header-len": func(b []byte) []byte { c := append([]byte(nil), b...); c[8] ^= 0xff; return c },
	}
	for name, corrupt := range corruptions {
		t.Run(name, func(t *testing.T) {
			if err := os.WriteFile(path, corrupt(pristine), 0o644); err != nil {
				t.Fatal(err)
			}
			if _, err := DecodeCheckpoint(corrupt(pristine)); err == nil {
				t.Error("corrupt image decoded cleanly")
			}
			// The rotated .prev snapshot (c1) must still load.
			got, err := LoadCheckpoint(path)
			if err != nil {
				t.Fatalf("fallback failed: %v", err)
			}
			if got.State.Epoch != c1.State.Epoch {
				t.Fatalf("fallback epoch %d, want %d", got.State.Epoch, c1.State.Epoch)
			}
		})
	}

	// Both damaged: a descriptive error, not a panic.
	if err := os.WriteFile(path, []byte("junk"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path+PrevSuffix, []byte("junk"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadCheckpoint(path); err == nil {
		t.Fatal("doubly-damaged checkpoint loaded")
	}
}

// TestRestoreServerFallsBackToPrev pins end-to-end recovery through a
// damaged primary: RestoreServer restores from .prev and the replayed run
// still matches the uninterrupted one bit for bit.
func TestRestoreServerFallsBackToPrev(t *testing.T) {
	util, jobs := fixture(t, 11)
	full := encodeStream(t, util, jobs)
	dir := t.TempDir()

	refLog := filepath.Join(dir, "ref.col")
	ref, err := NewServer(Config{Runner: mkSleepScale(t, 11), EpochLogPath: refLog})
	if err != nil {
		t.Fatal(err)
	}
	if _, done, err := ref.Serve(bytes.NewReader(full)); err != nil || !done {
		t.Fatal(done, err)
	}

	cfg := Config{
		Runner:          mkSleepScale(t, 11),
		CheckpointPath:  filepath.Join(dir, "ckpt"),
		CheckpointEvery: 2,
		EpochLogPath:    filepath.Join(dir, "live.col"),
	}
	victim, err := NewServer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, done, err := victim.Serve(bytes.NewReader(full[:len(full)/2])); done || err == nil {
		t.Fatal("truncated stream finished cleanly")
	}

	// Damage the primary: the daemon crashed mid-write. The epoch log may
	// now hold rows past the .prev checkpoint's high-water mark; restore
	// must truncate them.
	if err := os.WriteFile(cfg.CheckpointPath, []byte("partial write garbage"), 0o644); err != nil {
		t.Fatal(err)
	}
	restored, err := RestoreServer(cfg, true)
	if err != nil {
		t.Fatal(err)
	}
	if _, done, err := restored.Serve(bytes.NewReader(full)); err != nil || !done {
		t.Fatal(done, err)
	}
	requireSameLog(t, cfg.EpochLogPath, refLog)
}

// TestFeedSlotFeedShapes pins that any stream.Source becomes a load
// generator: the same scenario fed from a materialized slice and from the
// incremental trace generator produce identical wire bytes.
func TestFeedSlotFeedShapes(t *testing.T) {
	util, jobs := fixture(t, 1)
	stats, err := workload.NewIdealizedStats(workload.DNS())
	if err != nil {
		t.Fatal(err)
	}
	gen, err := stats.NewTraceGen(util, 60, 1)
	if err != nil {
		t.Fatal(err)
	}

	var a, b bytes.Buffer
	if err := Feed(NewWireWriter(&a), stream.Slice(jobs), workload.SliceSlots(util), 60); err != nil {
		t.Fatal(err)
	}
	if err := Feed(NewWireWriter(&b), gen, workload.SliceSlots(util), 60); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("materialized and generated feeds produce different wire bytes")
	}
}

// wirePrefix returns the fixture stream's bytes through slot n's event — a
// feed cut exactly on a slot boundary.
func wirePrefix(t *testing.T, util []float64, jobs []queue.Job, n int) []byte {
	t.Helper()
	p := encodeStream(t, util[:n], jobs)
	return p[:len(p)-1] // drop the end marker
}

// slotsIn counts the complete slot events in a (possibly cut) wire stream.
func slotsIn(data []byte) int {
	r := NewWireReader(bytes.NewReader(data))
	n := 0
	for {
		ev, err := r.Next()
		if err != nil || ev.Kind == EventEnd {
			return n
		}
		if ev.Kind == EventSlot {
			n++
		}
	}
}

// boundaryImages drives a bare runner through the stream in lockstep with a
// server and returns, for every epoch boundary, the checkpoint image a
// server persisting there must write: EncodeCheckpoint of the runner's
// State() with the epoch log's rows and plan dictionary at that boundary.
func boundaryImages(t *testing.T, cfg core.LiveConfig, data []byte) map[int][]byte {
	t.Helper()
	r, err := core.NewLiveRunner(cfg)
	if err != nil {
		t.Fatal(err)
	}
	images := make(map[int][]byte)
	var dict []string
	wr := NewWireReader(bytes.NewReader(data))
	for {
		ev, err := wr.Next()
		if err != nil {
			t.Fatal(err)
		}
		switch ev.Kind {
		case EventJob:
			if err := r.OfferJob(ev.Job); err != nil {
				t.Fatal(err)
			}
		case EventSlot:
			rec, closed, err := r.OfferSlot(ev.Rho)
			if err != nil {
				t.Fatal(err)
			}
			if !closed {
				continue
			}
			if name := rec.Policy.Plan.Name; !slices.Contains(dict, name) {
				dict = append(dict, name)
			}
			st, err := r.State()
			if err != nil {
				t.Fatal(err)
			}
			images[st.Epoch] = EncodeCheckpoint(&Checkpoint{
				State: *st, EpochLogRows: int64(st.Epoch), EpochLogDict: slices.Clone(dict),
			})
		case EventEnd:
			return images
		}
	}
}

// requireImage checks that path holds exactly the boundary image of epoch,
// or does not exist when epoch < 1 (no such boundary was persisted).
func requireImage(t *testing.T, path string, want map[int][]byte, epoch int) {
	t.Helper()
	got, err := os.ReadFile(path)
	if epoch < 1 {
		if !errors.Is(err, os.ErrNotExist) {
			t.Fatalf("%s: want no file, got err %v", filepath.Base(path), err)
		}
		return
	}
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want[epoch]) {
		c, derr := DecodeCheckpoint(got)
		if derr != nil {
			t.Fatalf("%s: not the epoch-%d image, and undecodable: %v", filepath.Base(path), epoch, derr)
		}
		t.Fatalf("%s: %d bytes of epoch %d, want the %d-byte image of epoch %d",
			filepath.Base(path), len(got), c.State.Epoch, len(want[epoch]), epoch)
	}
}

// TestServeCheckpointBytes pins what the server persists to the checkpoint
// format: after a clean run, and after feeds cut at several offsets (on a
// boundary, and mid-epoch so that the drain persists a boundary captured
// slots earlier), ss.ckpt and ss.ckpt.prev are byte for byte
// EncodeCheckpoint of a lockstep runner's State() at the same boundary with
// the same epoch-log rows and dictionary.
func TestServeCheckpointBytes(t *testing.T) {
	const seed, every, epochSlots = 2, 3, 5
	util, jobs := fixture(t, seed)
	full := encodeStream(t, util, jobs)
	want := boundaryImages(t, mkSleepScale(t, seed), full)
	cuts := []int{
		len(full), // clean end: no drain
		100,       // inside the first epoch: no boundary to persist
		len(wirePrefix(t, util, jobs, 2*epochSlots)), // on boundary 2, before any periodic write
		len(wirePrefix(t, util, jobs, 6*epochSlots)), // on periodic boundary 6
		len(full) * 3 / 10, len(full) / 2, len(full)*7/10 + 5,
	}
	for _, cut := range cuts {
		t.Run(fmt.Sprint(cut), func(t *testing.T) {
			dir := t.TempDir()
			cfg := Config{
				Runner:          mkSleepScale(t, seed),
				CheckpointPath:  filepath.Join(dir, "ss.ckpt"),
				CheckpointEvery: every,
				EpochLogPath:    filepath.Join(dir, "epochs.col"),
			}
			srv, err := NewServer(cfg)
			if err != nil {
				t.Fatal(err)
			}
			clean := cut == len(full)
			if _, done, err := srv.Serve(bytes.NewReader(full[:cut])); done != clean || (err == nil) != clean {
				t.Fatalf("done=%v err=%v, want a clean end %v", done, err, clean)
			}
			if srv.writing {
				t.Fatal("a checkpoint write outlived Serve")
			}
			// A clean end persists only at the cadence. A drain persists the
			// last boundary, after the cadence's last write rotated into
			// .prev — or over it, when both fell on the same boundary.
			closed := slotsIn(full[:cut]) / epochSlots
			last := closed / every * every
			ckpt, prev := last, last-every
			if !clean {
				ckpt, prev = closed, last
			}
			requireImage(t, cfg.CheckpointPath, want, ckpt)
			requireImage(t, cfg.CheckpointPath+PrevSuffix, want, prev)
		})
	}
}

// TestServeCheckpointWriteFailure pins the background writer's error and
// lifetime contract with the checkpoint's directory missing: however Serve
// returns — clean end, a cut feed's drain with or without an earlier
// periodic write, Stop, an ingest error — it reports the failed write, at
// most one cadence after it, and leaves no write running.
func TestServeCheckpointWriteFailure(t *testing.T) {
	const seed, epochSlots = 4, 5
	util, jobs := fixture(t, seed)
	full := encodeStream(t, util, jobs) // 36 epochs
	// A job in a long-completed slot, right after periodic boundary 4.
	late := wirePrefix(t, util, jobs, 4*epochSlots)
	late = append(late, byte(EventJob))
	late = binary.LittleEndian.AppendUint64(late, math.Float64bits(1))
	late = binary.LittleEndian.AppendUint64(late, math.Float64bits(0.5))
	cases := []struct {
		name  string
		every int
		feed  []byte
		stop  bool
	}{
		{"clean-end", 30, full, false},                          // the boundary-30 write surfaces at the end
		{"drain-after-write", 30, full[:len(full)*9/10], false}, // the drain waits for the boundary-30 write
		{"drain-only", 30, full[:len(full)/2], false},           // the drain's own write fails
		{"stop", 30, full, true},
		{"ingest-error", 4, late, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var out bytes.Buffer
			srv, err := NewServer(Config{
				Runner:          mkSleepScale(t, seed),
				CheckpointPath:  filepath.Join(t.TempDir(), "missing", "ss.ckpt"),
				CheckpointEvery: tc.every,
				Out:             &out,
			})
			if err != nil {
				t.Fatal(err)
			}
			var in io.Reader = bytes.NewReader(tc.feed)
			if tc.stop {
				in = &stopReader{r: bytes.NewReader(tc.feed), stopAfter: len(tc.feed) / 2, srv: srv}
			}
			_, done, err := srv.Serve(in)
			if done || err == nil || !strings.Contains(err.Error(), "checkpoint write") {
				t.Fatalf("done=%v err=%v, want the failed checkpoint write", done, err)
			}
			if srv.writing {
				t.Fatal("a checkpoint write outlived Serve")
			}
			if strings.Contains(out.String(), `"done":true`) {
				t.Fatal("a run whose checkpoint failed emitted its summary")
			}
		})
	}
}
