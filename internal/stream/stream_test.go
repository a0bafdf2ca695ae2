package stream_test

import (
	"math"
	"math/rand"
	"testing"

	"sleepscale/internal/dist"
	"sleepscale/internal/queue"
	"sleepscale/internal/stream"
	"sleepscale/internal/trace"
	"sleepscale/internal/workload"
)

func fittedDNS(t testing.TB) workload.Stats {
	t.Helper()
	st, err := workload.NewFittedStats(workload.DNS())
	if err != nil {
		t.Fatal(err)
	}
	return st
}

func testTrace(t testing.TB) *trace.Trace {
	t.Helper()
	tr, err := trace.EmailStore(1, 7).DailyWindow(120, 300)
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

func expSize(t testing.TB, mean float64) dist.Distribution {
	t.Helper()
	d, err := dist.NewExponentialMean(mean)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func mustCollect(t testing.TB, src stream.Source, chunk int) []queue.Job {
	t.Helper()
	jobs, err := stream.Collect(src, chunk)
	if err != nil {
		t.Fatal(err)
	}
	return jobs
}

func requireJobsEqual(t *testing.T, got, want []queue.Job, label string) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d jobs, want %d", label, len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("%s: job %d = %+v, want %+v", label, i, got[i], want[i])
		}
	}
}

func requireSorted(t *testing.T, jobs []queue.Job, label string) {
	t.Helper()
	for i := 1; i < len(jobs); i++ {
		if jobs[i].Arrival < jobs[i-1].Arrival {
			t.Fatalf("%s: job %d arrival %g before %g", label, i, jobs[i].Arrival, jobs[i-1].Arrival)
		}
	}
}

// checkSourceContract pins the properties every source must satisfy:
// chunk-boundary invariance (1, 7 and default-sized pulls deliver the same
// stream), Reset determinism (same seed replays bit-identically) and
// arrival ordering. It returns the reference stream.
func checkSourceContract(t *testing.T, src stream.Source, seed int64, label string) []queue.Job {
	t.Helper()
	src.Reset(seed)
	ref := mustCollect(t, src, 0)
	requireSorted(t, ref, label)
	for _, chunk := range []int{1, 7} {
		src.Reset(seed)
		requireJobsEqual(t, mustCollect(t, src, chunk), ref, label+" chunked")
	}
	src.Reset(seed)
	requireJobsEqual(t, mustCollect(t, src, 0), ref, label+" reset replay")
	src.Reset(seed + 1)
	other := mustCollect(t, src, 0)
	if _, isSlice := src.(*stream.SliceSource); !isSlice {
		same := len(other) == len(ref)
		if same {
			for i := range other {
				if other[i] != ref[i] {
					same = false
					break
				}
			}
		}
		if same && len(ref) > 0 {
			t.Errorf("%s: different seeds produced identical streams", label)
		}
	}
	src.Reset(seed)
	return ref
}

func TestSliceSourceContract(t *testing.T) {
	st := fittedDNS(t)
	jobs := st.Jobs(500, rand.New(rand.NewSource(1)))
	checkSourceContract(t, stream.Slice(jobs), 0, "slice")
	got := mustCollect(t, stream.Slice(jobs), 3)
	requireJobsEqual(t, got, jobs, "slice contents")
}

func TestTraceSourceMatchesTraceJobs(t *testing.T) {
	st := fittedDNS(t)
	tr := testTrace(t)
	const seed = 42
	want := st.TraceJobs(tr.Utilization, tr.SlotSeconds, rand.New(rand.NewSource(seed)))
	if len(want) == 0 {
		t.Fatal("empty reference stream")
	}
	src, err := stream.Trace(st, tr, seed)
	if err != nil {
		t.Fatal(err)
	}
	got := checkSourceContract(t, src, seed, "trace")
	requireJobsEqual(t, got, want, "trace vs TraceJobs")
}

func TestStationarySource(t *testing.T) {
	st := fittedDNS(t)
	const horizon = 2000.0
	src, err := stream.NewStationary(st, horizon, 3)
	if err != nil {
		t.Fatal(err)
	}
	jobs := checkSourceContract(t, src, 3, "stationary")
	if len(jobs) == 0 {
		t.Fatal("no jobs")
	}
	if last := jobs[len(jobs)-1].Arrival; last >= horizon {
		t.Fatalf("arrival %g beyond horizon", last)
	}
	// Mean arrival rate should approximate 1/interArrivalMean.
	got := float64(len(jobs)) / horizon
	want := 1 / st.Inter.Mean()
	if math.Abs(got-want)/want > 0.2 {
		t.Errorf("rate %g, want ≈ %g", got, want)
	}
}

func TestMMPPSource(t *testing.T) {
	size := expSize(t, 0.01)
	cfg := stream.MMPPConfig{
		OnRate: 50, OffRate: 0,
		MeanOn: 10, MeanOff: 10,
		Size: size, Horizon: 4000,
	}
	src, err := stream.NewMMPP(cfg, 11)
	if err != nil {
		t.Fatal(err)
	}
	jobs := checkSourceContract(t, src, 11, "mmpp")
	if len(jobs) == 0 {
		t.Fatal("no jobs")
	}
	if last := jobs[len(jobs)-1].Arrival; last >= cfg.Horizon {
		t.Fatalf("arrival %g beyond horizon", last)
	}
	// Half the time on at rate 50 → overall rate ≈ 25.
	got := float64(len(jobs)) / cfg.Horizon
	if got < 15 || got > 35 {
		t.Errorf("overall rate %g, want ≈ 25", got)
	}
}

func TestMMPPValidation(t *testing.T) {
	size := expSize(t, 0.01)
	bad := []stream.MMPPConfig{
		{OnRate: 0, OffRate: 0, MeanOn: 1, MeanOff: 1, Size: size, Horizon: 1},
		{OnRate: -1, OffRate: 0, MeanOn: 1, MeanOff: 1, Size: size, Horizon: 1},
		{OnRate: 1, OffRate: 0, MeanOn: 0, MeanOff: 1, Size: size, Horizon: 1},
		{OnRate: 1, OffRate: 0, MeanOn: 1, MeanOff: 1, Size: nil, Horizon: 1},
		{OnRate: 1, OffRate: 0, MeanOn: 1, MeanOff: 1, Size: size, Horizon: 0},
	}
	for i, c := range bad {
		if _, err := stream.NewMMPP(c, 1); err == nil {
			t.Errorf("case %d accepted: %+v", i, c)
		}
	}
}

func TestFlashCrowdSource(t *testing.T) {
	size := expSize(t, 0.01)
	cfg := stream.FlashCrowdConfig{
		BaseRate: 5, SpikeEvery: 200, Peak: 8, Decay: 30,
		Size: size, Horizon: 5000,
	}
	src, err := stream.NewFlashCrowd(cfg, 21)
	if err != nil {
		t.Fatal(err)
	}
	jobs := checkSourceContract(t, src, 21, "flash")
	if last := jobs[len(jobs)-1].Arrival; last >= cfg.Horizon {
		t.Fatalf("arrival %g beyond horizon", last)
	}
	// With Peak = 0 the process degenerates to homogeneous Poisson at
	// BaseRate; the spike overlay must add load beyond it.
	quiet := cfg
	quiet.Peak = 0
	qsrc, err := stream.NewFlashCrowd(quiet, 21)
	if err != nil {
		t.Fatal(err)
	}
	qjobs := mustCollect(t, qsrc, 0)
	qrate := float64(len(qjobs)) / cfg.Horizon
	if math.Abs(qrate-cfg.BaseRate)/cfg.BaseRate > 0.15 {
		t.Errorf("peak-0 rate %g, want ≈ %g", qrate, cfg.BaseRate)
	}
	if len(jobs) <= len(qjobs) {
		t.Errorf("spikes added no load: %d jobs vs %d without", len(jobs), len(qjobs))
	}
}

func TestDiurnalSource(t *testing.T) {
	size := expSize(t, 0.01)
	cfg := stream.DiurnalConfig{
		BaseRate: 1, PeakRate: 30, Period: 1000, Phase: 0.25,
		Size: size, Horizon: 1000,
	}
	src, err := stream.NewDiurnal(cfg, 5)
	if err != nil {
		t.Fatal(err)
	}
	jobs := checkSourceContract(t, src, 5, "diurnal")
	// Count arrivals in the peak-centred half vs the trough-centred half.
	peakHalf, troughHalf := 0, 0
	for _, j := range jobs {
		if j.Arrival >= 0 && j.Arrival < 500 {
			peakHalf++
		} else {
			troughHalf++
		}
	}
	if peakHalf <= 2*troughHalf {
		t.Errorf("modulation missing: %d peak-half vs %d trough-half arrivals", peakHalf, troughHalf)
	}
}

func TestMergeMatchesSortedUnion(t *testing.T) {
	st := fittedDNS(t)
	a := st.Jobs(400, rand.New(rand.NewSource(1)))
	b := st.Jobs(300, rand.New(rand.NewSource(2)))
	m := stream.Merge(stream.Slice(a), stream.Slice(b))
	got := mustCollect(t, m, 5)
	// Reference: two-pointer merge with ties toward the first operand.
	var want []queue.Job
	i, j := 0, 0
	for i < len(a) || j < len(b) {
		if j >= len(b) || (i < len(a) && a[i].Arrival <= b[j].Arrival) {
			want = append(want, a[i])
			i++
		} else {
			want = append(want, b[j])
			j++
		}
	}
	requireJobsEqual(t, got, want, "merge")
}

func TestMergeOfGeneratorsContract(t *testing.T) {
	size := expSize(t, 0.01)
	m1, err := stream.NewMMPP(stream.MMPPConfig{
		OnRate: 20, OffRate: 1, MeanOn: 5, MeanOff: 20, Size: size, Horizon: 1000,
	}, 1)
	if err != nil {
		t.Fatal(err)
	}
	d1, err := stream.NewDiurnal(stream.DiurnalConfig{
		BaseRate: 2, PeakRate: 10, Period: 500, Size: size, Horizon: 1000,
	}, 2)
	if err != nil {
		t.Fatal(err)
	}
	checkSourceContract(t, stream.Merge(m1, d1), 77, "merge-generators")
}

func TestScaleRate(t *testing.T) {
	st := fittedDNS(t)
	jobs := st.Jobs(200, rand.New(rand.NewSource(4)))
	src, err := stream.ScaleRate(stream.Slice(jobs), 2)
	if err != nil {
		t.Fatal(err)
	}
	got := mustCollect(t, src, 9)
	if len(got) != len(jobs) {
		t.Fatalf("%d jobs, want %d", len(got), len(jobs))
	}
	for i := range got {
		if got[i].Arrival != jobs[i].Arrival/2 || got[i].Size != jobs[i].Size {
			t.Fatalf("job %d = %+v, want arrival %g size %g",
				i, got[i], jobs[i].Arrival/2, jobs[i].Size)
		}
	}
	for _, bad := range []float64{0, -1, math.Inf(1), math.NaN()} {
		if _, err := stream.ScaleRate(stream.Slice(jobs), bad); err == nil {
			t.Errorf("factor %g accepted", bad)
		}
	}
}

func TestSplice(t *testing.T) {
	st := fittedDNS(t)
	a := st.Jobs(300, rand.New(rand.NewSource(5)))
	b := st.Jobs(100, rand.New(rand.NewSource(6)))
	cut := a[150].Arrival // splice mid-stream
	src, err := stream.Splice(stream.Slice(a), cut, stream.Slice(b))
	if err != nil {
		t.Fatal(err)
	}
	got := mustCollect(t, src, 7)
	var want []queue.Job
	for _, j := range a {
		if j.Arrival >= cut {
			break
		}
		want = append(want, j)
	}
	for _, j := range b {
		j.Arrival += cut
		want = append(want, j)
	}
	requireJobsEqual(t, got, want, "splice")
	requireSorted(t, got, "splice")

	// A runs dry before the cut: b still starts at the cut.
	short, err := stream.Splice(stream.Slice(a[:3]), a[len(a)-1].Arrival+100, stream.Slice(b))
	if err != nil {
		t.Fatal(err)
	}
	got = mustCollect(t, short, 0)
	if len(got) != 3+len(b) {
		t.Fatalf("%d jobs, want %d", len(got), 3+len(b))
	}
	requireSorted(t, got, "splice-short")

	if _, err := stream.Splice(stream.Slice(a), -1, stream.Slice(b)); err == nil {
		t.Error("negative splice time accepted")
	}
}

func TestSpliceOfGeneratorsContract(t *testing.T) {
	size := expSize(t, 0.01)
	d, err := stream.NewDiurnal(stream.DiurnalConfig{
		BaseRate: 2, PeakRate: 10, Period: 400, Size: size, Horizon: 800,
	}, 3)
	if err != nil {
		t.Fatal(err)
	}
	f, err := stream.NewFlashCrowd(stream.FlashCrowdConfig{
		BaseRate: 5, SpikeEvery: 100, Peak: 5, Decay: 20, Size: size, Horizon: 400,
	}, 4)
	if err != nil {
		t.Fatal(err)
	}
	sp, err := stream.Splice(d, 500, f)
	if err != nil {
		t.Fatal(err)
	}
	checkSourceContract(t, sp, 13, "splice-generators")
}

func TestScaleRateOfGeneratorContract(t *testing.T) {
	size := expSize(t, 0.01)
	m, err := stream.NewMMPP(stream.MMPPConfig{
		OnRate: 20, OffRate: 2, MeanOn: 10, MeanOff: 10, Size: size, Horizon: 1000,
	}, 6)
	if err != nil {
		t.Fatal(err)
	}
	sc, err := stream.ScaleRate(m, 1.5)
	if err != nil {
		t.Fatal(err)
	}
	checkSourceContract(t, sc, 31, "scale-generator")
}

// TestTraceSourceSteadyStateAllocs pins the zero-allocation contract of the
// streaming generator: after the first drain, Reset + full re-drain through
// a reused chunk buffer allocates nothing.
func TestTraceSourceSteadyStateAllocs(t *testing.T) {
	st, err := workload.NewIdealizedStats(workload.DNS())
	if err != nil {
		t.Fatal(err)
	}
	tr := testTrace(t)
	src, err := stream.Trace(st, tr, 1)
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]queue.Job, stream.DefaultChunk)
	drain := func() {
		src.Reset(1)
		for {
			_, ok := src.Next(buf)
			if !ok {
				return
			}
		}
	}
	drain() // warm up
	if allocs := testing.AllocsPerRun(3, drain); allocs != 0 {
		t.Errorf("steady-state drain allocates %g allocs/op, want 0", allocs)
	}
}

// stutterSource exercises the Cursor's corner cases: it returns an empty
// chunk while still live, then delivers its final jobs alongside ok=false.
type stutterSource struct {
	jobs  []queue.Job
	calls int
}

func (s *stutterSource) Next(buf []queue.Job) (int, bool) {
	s.calls++
	if s.calls == 1 {
		return 0, true // empty chunk, more to come: must be retried
	}
	n := copy(buf, s.jobs)
	s.jobs = s.jobs[n:]
	return n, false // final chunk delivered with ok=false: must be drained
}

func (s *stutterSource) Reset(int64) {}

func TestCursorCornerCases(t *testing.T) {
	jobs := []queue.Job{{Arrival: 1, Size: 0.1}, {Arrival: 2, Size: 0.2}}
	cur := stream.NewCursor(&stutterSource{jobs: jobs})
	for i, want := range jobs {
		// Peek is idempotent until Advance.
		j1, ok1 := cur.Peek()
		j2, ok2 := cur.Peek()
		if !ok1 || !ok2 || j1 != j2 {
			t.Fatalf("job %d: peek not idempotent: %v/%v %v/%v", i, j1, ok1, j2, ok2)
		}
		if j1 != want {
			t.Fatalf("job %d = %v, want %v", i, j1, want)
		}
		cur.Advance()
	}
	if _, ok := cur.Peek(); ok {
		t.Fatal("cursor did not report exhaustion")
	}
	if _, ok := cur.Peek(); ok {
		t.Fatal("exhaustion not sticky")
	}
}

// TestCursorReset: a Reset cursor over a rewound (or fresh) source must
// replay the stream exactly, dropping any buffered lookahead from the
// previous binding — long-lived drivers cursor over many streams this way
// without reallocating.
func TestCursorReset(t *testing.T) {
	a := []queue.Job{{Arrival: 1, Size: 0.1}, {Arrival: 2, Size: 0.2}, {Arrival: 3, Size: 0.3}}
	b := []queue.Job{{Arrival: 9, Size: 0.9}}
	cur := stream.NewCursor(stream.Slice(a))
	// Consume one job, leaving lookahead buffered.
	if j, ok := cur.Peek(); !ok || j != a[0] {
		t.Fatalf("first peek = %v %v", j, ok)
	}
	cur.Advance()
	// Rebind to a different source: the stale lookahead must vanish.
	cur.Reset(stream.Slice(b))
	j, ok := cur.Peek()
	if !ok || j != b[0] {
		t.Fatalf("after Reset peek = %v %v, want %v", j, ok, b[0])
	}
	cur.Advance()
	if _, ok := cur.Peek(); ok {
		t.Fatal("rebound cursor not exhausted")
	}
	// Reset clears sticky exhaustion too.
	cur.Reset(stream.Slice(a))
	var got []queue.Job
	for {
		j, ok := cur.Peek()
		if !ok {
			break
		}
		got = append(got, j)
		cur.Advance()
	}
	if len(got) != len(a) {
		t.Fatalf("replay yielded %d jobs, want %d", len(got), len(a))
	}
	for i := range a {
		if got[i] != a[i] {
			t.Fatalf("replay job %d = %v, want %v", i, got[i], a[i])
		}
	}
}

// TestCursorMatchesCollect: draining through the cursor must yield exactly
// what the chunked Collect reference sees.
func TestCursorMatchesCollect(t *testing.T) {
	mk := func() stream.Source {
		src, err := stream.NewStationary(fittedDNS(t), 50, 9)
		if err != nil {
			t.Fatal(err)
		}
		return src
	}
	want, err := stream.Collect(mk(), 0)
	if err != nil {
		t.Fatal(err)
	}
	cur := stream.NewCursor(mk())
	var got []queue.Job
	for {
		j, ok := cur.Peek()
		if !ok {
			break
		}
		got = append(got, j)
		cur.Advance()
	}
	if len(got) != len(want) {
		t.Fatalf("cursor drained %d jobs, Collect %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("job %d diverges: %v vs %v", i, got[i], want[i])
		}
	}
}
