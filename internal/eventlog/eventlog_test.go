package eventlog

import (
	"math"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"sleepscale/internal/queue"
)

func TestFromJobs(t *testing.T) {
	jobs := []queue.Job{
		{Arrival: 12, Size: 0.1},
		{Arrival: 15, Size: 0.2},
		{Arrival: 15.5, Size: 0.3},
	}
	e := FromJobs(jobs, 10)
	wantGaps := []float64{2, 3, 0.5}
	for i, g := range wantGaps {
		if e.Gaps[i] != g {
			t.Errorf("gap %d = %v, want %v", i, e.Gaps[i], g)
		}
	}
	if e.Sizes[2] != 0.3 {
		t.Errorf("sizes wrong: %v", e.Sizes)
	}
	empty := FromJobs(nil, 0)
	if len(empty.Gaps) != 0 {
		t.Error("empty jobs should give empty epoch")
	}
}

func TestWindowCapacity(t *testing.T) {
	w, err := NewWindow(2)
	if err != nil {
		t.Fatal(err)
	}
	w.Push(Epoch{Gaps: []float64{1}, Sizes: []float64{1}})
	w.Push(Epoch{Gaps: []float64{2}, Sizes: []float64{2}})
	w.Push(Epoch{Gaps: []float64{3}, Sizes: []float64{3}})
	if w.Epochs() != 2 {
		t.Fatalf("epochs = %d, want 2 (evicted)", w.Epochs())
	}
	g, s, ok := w.Means()
	if !ok {
		t.Fatal("means not ok")
	}
	if g != 2.5 || s != 2.5 {
		t.Errorf("means = %v,%v, want 2.5,2.5 (epoch 1 evicted)", g, s)
	}
	if w.JobCount() != 2 {
		t.Errorf("job count = %d, want 2", w.JobCount())
	}
	if _, err := NewWindow(0); err == nil {
		t.Error("capacity 0 accepted")
	}
}

func TestMeansEmptyWindow(t *testing.T) {
	w, _ := NewWindow(3)
	if _, _, ok := w.Means(); ok {
		t.Error("empty window reported means")
	}
	if w.Utilization() != 0 {
		t.Error("empty window utilization != 0")
	}
	w.Push(Epoch{}) // an epoch with no jobs
	if _, _, ok := w.Means(); ok {
		t.Error("window with only empty epochs reported means")
	}
}

// TestMeansFollowsPushes: Means is cached between pushes, so every Push,
// PushJobs and Reset must show in the next call, and a RestoreWindow copy
// must report the original's means bit for bit.
func TestMeansFollowsPushes(t *testing.T) {
	w, _ := NewWindow(2)
	check := func(label string, wantGap, wantSize float64, wantOK bool) {
		t.Helper()
		for range 2 { // the call that sums, then the cached one
			if g, s, ok := w.Means(); g != wantGap || s != wantSize || ok != wantOK {
				t.Fatalf("%s: means %v, %v, %v; want %v, %v, %v", label, g, s, ok, wantGap, wantSize, wantOK)
			}
		}
		r, err := RestoreWindow(w.State())
		if err != nil {
			t.Fatal(err)
		}
		g, s, ok := w.Means()
		rg, rs, rok := r.Means()
		if math.Float64bits(rg) != math.Float64bits(g) || math.Float64bits(rs) != math.Float64bits(s) || rok != ok {
			t.Fatalf("%s: restored means %v, %v, %v; original %v, %v, %v", label, rg, rs, rok, g, s, ok)
		}
	}
	check("empty", 0, 0, false)
	w.Push(Epoch{Gaps: []float64{1, 3}, Sizes: []float64{0.5, 1.5}})
	check("push", 2, 1, true)
	w.PushJobs([]queue.Job{{Arrival: 10, Size: 4}}, 4)
	check("push jobs", 10.0/3, 2, true)
	w.Push(Epoch{Gaps: []float64{0.25}, Sizes: []float64{0.75}}) // evicts the first
	check("evict", 3.125, 2.375, true)
	w.PushJobs(nil, 0) // evicts the second
	check("empty epoch", 0.25, 0.75, true)
	w.Reset()
	check("reset", 0, 0, false)
}

func TestUtilization(t *testing.T) {
	w, _ := NewWindow(1)
	// Mean gap 2 s, mean size 0.5 s ⇒ ρ = 0.25.
	w.Push(Epoch{Gaps: []float64{1, 3}, Sizes: []float64{0.25, 0.75}})
	if got := w.Utilization(); math.Abs(got-0.25) > 1e-12 {
		t.Errorf("utilization = %v, want 0.25", got)
	}
}

func TestJobsBootstrap(t *testing.T) {
	w, _ := NewWindow(2)
	rng := rand.New(rand.NewSource(3))
	// Log with gap mean 0.5, size mean 0.1 (ρ = 0.2).
	gaps := make([]float64, 500)
	sizes := make([]float64, 500)
	for i := range gaps {
		gaps[i] = rng.ExpFloat64() * 0.5
		sizes[i] = rng.ExpFloat64() * 0.1
	}
	w.Push(Epoch{Gaps: gaps, Sizes: sizes})
	jobs, ok := w.Jobs(5000, 0.4, rng)
	if !ok {
		t.Fatal("bootstrap failed")
	}
	if len(jobs) != 5000 {
		t.Fatalf("len = %d", len(jobs))
	}
	var work float64
	prev := -1.0
	for _, j := range jobs {
		if j.Arrival <= prev {
			t.Fatal("bootstrap arrivals not increasing")
		}
		prev = j.Arrival
		work += j.Size
	}
	// The stream's realized utilization must be close to the 0.4 target.
	got := work / jobs[len(jobs)-1].Arrival
	if math.Abs(got-0.4) > 0.05 {
		t.Errorf("bootstrap utilization = %v, want ≈0.4", got)
	}
}

func TestJobsBootstrapGuards(t *testing.T) {
	w, _ := NewWindow(1)
	rng := rand.New(rand.NewSource(1))
	if _, ok := w.Jobs(100, 0.5, rng); ok {
		t.Error("empty window bootstrap should fail")
	}
	w.Push(Epoch{Gaps: []float64{1}, Sizes: []float64{0.5}})
	if _, ok := w.Jobs(100, 0, rng); ok {
		t.Error("ρ=0 accepted")
	}
	if _, ok := w.Jobs(0, 0.5, rng); ok {
		t.Error("n=0 accepted")
	}
	if jobs, ok := w.Jobs(10, 0.5, rng); !ok || len(jobs) != 10 {
		t.Error("valid bootstrap failed")
	}
}

// Property: for any logged workload and target ρ, the bootstrap stream hits
// the target utilization within sampling error.
func TestBootstrapUtilizationProperty(t *testing.T) {
	f := func(seed int64, rs uint8) bool {
		rho := 0.05 + float64(rs)/255*0.9
		rng := rand.New(rand.NewSource(seed))
		w, _ := NewWindow(3)
		gaps := make([]float64, 300)
		sizes := make([]float64, 300)
		for i := range gaps {
			gaps[i] = rng.ExpFloat64()*0.2 + 1e-6
			sizes[i] = rng.ExpFloat64()*0.05 + 1e-6
		}
		w.Push(Epoch{Gaps: gaps, Sizes: sizes})
		jobs, ok := w.Jobs(3000, rho, rng)
		if !ok {
			return false
		}
		var work float64
		for _, j := range jobs {
			work += j.Size
		}
		got := work / jobs[len(jobs)-1].Arrival
		return math.Abs(got-rho)/rho < 0.2
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// jobsFlatReference is the bootstrap with the window flattened first: every
// held gap and size copied into two slices, the draws taken from those. Jobs
// must match it draw for draw and bit for bit.
func jobsFlatReference(w *Window, n int, targetRho float64, rng *rand.Rand) []queue.Job {
	gapMean, sizeMean, _ := w.Means()
	var gaps, sizes []float64
	for i := 0; i < w.count; i++ {
		e := w.at(i)
		gaps = append(gaps, e.Gaps...)
		sizes = append(sizes, e.Sizes...)
	}
	scale := sizeMean / targetRho / gapMean
	jobs := make([]queue.Job, n)
	tnow := 0.0
	for i := range jobs {
		tnow += gaps[rng.Intn(len(gaps))] * scale
		jobs[i] = queue.Job{Arrival: tnow, Size: sizes[rng.Intn(len(sizes))]}
	}
	return jobs
}

// TestJobsMatchesFlatReference pins Jobs' in-place indexing to the
// flattening reference on a wrapped 3-epoch ring holding an empty epoch
// between two logged ones, and pins its only allocation to the returned
// job slice.
func TestJobsMatchesFlatReference(t *testing.T) {
	w, _ := NewWindow(3)
	rng := rand.New(rand.NewSource(5))
	logEpoch := func(n int, start float64) {
		jobs := make([]queue.Job, n)
		at := start
		for i := range jobs {
			at += rng.ExpFloat64() * 0.2
			jobs[i] = queue.Job{Arrival: at, Size: rng.ExpFloat64() * 0.05}
		}
		w.PushJobs(jobs, start)
	}
	// Four pushes into three slots: the ring wraps and holds the last three.
	logEpoch(50, 0)
	logEpoch(37, 10)
	logEpoch(0, 20)
	logEpoch(64, 30)
	if w.Epochs() != 3 || w.JobCount() != 101 {
		t.Fatalf("window holds %d epochs / %d jobs, want 3 / 101", w.Epochs(), w.JobCount())
	}
	for _, seed := range []int64{1, 2, 3} {
		for _, rho := range []float64{0.1, 0.45, 0.9} {
			got, ok := w.Jobs(500, rho, rand.New(rand.NewSource(seed)))
			if !ok {
				t.Fatal("bootstrap failed")
			}
			want := jobsFlatReference(w, 500, rho, rand.New(rand.NewSource(seed)))
			for i := range want {
				if math.Float64bits(got[i].Arrival) != math.Float64bits(want[i].Arrival) ||
					math.Float64bits(got[i].Size) != math.Float64bits(want[i].Size) {
					t.Fatalf("seed %d rho %g job %d: %+v, flat reference %+v", seed, rho, i, got[i], want[i])
				}
			}
		}
	}
	if allocs := testing.AllocsPerRun(5, func() { w.Jobs(500, 0.45, rng) }); allocs != 1 {
		t.Errorf("Jobs allocates %.0f times per call, want 1 (the returned slice)", allocs)
	}
}

// TestPushJobsMatchesPush: the ring-buffered streaming form must log
// exactly what Push(FromJobs(...)) logs.
func TestPushJobsMatchesPush(t *testing.T) {
	jobs := []queue.Job{
		{Arrival: 12, Size: 0.1},
		{Arrival: 15, Size: 0.2},
		{Arrival: 15.5, Size: 0.3},
	}
	a, _ := NewWindow(2)
	b, _ := NewWindow(2)
	a.Push(FromJobs(jobs, 10))
	b.PushJobs(jobs, 10)
	ag, as, aok := a.Means()
	bg, bs, bok := b.Means()
	if aok != bok || ag != bg || as != bs {
		t.Fatalf("PushJobs diverges from Push: (%v %v %v) vs (%v %v %v)", bg, bs, bok, ag, as, aok)
	}
	if a.JobCount() != b.JobCount() {
		t.Fatalf("job counts diverge: %d vs %d", a.JobCount(), b.JobCount())
	}
}

// TestWindowRingEviction exercises wrap-around: after pushing far more
// epochs than capacity, the window must hold exactly the most recent ones.
func TestWindowRingEviction(t *testing.T) {
	w, _ := NewWindow(3)
	for i := 1; i <= 10; i++ {
		w.Push(Epoch{Gaps: []float64{float64(i)}, Sizes: []float64{float64(i)}})
	}
	if w.Epochs() != 3 {
		t.Fatalf("epochs = %d, want 3", w.Epochs())
	}
	g, s, ok := w.Means()
	if !ok || g != 9 || s != 9 { // epochs 8, 9, 10
		t.Fatalf("means = %v,%v,%v, want 9,9 over the last three epochs", g, s, ok)
	}
}

// TestWindowPushedSurvivesRestore pins what RestoreWindow carries over
// from a window that evicted epochs, pushed through Push and PushJobs alike
// and empty epochs included: the same held epochs, oldest first.
func TestWindowPushedSurvivesRestore(t *testing.T) {
	w, err := NewWindow(2) // smaller than the number of epochs pushed
	if err != nil {
		t.Fatal(err)
	}
	w.PushJobs([]queue.Job{{Arrival: 1, Size: 0.5}, {Arrival: 2.5, Size: 0.25}}, 0)
	w.Push(Epoch{}) // empty epoch: held, no jobs
	w.PushJobs([]queue.Job{{Arrival: 20.125, Size: 1}, {Arrival: 21, Size: 2}}, 20)
	w.Push(FromJobs([]queue.Job{{Arrival: 31, Size: 0.125}}, 30))
	if w.Epochs() != 2 {
		t.Fatalf("ring holds %d epochs, want capacity 2", w.Epochs())
	}
	st := w.State()

	r, err := RestoreWindow(st)
	if err != nil {
		t.Fatal(err)
	}
	got := r.State()
	if !reflect.DeepEqual(got.Epochs, st.Epochs) {
		t.Fatalf("restored state %+v, want %+v", got, st)
	}
}

// TestPushCopiesCallerSlices: the ring owns its buffers, so mutating the
// caller's slices after Push must not corrupt the log.
func TestPushCopiesCallerSlices(t *testing.T) {
	w, _ := NewWindow(2)
	gaps := []float64{1, 3}
	sizes := []float64{0.25, 0.75}
	w.Push(Epoch{Gaps: gaps, Sizes: sizes})
	gaps[0], sizes[0] = 1e9, 1e9
	if got := w.Utilization(); math.Abs(got-0.25) > 1e-12 {
		t.Errorf("utilization after caller mutation = %v, want 0.25", got)
	}
}

// TestPushJobsZeroAllocSteadyState pins the PR's allocation fix: once the
// ring buffers have grown to the largest epoch seen, per-epoch logging
// allocates nothing (FromJobs allocated two slices per epoch).
func TestPushJobsZeroAllocSteadyState(t *testing.T) {
	w, _ := NewWindow(3)
	jobs := make([]queue.Job, 500)
	for i := range jobs {
		jobs[i] = queue.Job{Arrival: float64(i), Size: 0.1}
	}
	for i := 0; i < 4; i++ { // warm every ring slot past capacity
		w.PushJobs(jobs, 0)
	}
	avg := testing.AllocsPerRun(5, func() { w.PushJobs(jobs, 0) })
	if avg != 0 {
		t.Errorf("steady-state PushJobs allocates %.1f/run, want 0", avg)
	}
}

// TestWindowViewAliasesRing pins View against State: the same contents,
// oldest first, but aliasing the ring — a later push shows through it — and
// a view refreshed into the previous view's storage allocates nothing.
func TestWindowViewAliasesRing(t *testing.T) {
	w, _ := NewWindow(2)
	w.PushJobs([]queue.Job{{Arrival: 1, Size: 0.5}, {Arrival: 2.5, Size: 0.25}}, 0)
	w.PushJobs([]queue.Job{{Arrival: 11, Size: 1}}, 10)
	w.Push(Epoch{Gaps: []float64{4}, Sizes: []float64{0.125}})
	v := w.View(nil)
	if st := w.State(); !reflect.DeepEqual(v, st) {
		t.Fatalf("view %+v, want the state %+v", v, st)
	}
	w.PushJobs([]queue.Job{{Arrival: 33, Size: 3}}, 30) // recycles v.Epochs[0]'s buffers
	if v.Epochs[0].Gaps[0] != 3 || v.Epochs[0].Sizes[0] != 3 {
		t.Fatalf("view epoch 0 = %+v, want the recycled buffers {[3] [3]}", v.Epochs[0])
	}
	if avg := testing.AllocsPerRun(5, func() { v = w.View(v.Epochs) }); avg != 0 {
		t.Errorf("View into the previous view's storage allocates %.1f/run, want 0", avg)
	}
}
