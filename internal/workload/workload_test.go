package workload

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"sleepscale/internal/metrics"
	"sleepscale/internal/queue"
)

func approx(t *testing.T, name string, got, want, tol float64) {
	t.Helper()
	if math.Abs(got-want) > tol*math.Max(1e-12, math.Abs(want)) {
		t.Errorf("%s = %v, want %v (rel tol %v)", name, got, want, tol)
	}
}

// TestTable5Numbers pins the published summary statistics.
func TestTable5Numbers(t *testing.T) {
	specs := Table5()
	if len(specs) != 3 {
		t.Fatalf("Table5 has %d entries, want 3", len(specs))
	}
	cases := []struct {
		spec Spec
		ia   float64
		iacv float64
		sv   float64
		svcv float64
	}{
		{DNS(), 1.1, 1.1, 194e-3, 1.0},
		{Mail(), 206e-3, 1.9, 92e-3, 3.6},
		{Google(), 319e-6, 1.2, 4.2e-3, 1.1},
	}
	for _, c := range cases {
		if c.spec.InterArrivalMean != c.ia || c.spec.InterArrivalCV != c.iacv ||
			c.spec.ServiceMean != c.sv || c.spec.ServiceCV != c.svcv {
			t.Errorf("%s numbers drifted from Table 5: %+v", c.spec.Name, c.spec)
		}
		if err := c.spec.Validate(); err != nil {
			t.Errorf("%s: %v", c.spec.Name, err)
		}
	}
}

func TestNativeUtilization(t *testing.T) {
	// DNS: 0.194/1.1 ≈ 0.176 — a lightly loaded service.
	approx(t, "DNS native ρ", DNS().NativeUtilization(), 0.194/1.1, 1e-12)
	// Google: 4.2ms/319µs > 1 — the paper's traces are per-cluster and get
	// rescaled to the studied utilization, so >1 native is expected here.
	if g := Google().NativeUtilization(); g <= 1 {
		t.Errorf("Google native utilization = %v, expected > 1 pre-rescale", g)
	}
}

func TestWithUtilization(t *testing.T) {
	s, err := DNS().WithUtilization(0.5)
	if err != nil {
		t.Fatal(err)
	}
	approx(t, "rescaled ρ", s.NativeUtilization(), 0.5, 1e-12)
	approx(t, "service mean unchanged", s.ServiceMean, 194e-3, 1e-12)
	if s.InterArrivalCV != DNS().InterArrivalCV {
		t.Error("inter-arrival Cv must be preserved")
	}
	for _, bad := range []float64{0, 1, -0.3, 1.5} {
		if _, err := DNS().WithUtilization(bad); err == nil {
			t.Errorf("utilization %v accepted", bad)
		}
	}
}

func TestValidateRejectsBadSpecs(t *testing.T) {
	bad := []Spec{
		{Name: "x", InterArrivalMean: 0, ServiceMean: 1},
		{Name: "x", InterArrivalMean: 1, ServiceMean: -1},
		{Name: "x", InterArrivalMean: 1, ServiceMean: 1, InterArrivalCV: -1},
		{Name: "x", InterArrivalMean: 1, ServiceMean: 1, FreqExponent: 2},
	}
	for i, s := range bad {
		if err := s.Validate(); err == nil {
			t.Errorf("case %d accepted: %+v", i, s)
		}
	}
}

func TestIdealizedStatsMoments(t *testing.T) {
	st, err := NewIdealizedStats(DNS())
	if err != nil {
		t.Fatal(err)
	}
	approx(t, "inter mean", st.Inter.Mean(), 1.1, 1e-12)
	approx(t, "size mean", st.Size.Mean(), 194e-3, 1e-12)
	if st.Inter.CV() != 1 || st.Size.CV() != 1 {
		t.Error("idealized stats must be exponential (Cv 1)")
	}
	approx(t, "utilization", st.Utilization(), DNS().NativeUtilization(), 1e-12)
}

func TestFittedStatsMoments(t *testing.T) {
	st, err := NewFittedStats(Mail())
	if err != nil {
		t.Fatal(err)
	}
	approx(t, "inter mean", st.Inter.Mean(), 206e-3, 1e-9)
	approx(t, "inter cv", st.Inter.CV(), 1.9, 1e-9)
	approx(t, "size mean", st.Size.Mean(), 92e-3, 1e-9)
	approx(t, "size cv", st.Size.CV(), 3.6, 1e-9)
}

func TestEmpiricalStatsMoments(t *testing.T) {
	st, err := NewEmpiricalStats(Google(), 40000, 1)
	if err != nil {
		t.Fatal(err)
	}
	// Empirical moments come from finite heavy-tailed samples: allow slack.
	approx(t, "inter mean", st.Inter.Mean(), 319e-6, 0.05)
	approx(t, "size mean", st.Size.Mean(), 4.2e-3, 0.05)
	if st.Size.CV() < 0.8 {
		t.Errorf("empirical size cv = %v, want ≳ published 1.1", st.Size.CV())
	}
	// Determinism in seed.
	st2, err := NewEmpiricalStats(Google(), 40000, 1)
	if err != nil {
		t.Fatal(err)
	}
	if st.Inter.Mean() != st2.Inter.Mean() || st.Size.Mean() != st2.Size.Mean() {
		t.Error("empirical stats not deterministic in seed")
	}
	if _, err := NewEmpiricalStats(Google(), 1, 1); err == nil {
		t.Error("n=1 accepted")
	}
}

func TestAtUtilization(t *testing.T) {
	st, err := NewIdealizedStats(DNS())
	if err != nil {
		t.Fatal(err)
	}
	for _, rho := range []float64{0.1, 0.4, 0.9} {
		scaled, err := st.AtUtilization(rho)
		if err != nil {
			t.Fatal(err)
		}
		approx(t, "ρ", scaled.Utilization(), rho, 1e-12)
		approx(t, "size mean unchanged", scaled.Size.Mean(), 194e-3, 1e-12)
		if scaled.Inter.CV() != st.Inter.CV() {
			t.Error("scaling must preserve Cv")
		}
	}
	if _, err := st.AtUtilization(0); err == nil {
		t.Error("ρ=0 accepted")
	}
	if _, err := st.AtUtilization(1); err == nil {
		t.Error("ρ=1 accepted")
	}
}

func TestJobsStream(t *testing.T) {
	st, err := NewIdealizedStats(DNS())
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(9))
	jobs := st.Jobs(20000, rng)
	if len(jobs) != 20000 {
		t.Fatalf("len = %d", len(jobs))
	}
	var ia, sz metrics.Stream
	prev := 0.0
	for _, j := range jobs {
		if j.Arrival <= prev {
			t.Fatal("arrivals must be strictly increasing for continuous dists")
		}
		ia.Add(j.Arrival - prev)
		sz.Add(j.Size)
		prev = j.Arrival
	}
	approx(t, "empirical inter mean", ia.Mean(), 1.1, 0.03)
	approx(t, "empirical size mean", sz.Mean(), 194e-3, 0.03)
}

// Property: rescaling to any valid utilization then measuring a generated
// stream reproduces that utilization (λ·E[S] within sampling noise).
func TestAtUtilizationRoundTripProperty(t *testing.T) {
	st, err := NewIdealizedStats(Google())
	if err != nil {
		t.Fatal(err)
	}
	f := func(seed int64, rs uint8) bool {
		rho := 0.05 + float64(rs)/255*0.9
		scaled, err := st.AtUtilization(rho)
		if err != nil {
			return false
		}
		rng := rand.New(rand.NewSource(seed))
		jobs := scaled.Jobs(4000, rng)
		var work float64
		for _, j := range jobs {
			work += j.Size
		}
		span := jobs[len(jobs)-1].Arrival
		measured := work / span
		return math.Abs(measured-rho)/rho < 0.15
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestTraceJobsFollowsUtilization(t *testing.T) {
	st, err := NewIdealizedStats(DNS())
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(4))
	// 3 slots: busy, idle, busy — with a long slot so per-slot load is tight.
	slot := 600.0
	util := []float64{0.6, 0, 0.2}
	jobs := st.TraceJobs(util, slot, rng)
	if len(jobs) == 0 {
		t.Fatal("no jobs generated")
	}
	var work [3]float64
	for _, j := range jobs {
		m := int(j.Arrival / slot)
		if m < 0 || m >= 3 {
			t.Fatalf("arrival %v outside horizon", j.Arrival)
		}
		work[m] += j.Size
	}
	approx(t, "slot 0 load", work[0]/slot, 0.6, 0.12)
	if work[1] != 0 {
		t.Errorf("idle slot received %v seconds of work", work[1])
	}
	approx(t, "slot 2 load", work[2]/slot, 0.2, 0.2)
	// Arrivals sorted.
	for i := 1; i < len(jobs); i++ {
		if jobs[i].Arrival < jobs[i-1].Arrival {
			t.Fatal("trace jobs not sorted")
		}
	}
}

func TestTraceJobsEmptyTrace(t *testing.T) {
	st, _ := NewIdealizedStats(DNS())
	rng := rand.New(rand.NewSource(1))
	if jobs := st.TraceJobs(nil, 60, rng); len(jobs) != 0 {
		t.Errorf("nil trace produced %d jobs", len(jobs))
	}
	if jobs := st.TraceJobs([]float64{0, 0, 0}, 60, rng); len(jobs) != 0 {
		t.Errorf("all-zero trace produced %d jobs", len(jobs))
	}
}

func TestStatsConstructorsRejectBadSpec(t *testing.T) {
	bad := Spec{Name: "bad", InterArrivalMean: -1, ServiceMean: 1}
	if _, err := NewIdealizedStats(bad); err == nil {
		t.Error("idealized accepted bad spec")
	}
	if _, err := NewFittedStats(bad); err == nil {
		t.Error("fitted accepted bad spec")
	}
	if _, err := NewEmpiricalStats(bad, 100, 1); err == nil {
		t.Error("empirical accepted bad spec")
	}
}

// TestTraceGenMatchesTraceJobs pins the one-generator-two-drivers
// invariant: the incremental TraceGen and the materializing TraceJobs are
// the same core, so equal seeds give bit-identical streams, regardless of
// chunk size.
func TestTraceGenMatchesTraceJobs(t *testing.T) {
	st, err := NewFittedStats(Mail())
	if err != nil {
		t.Fatal(err)
	}
	util := []float64{0.3, 0, 0.8, 0.05, 0.6, 0, 0, 0.9}
	const slot, seed = 30.0, 17
	want := st.TraceJobs(util, slot, rand.New(rand.NewSource(seed)))
	if len(want) == 0 {
		t.Fatal("empty reference stream")
	}
	for _, chunk := range []int{1, 3, 1024} {
		g, err := st.NewTraceGen(util, slot, seed)
		if err != nil {
			t.Fatal(err)
		}
		var got []queue.Job
		buf := make([]queue.Job, chunk)
		for {
			n, ok := g.Next(buf)
			got = append(got, buf[:n]...)
			if !ok {
				break
			}
		}
		if g.Err() != nil {
			t.Fatal(g.Err())
		}
		if len(got) != len(want) {
			t.Fatalf("chunk %d: %d jobs, want %d", chunk, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("chunk %d job %d: %+v != %+v", chunk, i, got[i], want[i])
			}
		}
	}
}

// TestTraceGenReset pins Reset determinism: the same seed replays the same
// stream, a different seed a different one.
func TestTraceGenReset(t *testing.T) {
	st, err := NewIdealizedStats(DNS())
	if err != nil {
		t.Fatal(err)
	}
	util := []float64{0.4, 0.7, 0.2}
	g, err := st.NewTraceGen(util, 60, 5)
	if err != nil {
		t.Fatal(err)
	}
	drain := func() []queue.Job {
		var out []queue.Job
		buf := make([]queue.Job, 8)
		for {
			n, ok := g.Next(buf)
			out = append(out, buf[:n]...)
			if !ok {
				return out
			}
		}
	}
	first := drain()
	g.Reset(5)
	second := drain()
	if len(first) != len(second) {
		t.Fatalf("replay length %d != %d", len(second), len(first))
	}
	for i := range first {
		if first[i] != second[i] {
			t.Fatalf("replay job %d: %+v != %+v", i, second[i], first[i])
		}
	}
	g.Reset(6)
	third := drain()
	same := len(third) == len(first)
	if same {
		for i := range third {
			if third[i] != first[i] {
				same = false
				break
			}
		}
	}
	if same && len(first) > 0 {
		t.Error("different seeds produced identical streams")
	}
}

// errFeed fails after two good slots.
type errFeed struct{ n int }

func (f *errFeed) NextSlot() (float64, bool, error) {
	f.n++
	if f.n > 2 {
		return 0, false, fmt.Errorf("synthetic feed failure")
	}
	return 0.5, true, nil
}
func (f *errFeed) ResetSlots() error { f.n = 0; return nil }

func TestTraceGenFeedErrorSurfaces(t *testing.T) {
	st, err := NewIdealizedStats(DNS())
	if err != nil {
		t.Fatal(err)
	}
	g, err := st.NewTraceGenFeed(&errFeed{}, 60, 1)
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]queue.Job, 16)
	for {
		if _, ok := g.Next(buf); !ok {
			break
		}
	}
	if g.Err() == nil {
		t.Fatal("feed error not surfaced")
	}
	// Reset clears the error and replays the good prefix.
	g.Reset(1)
	if g.Err() != nil {
		t.Fatalf("error survived reset: %v", g.Err())
	}
}

func TestNewTraceGenValidation(t *testing.T) {
	st, err := NewIdealizedStats(DNS())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := st.NewTraceGen(nil, 0, 1); err == nil {
		t.Error("zero slot length accepted")
	}
	if _, err := st.NewTraceGenFeed(nil, 60, 1); err == nil {
		t.Error("nil feed accepted")
	}
}

// TestByName pins the name lookup the commands share: every Table 5
// workload under any letter case, and an error for anything else.
func TestByName(t *testing.T) {
	for _, want := range Table5() {
		for _, name := range []string{want.Name, strings.ToLower(want.Name), strings.ToUpper(want.Name)} {
			got, err := ByName(name)
			if err != nil || got != want {
				t.Errorf("ByName(%q) = %+v, %v; want %+v", name, got, err, want)
			}
		}
	}
	if _, err := ByName("dnsx"); err == nil {
		t.Error("unknown workload accepted")
	}
}
