package analytic

import (
	"errors"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"sleepscale/internal/queue"
)

func approx(t *testing.T, name string, got, want, tol float64) {
	t.Helper()
	if math.Abs(got-want) > tol*math.Max(1e-12, math.Abs(want)) {
		t.Errorf("%s = %v, want %v (rel tol %v)", name, got, want, tol)
	}
}

func TestValidate(t *testing.T) {
	good := Model{Lambda: 1, Mu: 10, F: 0.5, ActivePower: 100}
	if err := good.Validate(); err != nil {
		t.Fatalf("valid model rejected: %v", err)
	}
	bad := []Model{
		{Lambda: 0, Mu: 1, F: 1},
		{Lambda: 1, Mu: 0, F: 1},
		{Lambda: 1, Mu: 10, F: 0},
		{Lambda: 1, Mu: 10, F: 1.5},
		{Lambda: 5, Mu: 10, F: 0.5}, // λ = µf: unstable
		{Lambda: 1, Mu: 10, F: 1, States: []SleepState{{Enter: -1}}},
		{Lambda: 1, Mu: 10, F: 1, States: []SleepState{{Enter: 2}, {Enter: 1}}},
		{Lambda: 1, Mu: 10, F: 1, States: []SleepState{{Power: -1}}},
	}
	for i, m := range bad {
		if err := m.Validate(); err == nil {
			t.Errorf("case %d: invalid model accepted", i)
		}
	}
	unstable := Model{Lambda: 6, Mu: 10, F: 0.5}
	if err := unstable.Validate(); !errors.Is(err, ErrUnstable) {
		t.Errorf("want ErrUnstable, got %v", err)
	}
}

// TestMM1Limits: with no sleep states the formulas collapse to textbook
// M/M/1: E[R] = 1/(µf−λ), E[P] = P₀.
func TestMM1Limits(t *testing.T) {
	m := Model{Lambda: 2, Mu: 10, F: 0.5, ActivePower: 250}
	r, err := m.MeanResponse()
	if err != nil {
		t.Fatal(err)
	}
	approx(t, "E[R]", r, 1/(10*0.5-2), 1e-12)
	p, err := m.MeanPower()
	if err != nil {
		t.Fatal(err)
	}
	approx(t, "E[P]", p, 250, 1e-12)
}

// TestSingleStateZeroWakePower: single state, τ=0, w=0 gives the classic
// busy/idle power split E[P] = ρ_eff·P₀ + (1−ρ_eff)·P₁.
func TestSingleStateZeroWakePower(t *testing.T) {
	m := Model{
		Lambda: 2, Mu: 10, F: 0.5, ActivePower: 250,
		States: []SleepState{{Power: 135.5, Enter: 0, Wake: 0}},
	}
	p, err := m.MeanPower()
	if err != nil {
		t.Fatal(err)
	}
	rhoEff := 2.0 / 5.0
	approx(t, "E[P]", p, rhoEff*250+(1-rhoEff)*135.5, 1e-12)
	r, err := m.MeanResponse()
	if err != nil {
		t.Fatal(err)
	}
	approx(t, "E[R]", r, 1/(5.0-2.0), 1e-12)
}

// TestSetupMeanResponseKnownForm: single state, τ=0, deterministic wake w
// must give Welch's M/M/1-with-setup mean 1/(µf−λ) + (2w+λw²)/(2(1+λw)).
func TestSetupMeanResponseKnownForm(t *testing.T) {
	w := 0.3
	m := Model{
		Lambda: 1, Mu: 4, F: 1, ActivePower: 100,
		States: []SleepState{{Power: 10, Enter: 0, Wake: w}},
	}
	r, err := m.MeanResponse()
	if err != nil {
		t.Fatal(err)
	}
	want := 1/(4.0-1.0) + (2*w+1*w*w)/(2*(1+1*w))
	approx(t, "E[R]", r, want, 1e-12)
}

// simulate builds an exponential job stream and runs the queue simulator
// with the given analytic model translated to a queue.Config.
func simulate(t *testing.T, m Model, n int, seed int64) queue.Result {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	jobs := make([]queue.Job, n)
	tnow := 0.0
	for i := range jobs {
		tnow += rng.ExpFloat64() / m.Lambda
		jobs[i] = queue.Job{Arrival: tnow, Size: rng.ExpFloat64() / m.Mu}
	}
	cfg := queue.Config{
		Frequency:    m.F,
		FreqExponent: 1,
		ActivePower:  m.ActivePower,
		IdlePower:    m.ActivePower,
	}
	for i, s := range m.States {
		cfg.Phases = append(cfg.Phases, queue.SleepPhase{
			Name:        string(rune('A' + i)),
			Power:       s.Power,
			WakeLatency: s.Wake,
			EnterAfter:  s.Enter,
		})
	}
	res, err := queue.Simulate(jobs, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestAnalyticMatchesSimulationSingleState is the paper's §4.3 verification:
// closed forms and Algorithm 1 agree. Single sleep state, τ = 0.
func TestAnalyticMatchesSimulationSingleState(t *testing.T) {
	if testing.Short() {
		t.Skip("long cross-validation")
	}
	cases := []Model{
		// DNS-like at ρ=0.1 with C6S3-like numbers.
		{Lambda: 0.5155, Mu: 5.155, F: 0.42, ActivePower: 130*0.42*0.42*0.42 + 120,
			States: []SleepState{{Power: 28.1, Enter: 0, Wake: 1}}},
		// Google-like at ρ=0.3 with C0(i)S0(i)-like numbers.
		{Lambda: 71.4, Mu: 238, F: 0.5, ActivePower: 130*0.125 + 120,
			States: []SleepState{{Power: 75*0.125 + 60.5, Enter: 0, Wake: 0}}},
		// Mid utilization with C6S0(i)-like numbers.
		{Lambda: 2, Mu: 5.155, F: 0.8, ActivePower: 130*0.512 + 120,
			States: []SleepState{{Power: 75.5, Enter: 0, Wake: 1e-3}}},
	}
	for i, m := range cases {
		res := simulate(t, m, 300000, int64(i+1))
		wantR, err := m.MeanResponse()
		if err != nil {
			t.Fatal(err)
		}
		wantP, err := m.MeanPower()
		if err != nil {
			t.Fatal(err)
		}
		approx(t, "E[R]", res.MeanResponse, wantR, 0.03)
		approx(t, "E[P]", res.AvgPower, wantP, 0.03)
	}
}

// TestAnalyticMatchesSimulationMultiState covers a two-state sequence with a
// positive enter delay (the Figure 3 configuration shape).
func TestAnalyticMatchesSimulationMultiState(t *testing.T) {
	if testing.Short() {
		t.Skip("long cross-validation")
	}
	m := Model{
		Lambda: 23.8, Mu: 238, F: 0.35,
		ActivePower: 130*math.Pow(0.35, 3) + 120,
		States: []SleepState{
			{Power: 75*math.Pow(0.35, 3) + 60.5, Enter: 0, Wake: 0},
			{Power: 28.1, Enter: 30.0 / 238, Wake: 1},
		},
	}
	res := simulate(t, m, 400000, 7)
	wantR, err := m.MeanResponse()
	if err != nil {
		t.Fatal(err)
	}
	wantP, err := m.MeanPower()
	if err != nil {
		t.Fatal(err)
	}
	approx(t, "E[R]", res.MeanResponse, wantR, 0.05)
	approx(t, "E[P]", res.AvgPower, wantP, 0.03)
}

// TestAnalyticMatchesSimulationFiveStateSequence covers the full §4.2
// lesson-5 sequence C0(i)S0(i)→C1→C3→C6→C6S3 with staggered delays.
func TestAnalyticMatchesSimulationFiveStateSequence(t *testing.T) {
	if testing.Short() {
		t.Skip("long cross-validation")
	}
	f := 0.6
	m := Model{
		Lambda: 1.0, Mu: 5.155, F: f,
		ActivePower: 130*f*f*f + 120,
		States: []SleepState{
			{Power: 75*f*f*f + 60.5, Enter: 0, Wake: 0},
			{Power: 47*f*f + 60.5, Enter: 0.05, Wake: 10e-6},
			{Power: 22 + 60.5, Enter: 0.2, Wake: 100e-6},
			{Power: 15 + 60.5, Enter: 0.5, Wake: 1e-3},
			{Power: 15 + 13.1, Enter: 2.0, Wake: 1},
		},
	}
	res := simulate(t, m, 400000, 11)
	wantR, err := m.MeanResponse()
	if err != nil {
		t.Fatal(err)
	}
	wantP, err := m.MeanPower()
	if err != nil {
		t.Fatal(err)
	}
	approx(t, "E[R]", res.MeanResponse, wantR, 0.05)
	approx(t, "E[P]", res.AvgPower, wantP, 0.03)
}

func TestTailResponseBoundaryValues(t *testing.T) {
	m := Model{Lambda: 1, Mu: 4, F: 1, ActivePower: 1,
		States: []SleepState{{Power: 0, Enter: 0, Wake: 0.2}}}
	// d = 0 ⇒ Pr = 1.
	p, err := m.TailResponse(0)
	if err != nil {
		t.Fatal(err)
	}
	approx(t, "Pr(R>=0)", p, 1, 1e-12)
	// d → ∞ ⇒ Pr → 0.
	p, err = m.TailResponse(1e6)
	if err != nil {
		t.Fatal(err)
	}
	if p > 1e-12 {
		t.Errorf("Pr(R>=inf) = %v, want ~0", p)
	}
	// w₁ = 0 ⇒ M/M/1 tail e^{−(µf−λ)d}.
	m.States[0].Wake = 0
	p, err = m.TailResponse(0.5)
	if err != nil {
		t.Fatal(err)
	}
	approx(t, "M/M/1 tail", p, math.Exp(-3*0.5), 1e-12)
}

func TestTailResponseRejectsUnsupportedModels(t *testing.T) {
	two := Model{Lambda: 1, Mu: 4, F: 1,
		States: []SleepState{{Enter: 0}, {Enter: 1}}}
	if _, err := two.TailResponse(1); err == nil {
		t.Error("two-state tail accepted")
	}
	delayed := Model{Lambda: 1, Mu: 4, F: 1,
		States: []SleepState{{Enter: 0.5}}}
	if _, err := delayed.TailResponse(1); err == nil {
		t.Error("delayed-entry tail accepted")
	}
}

// TestTailResponseAgainstBespokeSimulator validates the Appendix tail
// formula with a purpose-built M/M/1 simulator whose per-busy-period setup
// times are exponential with mean w₁ (the distributional assumption under
// which the formula is exact).
func TestTailResponseAgainstBespokeSimulator(t *testing.T) {
	if testing.Short() {
		t.Skip("long cross-validation")
	}
	const (
		lambda = 1.0
		mu     = 4.0
		w1     = 0.25
		n      = 500000
	)
	rng := rand.New(rand.NewSource(3))
	var (
		tnow, freeAt float64
		resp         []float64
	)
	for i := 0; i < n; i++ {
		tnow += rng.ExpFloat64() / lambda
		svc := rng.ExpFloat64() / mu
		var start float64
		if tnow > freeAt {
			setup := rng.ExpFloat64() * w1
			start = tnow + setup
		} else {
			start = freeAt
		}
		freeAt = start + svc
		resp = append(resp, freeAt-tnow)
	}
	m := Model{Lambda: lambda, Mu: mu, F: 1, ActivePower: 1,
		States: []SleepState{{Power: 0, Enter: 0, Wake: w1}}}
	for _, d := range []float64{0.1, 0.3, 0.6, 1.0, 2.0} {
		want, err := m.TailResponse(d)
		if err != nil {
			t.Fatal(err)
		}
		var above int
		for _, r := range resp {
			if r >= d {
				above++
			}
		}
		got := float64(above) / float64(n)
		approx(t, "Pr(R>=d)", got, want, 0.05)
	}
}

func TestResponseQuantile(t *testing.T) {
	// Pure M/M/1: the p-quantile solves e^{−(µ−λ)d} = 1−p.
	m := Model{Lambda: 1, Mu: 4, F: 1, ActivePower: 1}
	q, err := m.ResponseQuantile(0.95)
	if err != nil {
		t.Fatal(err)
	}
	want := -math.Log(0.05) / 3
	approx(t, "P95", q, want, 1e-9)
	if _, err := m.ResponseQuantile(0); err == nil {
		t.Error("p=0 accepted")
	}
	if _, err := m.ResponseQuantile(1); err == nil {
		t.Error("p=1 accepted")
	}
}

func TestResponseQuantileWithWake(t *testing.T) {
	m := Model{Lambda: 1, Mu: 4, F: 1, ActivePower: 1,
		States: []SleepState{{Power: 0, Enter: 0, Wake: 0.5}}}
	q, err := m.ResponseQuantile(0.95)
	if err != nil {
		t.Fatal(err)
	}
	tail, err := m.TailResponse(q)
	if err != nil {
		t.Fatal(err)
	}
	approx(t, "tail at quantile", tail, 0.05, 1e-6)
}

// Property: Pr(R ≥ d) is a valid survival function — in [0,1] and monotone
// non-increasing in d — across random stable models.
func TestTailIsSurvivalFunctionProperty(t *testing.T) {
	f := func(ls, ws uint16) bool {
		lambda := 0.1 + float64(ls)/65535*3 // µf = 4 ⇒ stable
		w := float64(ws) / 65535 * 2
		m := Model{Lambda: lambda, Mu: 4, F: 1, ActivePower: 1,
			States: []SleepState{{Power: 0, Enter: 0, Wake: w}}}
		prev := 1.0
		for d := 0.0; d < 5; d += 0.1 {
			p, err := m.TailResponse(d)
			if err != nil || p < -1e-12 || p > 1+1e-12 || p > prev+1e-9 {
				return false
			}
			prev = p
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Property: mean response and mean power increase with deeper wake latency
// (all else equal) and E[P] is bounded by [P₁, P₀].
func TestMonotonicityProperties(t *testing.T) {
	f := func(ws uint16) bool {
		w := float64(ws) / 65535
		m := Model{Lambda: 1, Mu: 4, F: 1, ActivePower: 200,
			States: []SleepState{{Power: 20, Enter: 0, Wake: w}}}
		r, err := m.MeanResponse()
		if err != nil {
			return false
		}
		base := 1 / 3.0
		if r < base-1e-12 {
			return false
		}
		p, err := m.MeanPower()
		if err != nil {
			return false
		}
		return p >= 20-1e-9 && p <= 200+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// TestMG1MatchesSimulation: the M/G/1 extension must track the simulator
// with hyperexponential (Cv > 1) and gamma (Cv < 1) service times.
func TestMG1MatchesSimulation(t *testing.T) {
	if testing.Short() {
		t.Skip("long cross-validation")
	}
	for _, scv := range []float64{0.25, 4.0} {
		m := MG1Model{
			Model: Model{Lambda: 1.5, Mu: 5, F: 1, ActivePower: 250,
				States: []SleepState{{Power: 30, Enter: 0, Wake: 0.05}}},
			ServiceSCV: scv,
		}
		rng := rand.New(rand.NewSource(21))
		var sizeDist interface {
			Sample(*rand.Rand) float64
		}
		mean := 1 / m.Mu
		cv := math.Sqrt(scv)
		if cv > 1 {
			d, err := newH2(mean, cv)
			if err != nil {
				t.Fatal(err)
			}
			sizeDist = d
		} else {
			d := gammaDist{shape: 1 / scv, scale: mean * scv}
			sizeDist = d
		}
		n := 400000
		jobs := make([]queue.Job, n)
		tnow := 0.0
		for i := range jobs {
			tnow += rng.ExpFloat64() / m.Lambda
			jobs[i] = queue.Job{Arrival: tnow, Size: sizeDist.Sample(rng)}
		}
		cfg := queue.Config{Frequency: 1, FreqExponent: 1, ActivePower: 250, IdlePower: 250,
			Phases: []queue.SleepPhase{{Name: "s", Power: 30, WakeLatency: 0.05, EnterAfter: 0}}}
		res, err := queue.Simulate(jobs, cfg)
		if err != nil {
			t.Fatal(err)
		}
		wantR, err := m.MeanResponse()
		if err != nil {
			t.Fatal(err)
		}
		approx(t, "M/G/1 E[R]", res.MeanResponse, wantR, 0.05)
		wantP, err := m.MeanPower()
		if err != nil {
			t.Fatal(err)
		}
		approx(t, "M/G/1 E[P]", res.AvgPower, wantP, 0.03)
	}
}

// Minimal local distributions to avoid an import cycle with internal/dist
// (dist has no dependency on analytic, but keeping analytic leaf-level keeps
// the dependency graph clean).
type h2 struct{ p1, r1, r2 float64 }

func newH2(mean, cv float64) (h2, error) {
	c2 := cv * cv
	p1 := 0.5 * (1 + math.Sqrt((c2-1)/(c2+1)))
	return h2{p1: p1, r1: 2 * p1 / mean, r2: 2 * (1 - p1) / mean}, nil
}

func (h h2) Sample(rng *rand.Rand) float64 {
	if rng.Float64() < h.p1 {
		return rng.ExpFloat64() / h.r1
	}
	return rng.ExpFloat64() / h.r2
}

type gammaDist struct{ shape, scale float64 }

func (g gammaDist) Sample(rng *rand.Rand) float64 {
	// Marsaglia–Tsang; shape ≥ 1 in the cases used here.
	d := g.shape - 1.0/3.0
	c := 1 / math.Sqrt(9*d)
	for {
		x := rng.NormFloat64()
		v := 1 + c*x
		if v <= 0 {
			continue
		}
		v = v * v * v
		u := rng.Float64()
		if u < 1-0.0331*x*x*x*x || (u > 0 && math.Log(u) < 0.5*x*x+d*(1-v+math.Log(v))) {
			return d * v * g.scale
		}
	}
}

func TestMG1ReducesToMM1(t *testing.T) {
	m := MG1Model{
		Model:      Model{Lambda: 2, Mu: 10, F: 0.5, ActivePower: 1},
		ServiceSCV: 1,
	}
	r, err := m.MeanResponse()
	if err != nil {
		t.Fatal(err)
	}
	approx(t, "E[R]", r, 1/(5.0-2.0), 1e-12)
	if _, err := (MG1Model{Model: m.Model, ServiceSCV: -1}).MeanResponse(); err == nil {
		t.Error("negative SCV accepted")
	}
}

// TestResidencyFractionsAgainstSimulation cross-validates the analytic
// state-occupancy split (the quantity behind Figure 10) with the simulator's
// residency accounting on a two-state sequence.
func TestResidencyFractionsAgainstSimulation(t *testing.T) {
	if testing.Short() {
		t.Skip("long cross-validation")
	}
	m := Model{
		Lambda: 1.0, Mu: 5.155, F: 0.6,
		ActivePower: 130*0.216 + 120,
		States: []SleepState{
			{Power: 75*0.216 + 60.5, Enter: 0, Wake: 0},
			{Power: 28.1, Enter: 1.5, Wake: 1},
		},
	}
	active, pre, states, err := m.ResidencyFractions()
	if err != nil {
		t.Fatal(err)
	}
	if pre != 0 {
		t.Errorf("pre-sleep fraction = %v, want 0 for τ₁=0", pre)
	}
	total := active + pre
	for _, s := range states {
		total += s
	}
	approx(t, "fractions sum", total, 1, 1e-12)

	res := simulate(t, m, 300000, 17)
	dur := res.Duration
	approx(t, "state A fraction", res.Residency["A"]/dur, states[0], 0.03)
	approx(t, "state B fraction", res.Residency["B"]/dur, states[1], 0.03)
	simActive := (res.BusyTime + res.WakeTime) / dur
	approx(t, "active fraction", simActive, active, 0.03)
}

func TestResidencyFractionsNoSleep(t *testing.T) {
	m := Model{Lambda: 2, Mu: 10, F: 0.5, ActivePower: 1}
	active, pre, states, err := m.ResidencyFractions()
	if err != nil {
		t.Fatal(err)
	}
	if len(states) != 0 {
		t.Fatalf("states = %v", states)
	}
	approx(t, "active", active, 0.4, 1e-12)
	approx(t, "pre-sleep idle", pre, 0.6, 1e-12)
}

func TestCycleLengthKnownCase(t *testing.T) {
	// n=1, τ=0, w=0: L = µf/(λ(µf−λ)).
	m := Model{Lambda: 2, Mu: 10, F: 0.5, ActivePower: 1,
		States: []SleepState{{Power: 0, Enter: 0, Wake: 0}}}
	L, err := m.CycleLength()
	if err != nil {
		t.Fatal(err)
	}
	approx(t, "L", L, 5.0/(2*3), 1e-12)
}
