package multicore

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"sleepscale/internal/queue"
)

func approx(t *testing.T, name string, got, want, tol float64) {
	t.Helper()
	if math.Abs(got-want) > tol*math.Max(1e-12, math.Abs(want)) {
		t.Errorf("%s = %v, want %v (tol %v)", name, got, want, tol)
	}
}

// xeonQuad is a 4-core Xeon-like chip: per-core 32.5 W active (130/4),
// per-core C6 at 3.75 W entered immediately with a 1 ms wake; platform
// 120/60.5/13.1 W with a 1 s revival after 2 s of chip-wide idleness.
func xeonQuad(cores int) Config {
	return Config{
		Cores:          cores,
		Frequency:      1,
		FreqExponent:   1,
		CPUActivePower: 32.5,
		CoreSleep: []Phase{
			{Name: "C6", Power: 3.75, WakeLatency: 1e-3, EnterAfter: 0},
		},
		PlatformActivePower: 120,
		PlatformIdlePower:   60.5,
		PlatformSleepPower:  13.1,
		PlatformSleepAfter:  2,
		PlatformWakeLatency: 1,
	}
}

func expJobs(n int, lambda, mu float64, seed int64) []queue.Job {
	rng := rand.New(rand.NewSource(seed))
	jobs := make([]queue.Job, n)
	tnow := 0.0
	for i := range jobs {
		tnow += rng.ExpFloat64() / lambda
		jobs[i] = queue.Job{Arrival: tnow, Size: rng.ExpFloat64() / mu}
	}
	return jobs
}

func TestValidate(t *testing.T) {
	good := xeonQuad(4)
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := []func(*Config){
		func(c *Config) { c.Cores = 0 },
		func(c *Config) { c.Frequency = 0 },
		func(c *Config) { c.Frequency = 1.5 },
		func(c *Config) { c.FreqExponent = 2 },
		func(c *Config) { c.CPUActivePower = -1 },
		func(c *Config) { c.PlatformSleepAfter = -1 },
		func(c *Config) { c.CoreSleep[0].EnterAfter = -1 },
		func(c *Config) { c.CoreSleep = append(c.CoreSleep, Phase{EnterAfter: -5}) },
	}
	for i, mutate := range bad {
		cfg := xeonQuad(4)
		mutate(&cfg)
		if err := cfg.Validate(); err == nil {
			t.Errorf("case %d: invalid config accepted", i)
		}
	}
}

// TestHandComputedTwoCores walks a deterministic two-core schedule.
func TestHandComputedTwoCores(t *testing.T) {
	cfg := Config{
		Cores: 2, Frequency: 1, FreqExponent: 1,
		CPUActivePower:      10,
		CoreSleep:           []Phase{{Name: "sleep", Power: 1, WakeLatency: 0, EnterAfter: 0}},
		PlatformActivePower: 100,
		PlatformIdlePower:   50,
		PlatformSleepPower:  5,
		PlatformSleepAfter:  4,
		PlatformWakeLatency: 0,
	}
	jobs := []queue.Job{
		{Arrival: 0, Size: 2}, // core A serves [0,2)
		{Arrival: 1, Size: 2}, // core B serves [1,3)
		{Arrival: 9, Size: 1}, // chip idle [3,9): idle 4 s then sleep 2 s
	}
	res, err := Simulate(jobs, cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Platform: active over the union [0,3) and [9,10) = 4 s; idle [3,7) =
	// 4 s; sleep [7,9) = 2 s.
	approx(t, "platform active", res.PlatformResidency["active"], 4, 1e-12)
	approx(t, "platform idle", res.PlatformResidency["idle"], 4, 1e-12)
	approx(t, "platform sleep", res.PlatformResidency["sleep"], 2, 1e-12)
	wantPlat := 4*100.0 + 4*50 + 2*5
	approx(t, "platform energy", res.PlatformEnergy, wantPlat, 1e-12)
	// Cores: A busy [0,2) and [9,10) → 3 s busy, idle [2,9) at 1 W;
	// B busy [1,3) → 2 s busy, idle [0,1) and [3,10) at 1 W.
	wantCPU := 5*10.0 + (7+8)*1
	approx(t, "cpu energy", res.CPUEnergy, wantCPU, 1e-12)
	approx(t, "total energy", res.Energy, wantPlat+wantCPU, 1e-12)
	approx(t, "duration", res.Duration, 10, 1e-12)
	// Responses: 2, 2, 1.
	approx(t, "mean response", res.MeanResponse, 5.0/3, 1e-12)
	if res.Jobs != 3 {
		t.Errorf("jobs = %d", res.Jobs)
	}
}

// TestSingleCoreMatchesEngine: with k=1 the multicore simulator must agree
// exactly with queue.Engine under the equivalent merged configuration.
func TestSingleCoreMatchesEngine(t *testing.T) {
	mc := Config{
		Cores: 1, Frequency: 0.8, FreqExponent: 1,
		CPUActivePower:      130 * 0.512,
		CoreSleep:           []Phase{{Name: "C6", Power: 15, WakeLatency: 1e-3, EnterAfter: 0}},
		PlatformActivePower: 120,
		PlatformIdlePower:   60.5,
		PlatformSleepPower:  13.1,
		PlatformSleepAfter:  2,
		PlatformWakeLatency: 1,
	}
	merged := queue.Config{
		Frequency: 0.8, FreqExponent: 1,
		ActivePower: 130*0.512 + 120,
		IdlePower:   130*0.512 + 120,
		Phases: []queue.SleepPhase{
			{Name: "C6S0(i)", Power: 15 + 60.5, WakeLatency: 1e-3, EnterAfter: 0},
			{Name: "C6S3", Power: 15 + 13.1, WakeLatency: 1, EnterAfter: 2},
		},
	}
	jobs := expJobs(30000, 0.5155, 5.155, 3)
	got, err := Simulate(jobs, mc)
	if err != nil {
		t.Fatal(err)
	}
	want, err := queue.Simulate(jobs, merged)
	if err != nil {
		t.Fatal(err)
	}
	approx(t, "mean response", got.MeanResponse, want.MeanResponse, 1e-9)
	approx(t, "energy", got.Energy, want.Energy, 1e-9)
	approx(t, "duration", got.Duration, want.Duration, 1e-9)
}

// TestMMkMeanResponseAgainstErlangC validates the simulator's queueing core
// against the textbook M/M/k formula (no sleep states, no wake).
func TestMMkMeanResponseAgainstErlangC(t *testing.T) {
	if testing.Short() {
		t.Skip("long validation")
	}
	const (
		k      = 4
		mu     = 5.0
		lambda = 14.0 // a = 2.8, per-core ρ = 0.7
	)
	cfg := Config{
		Cores: k, Frequency: 1, FreqExponent: 1,
		CPUActivePower:      10,
		PlatformActivePower: 10, PlatformIdlePower: 5, PlatformSleepPower: 1,
		PlatformSleepAfter: math.Inf(1),
	}
	jobs := expJobs(400000, lambda, mu, 9)
	res, err := Simulate(jobs, cfg)
	if err != nil {
		t.Fatal(err)
	}
	want, err := MMkMeanResponse(k, lambda, mu)
	if err != nil {
		t.Fatal(err)
	}
	approx(t, "M/M/4 E[R]", res.MeanResponse, want, 0.03)
}

func TestErlangCKnownValues(t *testing.T) {
	// M/M/1 reduces to C = a (probability of delay = ρ).
	c, err := ErlangC(1, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	approx(t, "ErlangC(1,0.5)", c, 0.5, 1e-12)
	// M/M/2 with a = 1: C = (1²/2!)(2/(2−1)) / (1 + 1 + that) = 1/3.
	c, err = ErlangC(2, 1)
	if err != nil {
		t.Fatal(err)
	}
	approx(t, "ErlangC(2,1)", c, 1.0/3, 1e-12)
	for _, bad := range []struct {
		k int
		a float64
	}{{0, 0.5}, {2, 0}, {2, 2}, {2, 3}} {
		if _, err := ErlangC(bad.k, bad.a); err == nil {
			t.Errorf("ErlangC(%d, %v) accepted", bad.k, bad.a)
		}
	}
}

// TestPlatformGating: one long-running job on one core must pin the
// platform in its active state even while other cores sleep.
func TestPlatformGating(t *testing.T) {
	cfg := xeonQuad(4)
	jobs := []queue.Job{{Arrival: 0, Size: 100}}
	res, err := Simulate(jobs, cfg)
	if err != nil {
		t.Fatal(err)
	}
	approx(t, "platform active", res.PlatformResidency["active"], 100, 1e-9)
	if res.PlatformResidency["idle"] != 0 || res.PlatformResidency["sleep"] != 0 {
		t.Errorf("platform slept under a busy core: %+v", res.PlatformResidency)
	}
	// Three idle cores slept at 3.75 W while one served at 32.5 W.
	wantCPU := 100*32.5 + 3*100*3.75
	approx(t, "cpu energy", res.CPUEnergy, wantCPU, 1e-9)
}

// TestPlatformWakeLatencyApplied: a job arriving to a fully sleeping chip
// pays the platform revival latency.
func TestPlatformWakeLatencyApplied(t *testing.T) {
	cfg := xeonQuad(2)
	sim := new(Simulator)
	if err := sim.Reset(cfg, 0); err != nil {
		t.Fatal(err)
	}
	// First job wakes the chip from its initial all-idle state; arrival at
	// t=5 exceeds PlatformSleepAfter=2, so the platform is asleep. The
	// core's own 1 ms wake is dominated by the 1 s platform revival.
	resp, err := sim.Process(queue.Job{Arrival: 5, Size: 1})
	if err != nil {
		t.Fatal(err)
	}
	approx(t, "response", resp, 1+1, 1e-12) // 1 s wake + 1 s service
	// A job arriving during activity pays no platform wake.
	resp, err = sim.Process(queue.Job{Arrival: 6.5, Size: 1})
	if err != nil {
		t.Fatal(err)
	}
	approx(t, "second response", resp, 1+1e-3, 1e-9) // core wake only
}

// TestShallowestCoreReuse: among several idle cores, the most recently
// idled one (shallowest sleep) serves the next arrival.
func TestShallowestCoreReuse(t *testing.T) {
	cfg := Config{
		Cores: 2, Frequency: 1, FreqExponent: 1,
		CPUActivePower: 10,
		CoreSleep: []Phase{
			{Name: "shallow", Power: 5, WakeLatency: 0.01, EnterAfter: 0},
			{Name: "deep", Power: 1, WakeLatency: 1, EnterAfter: 3},
		},
		PlatformActivePower: 1, PlatformIdlePower: 1, PlatformSleepPower: 1,
		PlatformSleepAfter: math.Inf(1),
	}
	sim := new(Simulator)
	if err := sim.Reset(cfg, 0); err != nil {
		t.Fatal(err)
	}
	// Core A serves [0,1); core B serves [1,2); both idle afterwards.
	if _, err := sim.Process(queue.Job{Arrival: 0, Size: 1}); err != nil {
		t.Fatal(err)
	}
	if _, err := sim.Process(queue.Job{Arrival: 1, Size: 1}); err != nil {
		t.Fatal(err)
	}
	// At t=4.5: A idle 3.5 s (deep, wake 1 s), B idle 2.5 s (shallow,
	// wake 10 ms). The shallow core must serve.
	resp, err := sim.Process(queue.Job{Arrival: 4.5, Size: 1})
	if err != nil {
		t.Fatal(err)
	}
	approx(t, "response", resp, 1+0.01, 1e-9)
}

// TestMoreCoresImproveResponseAndSleepSharedPlatform: scale-out inside the
// chip — with the aggregate load fixed, more cores cut response, while the
// shared platform keeps total power from scaling with k.
func TestMoreCoresImproveResponseAndSleepSharedPlatform(t *testing.T) {
	if testing.Short() {
		t.Skip("long comparison")
	}
	const (
		mu     = 5.0
		lambda = 3.5
	)
	jobs := expJobs(60000, lambda, mu, 11)
	r1, err := Simulate(jobs, xeonQuad(1))
	if err != nil {
		t.Fatal(err)
	}
	r4, err := Simulate(jobs, xeonQuad(4))
	if err != nil {
		t.Fatal(err)
	}
	if r4.MeanResponse >= r1.MeanResponse {
		t.Errorf("4 cores response %v not below 1 core %v", r4.MeanResponse, r1.MeanResponse)
	}
	// Per-core CPU power is 32.5 W max and sleeping cores draw 3.75 W, so
	// quadrupling cores must cost well under 4× the single-core chip.
	if r4.AvgPower > r1.AvgPower*1.6 {
		t.Errorf("4-core power %v vs 1-core %v — idle cores not sleeping", r4.AvgPower, r1.AvgPower)
	}
}

func TestOutOfOrderRejected(t *testing.T) {
	sim := new(Simulator)
	if err := sim.Reset(xeonQuad(2), 0); err != nil {
		t.Fatal(err)
	}
	if _, err := sim.Process(queue.Job{Arrival: 5, Size: 1}); err != nil {
		t.Fatal(err)
	}
	if _, err := sim.Process(queue.Job{Arrival: 4, Size: 1}); err == nil {
		t.Error("out-of-order accepted")
	}
	if _, err := sim.Process(queue.Job{Arrival: 6, Size: -1}); err == nil {
		t.Error("negative size accepted")
	}
}

// Property: conservation — CPU busy time per core never exceeds duration,
// platform residency partitions duration, and energy is within physical
// bounds.
func TestConservationProperty(t *testing.T) {
	f := func(seed int64, kRaw uint8) bool {
		k := int(kRaw)%4 + 1
		cfg := xeonQuad(k)
		rng := rand.New(rand.NewSource(seed))
		jobs := make([]queue.Job, 300)
		tnow := 0.0
		for i := range jobs {
			tnow += rng.ExpFloat64() * 0.3
			jobs[i] = queue.Job{Arrival: tnow, Size: rng.ExpFloat64() * 0.4}
		}
		res, err := Simulate(jobs, cfg)
		if err != nil {
			return false
		}
		var resid float64
		for _, v := range res.PlatformResidency {
			resid += v
		}
		if math.Abs(resid-res.Duration) > 1e-6*res.Duration {
			return false
		}
		for _, busy := range res.CoreBusy {
			if busy > res.Duration+1e-9 {
				return false
			}
		}
		maxP := float64(k)*cfg.CPUActivePower + cfg.PlatformActivePower
		minP := float64(k)*cfg.CoreSleep[0].Power + cfg.PlatformSleepPower
		return res.Energy >= minP*res.Duration-1e-6 &&
			res.Energy <= maxP*res.Duration+1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestEmptyStream(t *testing.T) {
	res, err := Simulate(nil, xeonQuad(2))
	if err != nil {
		t.Fatal(err)
	}
	if res.Jobs != 0 || res.Energy != 0 {
		t.Errorf("empty stream result: %+v", res)
	}
}

// TestResetMatchesFresh pins Simulator.Reset: a dirtied then Reset simulator
// must reproduce a fresh one's result bit-for-bit, including shrinking and
// growing the core count.
func TestResetMatchesFresh(t *testing.T) {
	jobs := expJobs(5000, 10, 5, 8)
	for _, cores := range []int{1, 4, 2} {
		cfg := xeonQuad(cores)
		want, err := Simulate(jobs, cfg)
		if err != nil {
			t.Fatal(err)
		}
		sim := new(Simulator) // dirty with a different shape first
		if err := sim.Reset(xeonQuad(8), 0); err != nil {
			t.Fatal(err)
		}
		for _, j := range jobs[:500] {
			if _, err := sim.Process(j); err != nil {
				t.Fatal(err)
			}
		}
		if err := sim.Reset(cfg, 0); err != nil {
			t.Fatal(err)
		}
		for i, j := range jobs {
			if _, err := sim.Process(j); err != nil {
				t.Fatalf("job %d: %v", i, err)
			}
		}
		last := 0.0
		for i := 0; i < cores; i++ {
			if ft := sim.cores[i].freeAt; ft > last {
				last = ft
			}
		}
		got, err := sim.Finish(last)
		if err != nil {
			t.Fatal(err)
		}
		if got.Jobs != want.Jobs || got.Energy != want.Energy ||
			got.MeanResponse != want.MeanResponse || got.ResponseP95 != want.ResponseP95 ||
			got.CPUEnergy != want.CPUEnergy || got.PlatformEnergy != want.PlatformEnergy ||
			got.Duration != want.Duration {
			t.Fatalf("cores=%d: reset diverges from fresh:\n got %+v\nwant %+v", cores, got, want)
		}
		for k, v := range want.PlatformResidency {
			if got.PlatformResidency[k] != v {
				t.Errorf("cores=%d: residency[%s] = %v, want %v", cores, k, got.PlatformResidency[k], v)
			}
		}
	}
}

// TestSimulatePoolReuseDeterministic: repeated Simulate calls (which recycle
// pooled simulators) must be identical, and results must not alias pooled
// state.
func TestSimulatePoolReuseDeterministic(t *testing.T) {
	jobs := expJobs(3000, 12, 5, 9)
	cfg := xeonQuad(4)
	first, err := Simulate(jobs, cfg)
	if err != nil {
		t.Fatal(err)
	}
	firstBusy := append([]float64(nil), first.CoreBusy...)
	for i := 0; i < 5; i++ {
		again, err := Simulate(jobs, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if again.Energy != first.Energy || again.MeanResponse != first.MeanResponse ||
			again.Jobs != first.Jobs {
			t.Fatalf("run %d diverges: %+v vs %+v", i, again, first)
		}
	}
	// The first result must be untouched by later pooled runs.
	for i, v := range first.CoreBusy {
		if v != firstBusy[i] {
			t.Fatalf("CoreBusy mutated by pooled reuse")
		}
	}
}
