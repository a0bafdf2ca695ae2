package policy

import (
	"math"
	"testing"
	"testing/quick"

	"sleepscale/internal/power"
	"sleepscale/internal/queue"
)

func TestBreakEvenDelayFormula(t *testing.T) {
	prof := power.Xeon()
	f := 0.5
	// Shallow C0(i)S0(i): 75·0.125 + 60.5 = 69.875 W; deep C6S3: 28.1 W;
	// active: 130·0.125 + 120 = 136.25 W; wake 1 s.
	got, err := BreakEvenDelay(prof, f, power.OperatingIdle, power.DeeperSleep)
	if err != nil {
		t.Fatal(err)
	}
	want := 1.0 * 136.25 / (69.875 - 28.1)
	if math.Abs(got-want) > 1e-9 {
		t.Errorf("break-even = %v, want %v", got, want)
	}
}

func TestBreakEvenDelayRejectsNonDeeper(t *testing.T) {
	prof := power.Xeon()
	// At f=1 the C0(i)S0(i) power (135.5 W) far exceeds C6S3 (28.1 W):
	// the "deep" target must actually save power.
	if _, err := BreakEvenDelay(prof, 1, power.DeeperSleep, power.OperatingIdle); err == nil {
		t.Error("inverted pair accepted")
	}
	if _, err := BreakEvenDelay(prof, 0, power.OperatingIdle, power.DeeperSleep); err == nil {
		t.Error("zero frequency accepted")
	}
	// At f=0.3 the power ordering genuinely flips — C0(i)S0(i) (62.5 W)
	// drops below C3S0(i) (82.5 W) — so the "inverted" pair is accepted,
	// with a zero break-even since C0(i)'s wake is free.
	tau, err := BreakEvenDelay(prof, 0.3, power.Sleep, power.OperatingIdle)
	if err != nil {
		t.Fatalf("low-frequency crossover pair rejected: %v", err)
	}
	if tau != 0 {
		t.Errorf("zero-wake deep target should break even immediately, got %v", tau)
	}
}

func TestGuardedPlanStructure(t *testing.T) {
	prof := power.Xeon()
	plan, err := GuardedPlan(prof, 0.5, power.OperatingIdle, power.DeeperSleep)
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.Phases) != 2 {
		t.Fatalf("phases = %d", len(plan.Phases))
	}
	if plan.Phases[0].State != power.OperatingIdle || plan.Phases[0].Enter != 0 {
		t.Errorf("phase 0 wrong: %+v", plan.Phases[0])
	}
	tau, _ := BreakEvenDelay(prof, 0.5, power.OperatingIdle, power.DeeperSleep)
	if plan.Phases[1].Enter != tau {
		t.Errorf("deep entry = %v, want break-even %v", plan.Phases[1].Enter, tau)
	}
	if plan.Name != "C0(i)S0(i)→C6S3 guarded" {
		t.Errorf("name = %q", plan.Name)
	}
}

// TestGuardedIsTwoCompetitiveProperty is the ski-rental guarantee: on any
// single idle period, the guarded plan's energy is at most ~2× the better
// of always-shallow and immediately-deep (service energy is common to all
// three, which only strengthens the bound on totals).
func TestGuardedIsTwoCompetitiveProperty(t *testing.T) {
	prof := power.Xeon()
	run := func(plan SleepPlan, f, gap float64) float64 {
		pol := Policy{Frequency: f, Plan: plan}
		cfg, err := pol.Config(prof, 1)
		if err != nil {
			t.Fatal(err)
		}
		jobs := []queue.Job{
			{Arrival: 0, Size: 0.01},
			{Arrival: 0.0101/f + gap, Size: 0.01},
		}
		res, err := queue.Simulate(jobs, cfg)
		if err != nil {
			t.Fatal(err)
		}
		return res.Energy
	}
	prop := func(fRaw, gapRaw uint16) bool {
		f := 0.3 + float64(fRaw)/65535*0.7
		gap := math.Exp(float64(gapRaw)/65535*8 - 2) // 0.13 … 55 s
		guarded, err := GuardedPlan(prof, f, power.OperatingIdle, power.DeeperSleep)
		if err != nil {
			return false
		}
		eg := run(guarded, f, gap)
		es := run(SingleState(power.OperatingIdle), f, gap)
		ed := run(SingleState(power.DeeperSleep), f, gap)
		best := math.Min(es, ed)
		return eg <= 2*best+1e-9
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

// TestGuardedBeatsImmediateDeepOnShortGaps / beats shallow on long gaps:
// the threshold behaves as designed on both sides of the break-even point.
func TestGuardedThresholdBehaviour(t *testing.T) {
	prof := power.Xeon()
	f := 0.5
	tau, err := BreakEvenDelay(prof, f, power.OperatingIdle, power.DeeperSleep)
	if err != nil {
		t.Fatal(err)
	}
	guarded, err := GuardedPlan(prof, f, power.OperatingIdle, power.DeeperSleep)
	if err != nil {
		t.Fatal(err)
	}
	energy := func(plan SleepPlan, gap float64) float64 {
		pol := Policy{Frequency: f, Plan: plan}
		cfg, err := pol.Config(prof, 1)
		if err != nil {
			t.Fatal(err)
		}
		jobs := []queue.Job{
			{Arrival: 0, Size: 0.01},
			{Arrival: 0.03 + gap, Size: 0.01},
		}
		res, err := queue.Simulate(jobs, cfg)
		if err != nil {
			t.Fatal(err)
		}
		return res.Energy
	}
	shortGap := tau / 4
	longGap := tau * 20
	if eg, ed := energy(guarded, shortGap), energy(SingleState(power.DeeperSleep), shortGap); eg >= ed {
		t.Errorf("short gap: guarded %v not below immediate deep %v", eg, ed)
	}
	if eg, es := energy(guarded, longGap), energy(SingleState(power.OperatingIdle), longGap); eg >= es {
		t.Errorf("long gap: guarded %v not below always-shallow %v", eg, es)
	}
}
