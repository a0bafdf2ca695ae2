package power

import (
	"math"
	"testing"
	"testing/quick"
)

func TestStateStrings(t *testing.T) {
	cases := []struct {
		s    State
		want string
	}{
		{Active, "C0(a)S0(a)"},
		{OperatingIdle, "C0(i)S0(i)"},
		{Halt, "C1S0(i)"},
		{Sleep, "C3S0(i)"},
		{DeepSleep, "C6S0(i)"},
		{DeeperSleep, "C6S3"},
	}
	for _, c := range cases {
		if got := c.s.String(); got != c.want {
			t.Errorf("%v.String() = %q, want %q", c.s, got, c.want)
		}
	}
}

func TestUnknownStateStrings(t *testing.T) {
	if got := CPUState(99).String(); got != "CPUState(99)" {
		t.Errorf("unknown CPU state string = %q", got)
	}
	if got := PlatformState(99).String(); got != "PlatformState(99)" {
		t.Errorf("unknown platform state string = %q", got)
	}
}

func TestStateValidity(t *testing.T) {
	// Table 3: S0(a)↔C0(a), S0(i)↔ other CPU states, S3↔C6.
	valid := []State{Active, OperatingIdle, Halt, Sleep, DeepSleep, DeeperSleep}
	for _, s := range valid {
		if !s.Valid() {
			t.Errorf("%v should be valid", s)
		}
	}
	invalid := []State{
		{C0a, S0i}, {C0i, S0a}, {C1, S3}, {C3, S3}, {C0i, S3}, {C6, S0a},
	}
	for _, s := range invalid {
		if s.Valid() {
			t.Errorf("%v should be invalid", s)
		}
	}
	if (State{CPU: C0a, Platform: PlatformState(9)}).Valid() {
		t.Error("unknown platform state should be invalid")
	}
}

// TestXeonTables pins the Table 2 numbers: CPU state powers at f=1 and the
// platform totals, plus the §4.2 wake latencies (Table 4 selections).
func TestXeonTables(t *testing.T) {
	p := Xeon()
	cpu := []struct {
		c    CPUState
		f    float64
		want float64
	}{
		{C0a, 1, 130}, // 130·V²f at V=f=1
		{C0i, 1, 75},
		{C1, 1, 47},
		{C3, 1, 22},
		{C6, 1, 15},
		{C0a, 0.5, 130 * 0.125}, // cubic scaling
		{C1, 0.5, 47 * 0.25},    // quadratic leakage
		{C3, 0.5, 22},           // constants ignore f
		{C6, 0.2, 15},
	}
	for _, c := range cpu {
		if got := p.CPUPower(c.c, c.f); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("CPUPower(%v, %v) = %v, want %v", c.c, c.f, got, c.want)
		}
	}
	plat := []struct {
		s    PlatformState
		want float64
	}{
		{S0a, 120}, {S0i, 60.5}, {S3, 13.1},
	}
	for _, c := range plat {
		if got := p.PlatformPower(c.s); got != c.want {
			t.Errorf("PlatformPower(%v) = %v, want %v", c.s, got, c.want)
		}
	}
	wake := []struct {
		s    State
		want float64
	}{
		{OperatingIdle, 0},
		{Halt, 10e-6},
		{Sleep, 100e-6},
		{DeepSleep, 1e-3},
		{DeeperSleep, 1},
	}
	for _, c := range wake {
		if got := p.Wake(c.s); got != c.want {
			t.Errorf("Wake(%v) = %v, want %v", c.s, got, c.want)
		}
	}
}

func TestXeonCombinedStatePowers(t *testing.T) {
	p := Xeon()
	// The running-text example: C0(i)S0(i) = 75·V²f + platform idle. We use
	// the table total 60.5 (see DESIGN.md §2.5 on the 52.7 W discrepancy).
	if got, want := p.SystemPower(OperatingIdle, 1), 75+60.5; math.Abs(got-want) > 1e-12 {
		t.Errorf("C0(i)S0(i) at f=1 = %v, want %v", got, want)
	}
	if got, want := p.SystemPower(DeeperSleep, 1), 15+13.1; math.Abs(got-want) > 1e-12 {
		t.Errorf("C6S3 = %v, want %v", got, want)
	}
	if got, want := p.ActivePower(1), 130+120.0; math.Abs(got-want) > 1e-12 {
		t.Errorf("active at f=1 = %v, want %v", got, want)
	}
	if got, want := p.ActivePower(0.5), 130*0.125+120; math.Abs(got-want) > 1e-12 {
		t.Errorf("active at f=0.5 = %v, want %v", got, want)
	}
}

func TestMonotonePowerWakeTradeoff(t *testing.T) {
	for _, p := range []*Profile{Xeon(), Atom()} {
		if err := p.Validate(); err != nil {
			t.Errorf("%s: %v", p.Name, err)
		}
		states := LowPowerStates()
		for i := 1; i < len(states); i++ {
			if !p.DeeperThan(states[i], states[i-1]) {
				t.Errorf("%s: %v should be deeper than %v", p.Name, states[i], states[i-1])
			}
		}
	}
}

func TestAtomPropertySmallCPUDynamicRange(t *testing.T) {
	// §4.2: Atom has small processor power relative to platform power, which
	// drives the "run fast and sleep immediately" behaviour. Verify the
	// profile encodes that: CPU dynamic swing / platform power is much
	// smaller than on Xeon.
	xe, at := Xeon(), Atom()
	xeRatio := xe.CPUActiveCoeff / xe.PlatformActivePower
	atRatio := at.CPUActiveCoeff / at.PlatformActivePower
	if atRatio >= xeRatio/2 {
		t.Errorf("Atom CPU/platform ratio %.3f not ≪ Xeon's %.3f", atRatio, xeRatio)
	}
}

func TestValidateCatchesBrokenProfiles(t *testing.T) {
	p := Xeon()
	p.CPUDeepSleepPower = 500 // deeper state now costs more
	if err := p.Validate(); err == nil {
		t.Error("Validate accepted non-monotone powers")
	}
	p = Xeon()
	p.WakeLatency[DeeperSleep] = 0 // deeper state now wakes faster
	if err := p.Validate(); err == nil {
		t.Error("Validate accepted non-monotone wake latencies")
	}
	p = Xeon()
	p.CPUActiveCoeff = 0
	p.PlatformActivePower = 1
	if err := p.Validate(); err == nil {
		t.Error("Validate accepted active <= idle power")
	}
}

func TestUnknownStatePowerIsNaN(t *testing.T) {
	p := Xeon()
	if !math.IsNaN(p.CPUPower(CPUState(42), 1)) {
		t.Error("unknown CPU state should yield NaN")
	}
	if !math.IsNaN(p.PlatformPower(PlatformState(42))) {
		t.Error("unknown platform state should yield NaN")
	}
}

// Property: system power is monotone non-decreasing in f for every state
// (dynamic terms only grow with frequency).
func TestPowerMonotoneInFrequencyProperty(t *testing.T) {
	p := Xeon()
	f := func(a, b uint16) bool {
		f1 := float64(a)/65535*0.99 + 0.01
		f2 := float64(b)/65535*0.99 + 0.01
		if f1 > f2 {
			f1, f2 = f2, f1
		}
		for _, s := range append(LowPowerStates(), Active) {
			if p.SystemPower(s, f1) > p.SystemPower(s, f2)+1e-12 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// Property: the constant-power deep states (C3S0(i), C6S0(i), C6S3) keep
// their shallow-to-deep ordering at every frequency, and active power always
// dominates operating-idle power. Note the full P1 > … > Pn ordering only
// holds at f = 1: at low f the C0(i) cubic dynamic term drops below the C1
// leakage and even the C3 constant — which is exactly why the paper finds
// C0(i)S0(i) optimal at low utilization (Figure 6).
func TestDeepStateOrderingAtAnyFrequencyProperty(t *testing.T) {
	for _, p := range []*Profile{Xeon(), Atom()} {
		f := func(a uint16) bool {
			fr := float64(a)/65535*0.99 + 0.01
			deep := []State{Sleep, DeepSleep, DeeperSleep}
			for i := 1; i < len(deep); i++ {
				if p.SystemPower(deep[i], fr) > p.SystemPower(deep[i-1], fr)+1e-12 {
					return false
				}
			}
			return p.ActivePower(fr) >= p.SystemPower(OperatingIdle, fr)
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
			t.Errorf("%s: %v", p.Name, err)
		}
	}
}

// TestLowFrequencyShallowStateWins pins the crossover the paper's Figure 6
// exploits: at f = 0.3 the Xeon C0(i)S0(i) power is below C1S0(i) and even
// C3S0(i), so the shallowest state is the cheapest way to idle when DVFS has
// already slowed the clock.
func TestLowFrequencyShallowStateWins(t *testing.T) {
	p := Xeon()
	f := 0.3
	if p.SystemPower(OperatingIdle, f) >= p.SystemPower(Halt, f) {
		t.Errorf("at f=%v C0(i)S0(i)=%v should beat C1S0(i)=%v",
			f, p.SystemPower(OperatingIdle, f), p.SystemPower(Halt, f))
	}
	if p.SystemPower(OperatingIdle, f) >= p.SystemPower(Sleep, f) {
		t.Errorf("at f=%v C0(i)S0(i)=%v should beat C3S0(i)=%v",
			f, p.SystemPower(OperatingIdle, f), p.SystemPower(Sleep, f))
	}
}

func TestLowPowerStatesCopy(t *testing.T) {
	a := LowPowerStates()
	a[0] = DeeperSleep
	b := LowPowerStates()
	if b[0] != OperatingIdle {
		t.Error("LowPowerStates must return a fresh slice")
	}
}

// TestProfileByName pins the profile lookup the commands share.
func TestProfileByName(t *testing.T) {
	for name, want := range map[string]string{"xeon": "Xeon", "Xeon": "Xeon", "ATOM": "Atom"} {
		p, err := ProfileByName(name)
		if err != nil || p.Name != want {
			t.Errorf("ProfileByName(%q) = %v, %v; want %s", name, p, err, want)
		}
	}
	if _, err := ProfileByName("arm"); err == nil {
		t.Error("unknown profile accepted")
	}
}
