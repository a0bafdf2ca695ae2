// Package power models the CPU and platform power states of §3.1 of the
// SleepScale paper: Tables 1 (CPU states), 2 (component powers), 3 (platform
// states) and 4 (wake-up latencies).
//
// Conventions: voltage scales linearly with the DVFS factor f ∈ (0,1], so
// dynamic power terms written as "130·V²·f" in the paper become 130·f³ here,
// and the C1 leakage term "47·V²" becomes 47·f². All powers are watts, all
// latencies seconds.
package power

import (
	"fmt"
	"math"
	"strings"
)

// CPUState is one of the processor power states of Table 1.
type CPUState int

// CPU power states, shallow to deep.
const (
	// C0a is the operating active state: work in progress, DVFS active.
	C0a CPUState = iota
	// C0i is the operating idle state: no work, clock running at the last
	// DVFS setting.
	C0i
	// C1 is the halt state: clock gated, only leakage power.
	C1
	// C3 is the sleep state: caches flushed, architectural state kept.
	C3
	// C6 is the deep sleep state: state saved to RAM, core voltage zero.
	C6
)

// String implements fmt.Stringer.
func (c CPUState) String() string {
	switch c {
	case C0a:
		return "C0(a)"
	case C0i:
		return "C0(i)"
	case C1:
		return "C1"
	case C3:
		return "C3"
	case C6:
		return "C6"
	}
	return fmt.Sprintf("CPUState(%d)", int(c))
}

// PlatformState is one of the platform power states of Table 3.
type PlatformState int

// Platform power states.
const (
	// S0a is the active platform state, associated with C0(a) only.
	S0a PlatformState = iota
	// S0i is the idle platform state, associated with the other CPU states.
	S0i
	// S3 is platform sleep (RAM powered), associated with C6 only.
	S3
)

// String implements fmt.Stringer.
func (p PlatformState) String() string {
	switch p {
	case S0a:
		return "S0(a)"
	case S0i:
		return "S0(i)"
	case S3:
		return "S3"
	}
	return fmt.Sprintf("PlatformState(%d)", int(p))
}

// State is a combined CPU+platform state such as C0(i)S0(i).
type State struct {
	CPU      CPUState
	Platform PlatformState
}

// Combined states used throughout the paper.
var (
	// Active is C0(a)S0(a), the serving state.
	Active = State{C0a, S0a}
	// OperatingIdle is C0(i)S0(i), the shallowest low-power state.
	OperatingIdle = State{C0i, S0i}
	// Halt is C1S0(i).
	Halt = State{C1, S0i}
	// Sleep is C3S0(i).
	Sleep = State{C3, S0i}
	// DeepSleep is C6S0(i).
	DeepSleep = State{C6, S0i}
	// DeeperSleep is C6S3, the deepest state considered at this timescale.
	DeeperSleep = State{C6, S3}
)

// String implements fmt.Stringer, e.g. "C0(i)S0(i)".
func (s State) String() string {
	// The combined states the policy space enumerates return interned
	// constants: the hot policy-evaluation loop stringifies states per
	// candidate and must not allocate.
	switch s {
	case State{C0a, S0a}:
		return "C0(a)S0(a)"
	case State{C0i, S0i}:
		return "C0(i)S0(i)"
	case State{C1, S0i}:
		return "C1S0(i)"
	case State{C3, S0i}:
		return "C3S0(i)"
	case State{C6, S0i}:
		return "C6S0(i)"
	case State{C6, S3}:
		return "C6S3"
	}
	return s.CPU.String() + s.Platform.String()
}

// Valid reports whether the platform state supports the CPU state per
// Table 3: S0(a)↔C0(a); S0(i)↔{C0(i),C1,C3,C6}; S3↔C6.
func (s State) Valid() bool {
	switch s.Platform {
	case S0a:
		return s.CPU == C0a
	case S0i:
		return s.CPU != C0a
	case S3:
		return s.CPU == C6
	}
	return false
}

// LowPowerStates lists every combined low-power state the paper studies,
// shallow to deep.
func LowPowerStates() []State {
	return []State{OperatingIdle, Halt, Sleep, DeepSleep, DeeperSleep}
}

// Profile captures the power characteristics of a processor + platform the
// way Table 2 does: per-CPU-state power (with its frequency dependence) and
// per-platform-state totals, plus the wake-up latency of each combined state
// (Table 4 values as used in §4.2).
type Profile struct {
	// Name identifies the profile ("Xeon", "Atom").
	Name string

	// CPUActiveCoeff is the C0(a) dynamic coefficient: power = coeff·f³.
	CPUActiveCoeff float64
	// CPUIdleCoeff is the C0(i) dynamic coefficient: power = coeff·f³.
	CPUIdleCoeff float64
	// CPUHaltCoeff is the C1 leakage coefficient: power = coeff·f².
	CPUHaltCoeff float64
	// CPUSleepPower is the constant C3 power.
	CPUSleepPower float64
	// CPUDeepSleepPower is the constant C6 power.
	CPUDeepSleepPower float64

	// PlatformActivePower is the S0(a) total (Table 2 bottom row).
	PlatformActivePower float64
	// PlatformIdlePower is the S0(i) total.
	PlatformIdlePower float64
	// PlatformSleepPower is the S3 total.
	PlatformSleepPower float64

	// WakeLatency maps each combined low-power state to its average
	// wake-up latency in seconds (§4.2 choices from the Table 4 ranges).
	WakeLatency map[State]float64
}

// Xeon returns the Intel Xeon E5 profile of Table 2 with the §4.2 wake-up
// latencies: C1S0(i) 10 µs, C3S0(i) 100 µs, C6S0(i) 1 ms, C6S3 1 s.
// C0(i)S0(i) keeps the clock running, so waking from it is free.
func Xeon() *Profile {
	return &Profile{
		Name:                "Xeon",
		CPUActiveCoeff:      130,
		CPUIdleCoeff:        75,
		CPUHaltCoeff:        47,
		CPUSleepPower:       22,
		CPUDeepSleepPower:   15,
		PlatformActivePower: 120,
		PlatformIdlePower:   60.5,
		PlatformSleepPower:  13.1,
		WakeLatency: map[State]float64{
			OperatingIdle: 0,
			Halt:          10e-6,
			Sleep:         100e-6,
			DeepSleep:     1e-3,
			DeeperSleep:   1,
		},
	}
}

// Atom returns a netbook-class profile with a small CPU dynamic range
// relative to platform power, the property §4.2 attributes to Atom systems
// (from Guevara et al.). The paper does not tabulate these numbers; this is
// the documented substitution from DESIGN.md §2.3. Wake latencies follow the
// same Table 4 ranges as the Xeon profile.
func Atom() *Profile {
	return &Profile{
		Name:                "Atom",
		CPUActiveCoeff:      8,
		CPUIdleCoeff:        4,
		CPUHaltCoeff:        2,
		CPUSleepPower:       1,
		CPUDeepSleepPower:   0.5,
		PlatformActivePower: 38,
		PlatformIdlePower:   21,
		PlatformSleepPower:  3,
		WakeLatency: map[State]float64{
			OperatingIdle: 0,
			Halt:          10e-6,
			Sleep:         100e-6,
			DeepSleep:     1e-3,
			DeeperSleep:   1,
		},
	}
}

// ProfileByName returns the profile called name, "Xeon" or "Atom", matched
// case-insensitively.
func ProfileByName(name string) (*Profile, error) {
	switch strings.ToLower(name) {
	case "xeon":
		return Xeon(), nil
	case "atom":
		return Atom(), nil
	}
	return nil, fmt.Errorf("power: unknown profile %q (want Xeon or Atom)", name)
}

// CPUPower reports the CPU power in state c at DVFS factor f.
func (p *Profile) CPUPower(c CPUState, f float64) float64 {
	switch c {
	case C0a:
		return p.CPUActiveCoeff * f * f * f
	case C0i:
		return p.CPUIdleCoeff * f * f * f
	case C1:
		return p.CPUHaltCoeff * f * f
	case C3:
		return p.CPUSleepPower
	case C6:
		return p.CPUDeepSleepPower
	}
	return math.NaN()
}

// PlatformPower reports the platform power in state s.
func (p *Profile) PlatformPower(s PlatformState) float64 {
	switch s {
	case S0a:
		return p.PlatformActivePower
	case S0i:
		return p.PlatformIdlePower
	case S3:
		return p.PlatformSleepPower
	}
	return math.NaN()
}

// SystemPower reports the total power of combined state s at DVFS factor f.
// For example the Xeon C0(i)S0(i) power is 75·f³ + 60.5 W.
func (p *Profile) SystemPower(s State, f float64) float64 {
	return p.CPUPower(s.CPU, f) + p.PlatformPower(s.Platform)
}

// ActivePower reports the serving power, i.e. SystemPower(Active, f). The
// paper's conservative assumption bills wake-up transitions at this power.
func (p *Profile) ActivePower(f float64) float64 {
	return p.SystemPower(Active, f)
}

// Wake reports the average wake-up latency of combined state s, or 0 when
// the profile does not list s (waking from the active state is free).
func (p *Profile) Wake(s State) float64 { return p.WakeLatency[s] }

// DeeperThan reports whether state a saves at least as much power as b at
// every frequency, which for the states of this model reduces to comparing
// powers at f = 1.
func (p *Profile) DeeperThan(a, b State) bool {
	return p.SystemPower(a, 1) <= p.SystemPower(b, 1)
}

// Validate checks profile invariants: the monotone trade-off the paper's
// model requires (deeper states consume less power but take longer to wake,
// P1 > P2 > … > Pn and w1 < w2 < … < wn at f = 1) plus positive powers.
func (p *Profile) Validate() error {
	states := LowPowerStates()
	for i := 1; i < len(states); i++ {
		pa, pb := p.SystemPower(states[i-1], 1), p.SystemPower(states[i], 1)
		if pb > pa {
			return fmt.Errorf("power: %s power %.3g exceeds shallower %s power %.3g",
				states[i], pb, states[i-1], pa)
		}
		wa, wb := p.Wake(states[i-1]), p.Wake(states[i])
		if wb < wa {
			return fmt.Errorf("power: %s wake %.3g below shallower %s wake %.3g",
				states[i], wb, states[i-1], wa)
		}
	}
	if p.ActivePower(1) <= p.SystemPower(OperatingIdle, 1) {
		return fmt.Errorf("power: active power must exceed idle power")
	}
	for _, s := range states {
		if p.SystemPower(s, 1) <= 0 {
			return fmt.Errorf("power: nonpositive power for %s", s)
		}
	}
	return nil
}
