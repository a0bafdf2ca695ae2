package fault

import (
	"fmt"
	"math"
	"math/rand"
)

// RenewalConfig parameterizes a fleet of independent per-server
// crash/repair renewal processes.
type RenewalConfig struct {
	// Servers is the fleet size; servers are numbered [0, Servers).
	Servers int
	// MTBF is the mean time between failures: each server's up intervals
	// are Exp(1/MTBF) draws. Seconds.
	MTBF float64
	// MTTR is the mean time to repair: each server's down intervals are
	// Exp(1/MTTR) draws. Seconds.
	MTTR float64
	// Horizon bounds the timeline: no event is emitted at or beyond it.
	// It normally equals the run duration.
	Horizon float64
}

// Validate rejects unusable configurations.
func (c RenewalConfig) Validate() error {
	if c.Servers < 1 {
		return fmt.Errorf("fault: renewal needs >= 1 server, got %d", c.Servers)
	}
	if !(c.MTBF > 0) || math.IsInf(c.MTBF, 0) {
		return fmt.Errorf("fault: MTBF must be finite and > 0, got %g", c.MTBF)
	}
	if !(c.MTTR > 0) || math.IsInf(c.MTTR, 0) {
		return fmt.Errorf("fault: MTTR must be finite and > 0, got %g", c.MTTR)
	}
	if !(c.Horizon > 0) || math.IsInf(c.Horizon, 0) {
		return fmt.Errorf("fault: horizon must be finite and > 0, got %g", c.Horizon)
	}
	return nil
}

// Renewal draws per-server alternating up/down renewal processes
// (exponential up times with mean MTBF, exponential down times with mean
// MTTR, every server starting up at t = 0) and exposes the merged,
// time-sorted crash/repair timeline through the Source contract.
//
// Determinism: each server's draws come from its own RNG seed derived
// from (seed, server), so one server's timeline never depends on how many
// draws another server consumed; ties in the merged timeline order by
// (time, server, kind). Reset(seed) therefore regenerates the exact same
// timeline for the same seed, and adding servers never perturbs the
// timelines of existing ones.
type Renewal struct {
	cfg    RenewalConfig
	events []Event
	pos    int
	seed   int64      // the seed events were drawn from
	rng    *rand.Rand // reseeded for each server's draws; nil until drawn
}

// NewRenewal validates cfg and returns a renewal source seeded with seed.
func NewRenewal(cfg RenewalConfig, seed int64) (*Renewal, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	r := &Renewal{cfg: cfg}
	r.Reset(seed)
	return r, nil
}

// Next implements Source.
func (r *Renewal) Next(buf []Event) (int, bool) {
	n := copy(buf, r.events[r.pos:])
	r.pos += n
	return n, r.pos < len(r.events)
}

// Reset implements Source: it rewinds to the first event of seed's
// timeline, and draws that timeline only when it is not the one already
// drawn.
func (r *Renewal) Reset(seed int64) {
	r.pos = 0
	if r.rng != nil && seed == r.seed {
		return
	}
	if r.rng == nil {
		r.rng = rand.New(rand.NewSource(0))
	}
	r.seed = seed
	r.events = r.events[:0]
	for s := 0; s < r.cfg.Servers; s++ {
		// A reseeded source draws what a new one with that seed would.
		r.rng.Seed(splitmix64(seed, int64(s)))
		t := 0.0
		for {
			t += r.rng.ExpFloat64() * r.cfg.MTBF
			if t >= r.cfg.Horizon {
				break
			}
			r.events = append(r.events, Event{Time: t, Server: s, Kind: Crash})
			t += r.rng.ExpFloat64() * r.cfg.MTTR
			if t >= r.cfg.Horizon {
				break
			}
			r.events = append(r.events, Event{Time: t, Server: s, Kind: Repair})
		}
	}
	sortEvents(r.events)
}

// Events returns the drawn timeline; the slice is shared, not copied, so
// the caller must not modify it, and it is valid until a Reset with
// another seed.
func (r *Renewal) Events() []Event { return r.events }

// splitmix64 mixes (seed, lane) into an independent RNG seed; the standard
// splitmix64 finalizer keeps adjacent lanes statistically unrelated.
func splitmix64(seed, lane int64) int64 {
	z := uint64(seed) + uint64(lane)*0x9E3779B97F4A7C15 + 0x9E3779B97F4A7C15
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return int64(z ^ (z >> 31))
}
