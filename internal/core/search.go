package core

import (
	"fmt"
	"math"
	"sync"

	"sleepscale/internal/analytic"
	"sleepscale/internal/policy"
	"sleepscale/internal/queue"
)

// Candidate states in a search.
const (
	unscored uint8 = iota
	scored
	// skipped marks an idealized candidate below the stability floor after
	// rounding: it is not a candidate at all.
	skipped
)

// search is the reusable state of one best-first selection. Candidate i is
// plan i/len(freqs) at frequency freqs[i%len(freqs)], the order
// Space.Policies enumerates. power and resp hold lower bounds on each
// candidate's AvgPower and MeanResponse (−Inf when there is none), met and
// feasible its scores once simulated or computed.
type search struct {
	freqs    []float64
	power    []float64
	resp     []float64
	met      []policy.Metrics
	feasible []bool
	state    []uint8
	order    []int32
	phases   []queue.SleepPhase
	states   []analytic.SleepState
	wf       queue.WakeFree
}

// searchPool recycles search scratch across selections, so a steady-state
// Select allocates nothing.
var searchPool = sync.Pool{New: func() any { return new(search) }}

// getSearch returns pooled scratch sized for the space's grid at rho and beta.
func (m *Manager) getSearch(rho, beta float64) *search {
	s := searchPool.Get().(*search)
	s.freqs = m.Space.AppendFrequencies(s.freqs[:0], rho, beta)
	n := len(m.Space.Plans) * len(s.freqs)
	s.power = resize(s.power, n)
	s.resp = resize(s.resp, n)
	s.met = resize(s.met, n)
	s.feasible = resize(s.feasible, n)
	s.state = resize(s.state, n)
	for i := range s.state {
		s.state[i] = unscored
	}
	return s
}

// resize returns s with length n, reusing its array when it is large enough.
func resize[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// candidate returns candidate i's policy.
func (s *search) candidate(m *Manager, i int) policy.Policy {
	nf := len(s.freqs)
	return policy.Policy{Frequency: s.freqs[i%nf], Plan: m.Space.Plans[i/nf]}
}

// evaluation returns candidate i's scored evaluation.
func (s *search) evaluation(m *Manager, i int) policy.Evaluation {
	return policy.Evaluation{Policy: s.candidate(m, i), Metrics: s.met[i], Feasible: s.feasible[i]}
}

// run is the exact best-first search over the bounded candidates, with score
// computing candidate i's exact metrics. It returns the candidate the
// exhaustive rule picks — the feasible minimum power, else
// the minimum QoS violation, the lowest index winning every tie — and how
// many candidates it scored.
//
// Every candidate it leaves unscored provably cannot change that answer:
//   - Under MeanResponseQoS a candidate whose response bound exceeds the
//     budget is infeasible, so the feasible phase never scores it.
//   - The rest are scored in increasing power-bound order, and the phase
//     stops at the first bound above the best feasible power. Every later
//     candidate has a power strictly above the incumbent, so it can neither
//     win nor tie. A feasible NaN power would win the exhaustive rule only
//     if it came first in index order, so once one appears nothing stops
//     early.
//   - With nothing feasible, every candidate but the response-pruned ones
//     has been scored. Those are scored in response-bound order while their
//     violation bound can still reach the best violation found.
//
// At least one candidate is always scored, so a stream error surfaces.
func (s *search) run(qos policy.QoS, score func(i int) (policy.Metrics, error)) (int, int, error) {
	meanQoS, meanOnly := qos.(policy.MeanResponseQoS)
	n := 0
	scoreAt := func(i int32) error {
		met, err := score(int(i))
		if err != nil {
			return err
		}
		s.met[i], s.feasible[i], s.state[i] = met, qos.Satisfied(met), scored
		n++
		return nil
	}

	s.order = s.order[:0]
	for i, st := range s.state {
		if st == unscored && !(meanOnly && s.resp[i] > meanQoS.Budget) {
			s.order = append(s.order, int32(i))
		}
	}
	h := byBound{idx: s.order, key: s.power}
	h.init()
	found, nanFeasible, bestP := false, false, math.Inf(1)
	for len(h.idx) > 0 {
		i := h.pop()
		if found && !nanFeasible && s.power[i] > bestP {
			break
		}
		if err := scoreAt(i); err != nil {
			return -1, n, err
		}
		if s.feasible[i] {
			found = true
			if p := s.met[i].AvgPower; p < bestP {
				bestP = p
			} else if math.IsNaN(p) {
				nanFeasible = true
			}
		}
	}
	if found {
		best := -1
		for i, st := range s.state {
			if st == scored && s.feasible[i] && (best < 0 || s.met[i].AvgPower < s.met[best].AvgPower) {
				best = i
			}
		}
		return best, n, nil
	}

	// Nothing feasible: minimize the violation.
	bestI, bestV := -1, math.Inf(1)
	better := func(i int) {
		if v := qos.Violation(s.met[i]); v < bestV || (v == bestV && i < bestI) {
			bestI, bestV = i, v
		}
	}
	first := -1
	for i, st := range s.state {
		if st == scored {
			better(i)
		}
		if first < 0 && st != skipped {
			first = i
		}
	}
	if first < 0 {
		return -1, n, fmt.Errorf("core: no candidate policies")
	}
	if meanOnly {
		s.order = s.order[:0]
		for i, st := range s.state {
			if st == unscored {
				s.order = append(s.order, int32(i))
			}
		}
		h = byBound{idx: s.order, key: s.resp}
		h.init()
		for len(h.idx) > 0 {
			i := h.pop()
			if s.resp[i]-meanQoS.Budget > bestV {
				break
			}
			if err := scoreAt(i); err != nil {
				return -1, n, err
			}
			better(int(i))
		}
	}
	if bestI < 0 {
		// No violation compares below +Inf: the exhaustive rule keeps the
		// first candidate.
		if s.state[first] == unscored {
			if err := scoreAt(int32(first)); err != nil {
				return -1, n, err
			}
		}
		bestI = first
	}
	return bestI, n, nil
}

// byBound is a binary min-heap of candidate indices ordered by (key, index),
// so the search pops the lowest bound first. Keys are never NaN.
type byBound struct {
	idx []int32
	key []float64
}

func (h *byBound) less(a, b int32) bool {
	ka, kb := h.key[a], h.key[b]
	return ka < kb || (ka == kb && a < b)
}

func (h *byBound) init() {
	for i := len(h.idx)/2 - 1; i >= 0; i-- {
		h.down(i)
	}
}

func (h *byBound) pop() int32 {
	top, last := h.idx[0], len(h.idx)-1
	h.idx[0] = h.idx[last]
	h.idx = h.idx[:last]
	h.down(0)
	return top
}

func (h *byBound) down(i int) {
	n := len(h.idx)
	for {
		c := 2*i + 1
		if c >= n {
			return
		}
		if c+1 < n && h.less(h.idx[c+1], h.idx[c]) {
			c++
		}
		if !h.less(h.idx[c], h.idx[i]) {
			return
		}
		h.idx[i], h.idx[c] = h.idx[c], h.idx[i]
		i = c
	}
}
