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
// feasible its scores once simulated or computed. Select resolves candidate
// i's configuration into cfg[i], whose phases live in phases, and bounds
// it over jobs. pending[fi] marks a frequency whose own wake-free pass has
// not run, so its bounds come from the passes around it, if any; passes
// counts the passes run.
type search struct {
	freqs    []float64
	power    []float64
	resp     []float64
	met      []policy.Metrics
	feasible []bool
	state    []uint8
	pending  []bool
	heap     byBound
	cfg      []queue.Config
	phases   []queue.SleepPhase
	states   []analytic.SleepState
	jobs     []queue.Job
	wf       queue.WakeFree
	passes   int
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
	s.pending = resize(s.pending, len(s.freqs))
	clear(s.pending)
	s.passes = 0
	return s
}

// release returns s to the pool without pinning the caller's job stream.
func (s *search) release() {
	s.jobs = nil
	s.wf.Reset(nil)
	searchPool.Put(s)
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
//   - The rest are queued by power bound, each entry keyed by the bound it
//     was queued with. A popped candidate at a pending frequency is not
//     scored: that frequency's pass runs, its plans are rebounded exactly,
//     and the ones still live are queued again with their new keys. An
//     entry whose key is no longer its candidate's bound, or whose
//     candidate is scored or now response-pruned, is dropped. So every
//     live candidate has an entry keyed at most its exact power, and every
//     scored one was popped at its exact bound.
//   - The phase stops at the first popped key above the best feasible power.
//     Every live entry left has a key no lower, so every unscored candidate
//     has a power strictly above the incumbent, and can neither win nor
//     tie. A feasible NaN power would win the exhaustive rule only if it
//     came first in index order, so once one appears nothing stops early.
//   - With nothing feasible, every candidate but the response-pruned ones
//     has been scored. Every pending frequency's pass runs first, and those
//     are scored in exact response-bound order while their violation bound
//     can still reach the best violation found.
//
// At least one candidate is always scored, so a stream error surfaces.
func (s *search) run(qos policy.QoS, score func(i int) (policy.Metrics, error)) (int, int, error) {
	meanQoS, meanOnly := qos.(policy.MeanResponseQoS)
	live := func(i int) bool {
		return s.state[i] == unscored && !(meanOnly && s.resp[i] > meanQoS.Budget)
	}
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

	h := &s.heap
	*h = (*h)[:0]
	for i := range s.state {
		if live(i) {
			*h = append(*h, entry{s.power[i], int32(i)})
		}
	}
	h.init()
	nf := len(s.freqs)
	found, nanFeasible, bestP := false, false, math.Inf(1)
	for len(*h) > 0 {
		e := h.pop()
		if found && !nanFeasible && e.key > bestP {
			break
		}
		i := e.i
		if e.key != s.power[i] || !live(int(i)) {
			continue
		}
		if fi := int(i) % nf; s.pending[fi] {
			s.boundAt(fi)
			for j := fi; j < len(s.state); j += nf {
				if live(j) {
					h.push(entry{s.power[j], int32(j)})
				}
			}
			continue
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
		for fi, p := range s.pending {
			if p {
				s.boundAt(fi)
			}
		}
		*h = (*h)[:0]
		for i, st := range s.state {
			if st == unscored {
				*h = append(*h, entry{s.resp[i], int32(i)})
			}
		}
		h.init()
		for len(*h) > 0 {
			e := h.pop()
			if e.key-meanQoS.Budget > bestV {
				break
			}
			if err := scoreAt(e.i); err != nil {
				return -1, n, err
			}
			better(int(e.i))
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

// byBound is a binary min-heap of candidates ordered by (key, index), so the
// search pops the lowest bound first. Each entry carries the key it was
// queued with; keys are never NaN.
type byBound []entry

type entry struct {
	key float64
	i   int32
}

func (a entry) less(b entry) bool {
	return a.key < b.key || (a.key == b.key && a.i < b.i)
}

func (h byBound) init() {
	for i := len(h)/2 - 1; i >= 0; i-- {
		h.down(i)
	}
}

func (h *byBound) push(e entry) {
	*h = append(*h, e)
	q := *h
	for i := len(q) - 1; i > 0; {
		p := (i - 1) / 2
		if !q[i].less(q[p]) {
			break
		}
		q[i], q[p] = q[p], q[i]
		i = p
	}
}

func (h *byBound) pop() entry {
	q := *h
	top, last := q[0], len(q)-1
	q[0] = q[last]
	*h = q[:last]
	h.down(0)
	return top
}

func (h byBound) down(i int) {
	n := len(h)
	for {
		c := 2*i + 1
		if c >= n {
			return
		}
		if c+1 < n && h[c+1].less(h[c]) {
			c++
		}
		if !h[c].less(h[i]) {
			return
		}
		h[i], h[c] = h[c], h[i]
		i = c
	}
}
