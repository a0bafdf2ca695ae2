package farm

import (
	"math"
	"math/bits"

	"sleepscale/internal/queue"
)

// This file is the fleet-scale routing index: O(log k) per-job decisions for
// the state-dependent dispatchers, proven bit-identical to their O(k) linear
// scans. The serve loop builds one index per farm and resets it on every call
// from the shadow and the farm's per-server configuration snapshot; a farm of
// at least indexFrom servers routes every job through it whenever the index
// accepts the snapshot. JSQ's index accepts any mix of configurations,
// because its pick reads only freeAt and each server's shadow advances under
// its own entry. Least-work-left's index prices wake-ups from one
// configuration, so it accepts only a uniform snapshot. Smaller farms (where
// the scan is cheaper), least-work-left over mixed configurations, and
// dispatchers without an index take the linear RouteVirtual arm.
//
// The structures answer exactly the queries the linear comparators compute:
//
//   - JSQ picks the least-backlogged server, ties toward the lowest index.
//     Backlog at arrival t is max(0, freeAt−t), so every idle server
//     (freeAt ≤ t) ties at zero and the lowest-index idle server wins; with
//     no idle server the winner is the lowest index among the servers whose
//     backlog freeAt−t is minimal. A tournament tree over freeAt serves
//     both: a leftmost-descent for the lowest-index leaf with key ≤ t, the
//     root winner for the busy minimum. Distinct freeAts can round to one
//     backlog, so a busy pick also asks whether the next float above the
//     minimum prices the same; if so, it finds the largest tying key
//     (lastTie) and descends to the lowest index at or below it.
//
//   - Least-work-left picks the earliest completion of the arriving job.
//     Busy servers (freeAt ≥ t) complete at freeAt + svc — the same
//     tournament-tree minimum and rounding-tie check, with idle keys lifted
//     to +Inf and extracted lazily as t advances. Idle servers complete at
//     (t + wake) + svc, where wake depends only on the sleep phase occupied
//     at t: all idle servers in one phase bucket tie, so the lowest index
//     per bucket is the only candidate, held in a two-level bitset per
//     bucket. Servers migrate between buckets at the first instant whose
//     rounded offset from the anchor reaches EnterAfter (entryTime), tracked
//     by a lazy min-heap of crossings invalidated by per-server generations.
//
// Every floating-point expression below mirrors the corresponding linear-scan
// expression operation for operation (the equivalence suite in index_test.go
// pins this across seeds, dispatchers and fleet sizes).

// routeIndex is the O(log k) routing core the serve loop consults. route
// both decides the server for j and commits the shadow advance — it writes
// the new freeAt/anchor through the farm's shadow slices, so the shadow
// tracks every engine without reading one back. reset rebuilds from the
// shadow (after Farm.Reset or a new stream) for the per-server
// configuration snapshot cfgs, which the index may keep until the next
// reset, and reports whether the index prices that snapshot exactly; on
// false the caller must route by the linear scan. Jobs within one run must
// arrive in non-decreasing order, as everywhere else.
type routeIndex interface {
	reset(cfgs []queue.Config) bool
	route(j queue.Job) int
	// rebind re-aliases the index to new shadow slices after the farm
	// resized them (a Select view's server count changed); the caller must
	// reset before routing again.
	rebind(freeAt, anchor []float64)
}

// newRouteIndexFor returns the O(log k) index for dispatchers that have one,
// nil otherwise. The gate is deliberately exact-type, not an interface: a
// wrapper embedding JSQ or LeastWorkLeft would inherit a promoted index
// constructor while overriding RouteVirtual, and the index would silently
// route by the embedded semantics instead of the override. The returned index
// routes against — and writes through — the farm's freeAt/anchor shadow
// slices, which must stay aliased for the index's lifetime.
func newRouteIndexFor(disp Dispatcher, freeAt, anchor []float64) routeIndex {
	switch disp.(type) {
	case JSQ:
		return &jsqIndex{freeAt: freeAt, anchor: anchor}
	case *JSQ:
		return &jsqIndex{freeAt: freeAt, anchor: anchor}
	case *LeastWorkLeft:
		return &lwlIndex{freeAt: freeAt, anchor: anchor}
	}
	return nil
}

// minTree is a tournament tree over per-server float64 keys: a complete
// binary tree with base = 2^⌈log₂ k⌉ leaves (server i at node base+i, padding
// keyed +Inf), whose internal node n stores the leaf index winning the
// subtree — the minimum key, ties toward the lower index. Point updates and
// both queries are O(log k).
type minTree struct {
	k    int
	base int
	key  []float64 // len base: key[i] for server i, +Inf padding beyond k
	win  []int32   // len base: win[n] for internal nodes 1..base-1
}

func (t *minTree) init(k int) {
	base := 1
	for base < k {
		base <<= 1
	}
	t.k, t.base = k, base
	t.key = resize(t.key, base)
	t.win = resize(t.win, base)
	for i := k; i < base; i++ {
		t.key[i] = math.Inf(1)
	}
}

// build recomputes every internal node; keys must already be set.
func (t *minTree) build() {
	for n := t.base - 1; n >= 1; n-- {
		t.win[n] = t.better(t.winner(2*n), t.winner(2*n+1))
	}
}

// winner resolves node n to the leaf index winning its subtree.
func (t *minTree) winner(n int) int32 {
	if n >= t.base {
		return int32(n - t.base)
	}
	return t.win[n]
}

// better returns the lower-key leaf; on equal keys the left argument — always
// the lower index — wins, matching the linear scans' strict-less updates.
func (t *minTree) better(l, r int32) int32 {
	if t.key[l] <= t.key[r] {
		return l
	}
	return r
}

// update replays server s's leaf up to the root after key[s] changed.
func (t *minTree) update(s int) {
	for n := (t.base + s) / 2; n >= 1; n /= 2 {
		t.win[n] = t.better(t.winner(2*n), t.winner(2*n+1))
	}
}

// min returns the leaf with the minimum (key, index) pair.
func (t *minTree) min() int {
	if t.base == 1 {
		return 0
	}
	return int(t.win[1])
}

// minKey returns the tree's minimum key.
func (t *minTree) minKey() float64 { return t.key[t.min()] }

// leftmostLE returns the lowest leaf index with key ≤ bound, or -1 if none.
// The descent prefers the left child whenever its subtree minimum qualifies,
// which is exactly the lowest-index qualifying leaf.
func (t *minTree) leftmostLE(bound float64) int {
	if t.minKey() > bound {
		return -1
	}
	n := 1
	for n < t.base {
		if t.key[t.winner(2*n)] <= bound {
			n = 2 * n
		} else {
			n = 2*n + 1
		}
	}
	return n - t.base
}

// nextUp returns the least float64 above the finite x.
func nextUp(x float64) float64 { return fromOrdered(ordered(x) + 1) }

// ordered maps x to an integer of the same order, so that adjacent floats map
// to adjacent integers (both zeros map to 0).
func ordered(x float64) int64 {
	b := int64(math.Float64bits(x))
	if b < 0 {
		b = math.MinInt64 - b
	}
	return b
}

// fromOrdered inverts ordered (0 maps back to +0).
func fromOrdered(o int64) float64 {
	if o < 0 {
		o = math.MinInt64 - o
	}
	return math.Float64frombits(uint64(o))
}

// lastTie returns the largest finite key k ≥ lo with price(k) == price(lo),
// for a price non-decreasing in its key: a binary search over the float64
// bit patterns in value order, at most 64 probes. The indexes call it only
// when the float just above lo already ties.
func lastTie(lo float64, price func(float64) float64) float64 {
	want := price(lo)
	// price(a) == want; b is the first pattern known not to tie, or +Inf.
	a, b := ordered(lo), ordered(math.MaxFloat64)+1
	for uint64(b-a) > 1 {
		m := a + int64(uint64(b-a)/2)
		if price(fromOrdered(m)) == want {
			a = m
		} else {
			b = m
		}
	}
	return fromOrdered(a)
}

// jsqIndex indexes JSQ routing: leftmostLE(t) when any server is idle (all
// idle servers tie at backlog zero, linear scan keeps the first), otherwise
// the lowest index among the busy servers of minimal backlog freeAt−t, which
// orders as freeAt up to rounding ties. The pick never reads a
// configuration; the shadow advance prices server s from cfgs[s], so any mix
// of configurations routes exactly.
type jsqIndex struct {
	freeAt []float64 // the farm's shadow, written through
	anchor []float64
	cfgs   []queue.Config // the reset snapshot, one entry per server
	tree   minTree
}

func (x *jsqIndex) rebind(freeAt, anchor []float64) {
	x.freeAt, x.anchor = freeAt, anchor
}

func (x *jsqIndex) reset(cfgs []queue.Config) bool {
	x.cfgs = cfgs
	x.tree.init(len(x.freeAt))
	copy(x.tree.key, x.freeAt)
	x.tree.build()
	return true
}

func (x *jsqIndex) route(j queue.Job) int {
	t := j.Arrival
	s := x.tree.leftmostLE(t)
	if s < 0 {
		s = x.tree.min()
		if key := x.tree.key[s]; nextUp(key)-t == key-t {
			// Distinct freeAts round to one backlog; the scan keeps the
			// lowest index among them.
			s = x.tree.leftmostLE(lastTie(key, func(k float64) float64 { return k - t }))
		}
	}
	nf := x.cfgs[s].NextFreeAtAnchored(x.freeAt[s], x.anchor[s], j)
	x.freeAt[s], x.anchor[s] = nf, nf
	x.tree.key[s] = nf
	x.tree.update(s)
	return s
}

// bucketBits is a two-level bitset over server indices: one word of summary
// bits per 64 index words. lowestSet scans the summary first, so finding the
// lowest-index member costs O(k/4096 + 1) word operations.
type bucketBits struct {
	bits []uint64
	sum  []uint64
}

func (b *bucketBits) init(words, sumWords int) {
	b.bits = resize(b.bits, words)
	b.sum = resize(b.sum, sumWords)
	clear(b.bits)
	clear(b.sum)
}

func (b *bucketBits) set(s int) {
	w := s >> 6
	b.bits[w] |= 1 << (s & 63)
	b.sum[w>>6] |= 1 << (w & 63)
}

func (b *bucketBits) clear(s int) {
	w := s >> 6
	b.bits[w] &^= 1 << (s & 63)
	if b.bits[w] == 0 {
		b.sum[w>>6] &^= 1 << (w & 63)
	}
}

func (b *bucketBits) lowestSet() int {
	for sw, v := range b.sum {
		if v != 0 {
			w := sw<<6 + bits.TrailingZeros64(v)
			return w<<6 + bits.TrailingZeros64(b.bits[w])
		}
	}
	return -1
}

// crossing schedules idle server s to migrate into phase bucket b at time t.
// Entries are invalidated lazily: gen must still match the server's when the
// crossing fires, otherwise the server went busy in the meantime.
type crossing struct {
	t   float64
	s   int32
	b   int32
	gen uint32
}

// lwlIndex indexes least-work-left routing. Busy servers live in a minTree
// keyed by freeAt (idle keys +Inf, extracted lazily as t passes freeAt);
// idle servers live in one bitset per wake-pricing bucket — bucket 0 is the
// pre-sleep window (wake 0), bucket p+1 is price.Phases[p] — migrating at
// entryTime boundaries via the crossing heap. The candidates at
// arrival t are the busy minimum (done = freeAt + svc) and each non-empty
// bucket's lowest index (done = (t + wake) + svc), compared by (done, index)
// exactly as the linear scan's strict-less loop resolves them.
//
// Pricing uses the configuration every entry of the reset snapshot shares —
// the engines' live configuration — exactly as the linear arm prices from
// its per-server snapshot, so indexed routing stays bit-identical to the scan
// even when the operating point switches between calls (the fleet
// coordinator's epoch-boundary policy changes). A snapshot with two distinct
// configurations is refused: the buckets hold one wake ladder.
type lwlIndex struct {
	freeAt []float64
	anchor []float64
	cfg    queue.Config // the reset snapshot's one configuration: live pricing

	tree     minTree
	buckets  []bucketBits // len(price.Phases) + 1
	wakes    []float64    // wake latency per bucket
	enters   []float64    // EnterAfter per phase (crossing boundaries)
	bucketOf []int32      // current bucket per server, -1 = busy
	gen      []uint32
	heap     []crossing
}

func (x *lwlIndex) rebind(freeAt, anchor []float64) {
	x.freeAt, x.anchor = freeAt, anchor
}

func (x *lwlIndex) reset(cfgs []queue.Config) bool {
	for s := 1; s < len(cfgs); s++ {
		if !configsEqual(&cfgs[0], &cfgs[s]) {
			return false
		}
	}
	x.cfg = cfgs[0]
	k := len(x.freeAt)
	x.tree.init(k)
	// Every server starts in the busy tree regardless of its freeAt; route's
	// lazy extraction moves the idle ones out with the correct bucket for the
	// first arrival's instant (which reset cannot know yet).
	copy(x.tree.key, x.freeAt)
	x.tree.build()

	nb := len(x.cfg.Phases) + 1
	x.buckets = resize(x.buckets, nb)
	words := (k + 63) / 64
	sumWords := (words + 63) / 64
	x.wakes = resize(x.wakes, nb)
	x.enters = resize(x.enters, nb-1)
	for b := range x.buckets {
		x.buckets[b].init(words, sumWords)
		if b > 0 {
			x.wakes[b] = x.cfg.Phases[b-1].WakeLatency
			x.enters[b-1] = x.cfg.Phases[b-1].EnterAfter
		}
	}
	x.bucketOf = resize(x.bucketOf, k)
	x.gen = resize(x.gen, k)
	clear(x.gen)
	for s := range x.bucketOf {
		x.bucketOf[s] = -1
	}
	x.heap = x.heap[:0]
	return true
}

// configsEqual reports whether two engine configurations are identical,
// phases included. The fast path is the homogeneous farm's: engines switched
// from one shared resolved policy alias the same phase slice, so the slice
// headers match and no element compare runs.
func configsEqual(a, b *queue.Config) bool {
	if a.Frequency != b.Frequency || a.FreqExponent != b.FreqExponent ||
		a.ActivePower != b.ActivePower || a.IdlePower != b.IdlePower ||
		len(a.Phases) != len(b.Phases) {
		return false
	}
	if len(a.Phases) == 0 || &a.Phases[0] == &b.Phases[0] {
		return true
	}
	for i := range a.Phases {
		if a.Phases[i] != b.Phases[i] {
			return false
		}
	}
	return true
}

func (x *lwlIndex) route(j queue.Job) int {
	t := j.Arrival
	x.advance(t)

	svc := x.cfg.ServiceTime(j.Size)
	best, bestDone := -1, 0.0
	for b := range x.buckets {
		s := x.buckets[b].lowestSet()
		if s < 0 {
			continue
		}
		// Same float expression as the linear scan's idle branch:
		// start = arrival + wake, done = start + svc.
		done := (t + x.wakes[b]) + svc
		if best < 0 || done < bestDone || (done == bestDone && s < best) {
			best, bestDone = s, done
		}
	}
	if s := x.tree.min(); !math.IsInf(x.tree.key[s], 1) {
		key := x.tree.key[s]
		done := key + svc
		if nextUp(key)+svc == done {
			// Distinct busy freeAts round to one completion; the scan keeps
			// the lowest index among them. The bound is finite, so idle
			// servers (+Inf keys) stay out of the descent.
			s = x.tree.leftmostLE(lastTie(key, func(k float64) float64 { return k + svc }))
		}
		if best < 0 || done < bestDone || (done == bestDone && s < best) {
			best = s
		}
	}

	// Commit: the picked server goes (or stays) busy; the shadow advances by
	// the engines' configuration, the idle schedule re-anchors at the new
	// freeAt, exactly as Engine.Process will when the job reaches it.
	s := best
	if b := x.bucketOf[s]; b >= 0 {
		x.buckets[b].clear(s)
		x.bucketOf[s] = -1
		x.gen[s]++ // orphan any scheduled crossing
	}
	nf := x.cfg.NextFreeAtAnchored(x.freeAt[s], x.anchor[s], j)
	x.freeAt[s], x.anchor[s] = nf, nf
	x.tree.key[s] = nf
	x.tree.update(s)
	return s
}

// advance brings the idle structures up to arrival time t: servers whose
// freeAt passed strictly below t leave the busy tree (arrival == freeAt is
// still the busy branch), and scheduled bucket crossings at or before t fire
// (occupiedPhase uses EnterAfter ≤ offset, so a boundary hit exactly at t
// counts).
func (x *lwlIndex) advance(t float64) {
	for x.tree.minKey() < t {
		x.goIdle(x.tree.min(), t)
	}
	for len(x.heap) > 0 && x.heap[0].t <= t {
		c := x.heapPop()
		s := int(c.s)
		if c.gen != x.gen[s] || x.bucketOf[s] != c.b-1 {
			continue // server went busy (or already migrated) since scheduling
		}
		x.buckets[c.b-1].clear(s)
		x.buckets[c.b].set(s)
		x.bucketOf[s] = c.b
		x.schedule(s, int(c.b))
	}
}

// goIdle moves server s from the busy tree into the bucket occupied at time
// t, and schedules its next crossing.
func (x *lwlIndex) goIdle(s int, t float64) {
	x.tree.key[s] = math.Inf(1)
	x.tree.update(s)
	// occupiedPhase(t - anchor) + 1, inlined over the cached boundaries.
	off := t - x.anchor[s]
	b := 0
	for b < len(x.enters) && x.enters[b] <= off {
		b++
	}
	x.buckets[b].set(s)
	x.bucketOf[s] = int32(b)
	x.schedule(s, b)
}

// schedule pushes server s's crossing out of bucket b, if a deeper phase
// exists. The boundary is the entryTime of the next phase, necessarily in the
// future of the scheduling instant.
func (x *lwlIndex) schedule(s, b int) {
	if b >= len(x.enters) {
		return // deepest phase: no further crossing
	}
	x.heapPush(crossing{t: entryTime(x.anchor[s], x.enters[b]), s: int32(s), b: int32(b + 1), gen: x.gen[s]})
	// Orphaned entries (server went busy before its crossing fired) are only
	// reclaimed when popped; compact if they pile up far beyond the k·phases
	// live bound.
	if len(x.heap) > 4*(len(x.freeAt)+16)*(len(x.enters)+1) {
		x.compact()
	}
}

// entryTime returns the first instant at which the scan sees a server whose
// idle schedule is anchored at anchor in a phase entered after e: the least
// float64 T with T − anchor ≥ e as rounded, since occupiedPhase reads the
// rounded offset. The rounded sum anchor + e can land an ulp either side of
// that instant, so the search starts there and steps up to an instant that
// reaches e, then down while the float below still does; a crossing at T
// then fires at arrival t exactly when the scan's offset t − anchor reaches e.
func entryTime(anchor, e float64) float64 {
	c := anchor + e
	for c-anchor < e {
		c = nextUp(c)
	}
	for p := fromOrdered(ordered(c) - 1); p-anchor >= e; p = fromOrdered(ordered(c) - 1) {
		c = p
	}
	return c
}

// compact drops orphaned heap entries in place and restores the heap order.
func (x *lwlIndex) compact() {
	live := x.heap[:0]
	for _, c := range x.heap {
		s := int(c.s)
		if c.gen == x.gen[s] && x.bucketOf[s] == c.b-1 {
			live = append(live, c)
		}
	}
	x.heap = live
	for i := len(x.heap)/2 - 1; i >= 0; i-- {
		x.siftDown(i)
	}
}

func (x *lwlIndex) heapPush(c crossing) {
	x.heap = append(x.heap, c)
	i := len(x.heap) - 1
	for i > 0 {
		p := (i - 1) / 2
		if x.heap[p].t <= x.heap[i].t {
			break
		}
		x.heap[p], x.heap[i] = x.heap[i], x.heap[p]
		i = p
	}
}

func (x *lwlIndex) heapPop() crossing {
	top := x.heap[0]
	last := len(x.heap) - 1
	x.heap[0] = x.heap[last]
	x.heap = x.heap[:last]
	if last > 0 {
		x.siftDown(0)
	}
	return top
}

func (x *lwlIndex) siftDown(i int) {
	n := len(x.heap)
	for {
		c := 2*i + 1
		if c >= n {
			return
		}
		if c+1 < n && x.heap[c+1].t < x.heap[c].t {
			c++
		}
		if x.heap[i].t <= x.heap[c].t {
			return
		}
		x.heap[i], x.heap[c] = x.heap[c], x.heap[i]
		i = c
	}
}
