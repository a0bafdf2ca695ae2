package par

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
)

// Pool is a persistent set of worker goroutines executing indexed task sets.
// Workers are started lazily on the first parallel submission and then parked
// on per-worker wake channels between runs, so steady-state use spawns no
// goroutines and allocates nothing: a Run costs one channel send per woken
// worker, an atomic ticket per index, and one send/receive on the submitting
// run's reusable completion barrier.
//
// Submissions share the worker set: concurrent and nested Runs are queued as
// independent run descriptors that idle workers pull from in submission
// order, so a busy pool never silently degrades a parallel call site to the
// inline-serial loop (the submitter always participates in its own run, which
// also makes nested submissions deadlock-free). The only inline executions
// left are the structural ones — a single-executor bound (pool size 1,
// maxWorkers 1, or n = 1) — and Stats counts them so callers can assert their
// parallel paths actually ran on the pool.
//
// The zero Pool is not usable; construct with New or use the process-wide
// Default.
type Pool struct {
	size int

	// mu guards the run queue, the parked-worker set, the recycled run
	// descriptors and worker startup. Ticket draining is lock-free; the
	// mutex is only taken at run enqueue/claim/retire edges.
	mu      sync.Mutex
	started bool
	active  []*run
	free    []*run
	parked  []int
	wake    []chan struct{}

	inline atomic.Int64
	pooled atomic.Int64
	shared atomic.Int64
}

// run is one submission's descriptor. Descriptors are pool-owned and
// recycled, so steady-state submissions allocate nothing.
type run struct {
	n  int
	fn func(worker, i int)

	// next hands out index tickets.
	next atomic.Int64

	// slots hands out run-local executor ids (0 = submitter), bounded by
	// maxSlots; claimed under the pool mutex. refs tracks executors still
	// inside drainRun, so a descriptor is only recycled after the last one
	// has left — a claimed-but-slow executor must never observe a reused
	// descriptor.
	slots    int
	maxSlots int
	refs     atomic.Int32
	retired  bool
	freed    bool

	// pending counts indices not yet executed (or abandoned by a panic);
	// the executor whose batch takes it to zero signals the reusable done
	// barrier the submitter waits on.
	pending atomic.Int64
	done    chan struct{}

	panicMu    sync.Mutex
	panicVal   any
	panicStack []byte
}

// New returns a pool of size executors; size < 1 picks runtime.GOMAXPROCS(0).
// One executor is the submitting goroutine itself, so a pool of size n parks
// n-1 background workers. Pools are intended to live for the process (Default
// does); short-lived pools should be Closed to release their workers.
func New(size int) *Pool {
	if size < 1 {
		size = runtime.GOMAXPROCS(0)
	}
	return &Pool{size: size}
}

var (
	defaultOnce sync.Once
	defaultPool *Pool
)

// Default returns the process-wide pool, sized to runtime.GOMAXPROCS(0) at
// first use, so every caller in the process shares one persistent worker
// set.
func Default() *Pool {
	defaultOnce.Do(func() { defaultPool = New(0) })
	return defaultPool
}

// Size reports the pool's executor count (background workers plus the
// submitter).
func (p *Pool) Size() int { return p.size }

// Stats is a snapshot of the pool's submission counters.
type Stats struct {
	// Inline counts runs executed on the submitting goroutine alone because
	// the executor bound was 1 (pool size, maxWorkers, or n). Busy or nested
	// pools no longer force this path; a parallel call site that expects to
	// fan out can assert Inline did not grow.
	Inline int64
	// Pooled counts runs dispatched to the shared worker set.
	Pooled int64
	// Shared counts pooled runs that overlapped at least one other active
	// run — submissions that the pre-queue pool would have serialized.
	Shared int64
	// Steals always reads 0: the pool hands out indices from one shared
	// ticket counter, so no executor owns a shard another could steal
	// from. The field stays because the end-to-end benchmark
	// (bench/ssbench) reports it.
	Steals int64
}

// Stats returns a snapshot of the pool's counters.
func (p *Pool) Stats() Stats {
	return Stats{
		Inline: p.inline.Load(),
		Pooled: p.pooled.Load(),
		Shared: p.shared.Load(),
	}
}

// TaskPanic is the value Run re-panics with on the submitting goroutine when
// a task function panicked on a worker: the original value plus the worker's
// stack. Only the first panic of a run is kept; the run's remaining indices
// are abandoned.
type TaskPanic struct {
	// Value is the original panic value.
	Value any
	// Stack is the panicking worker's stack trace.
	Stack []byte
}

func (t *TaskPanic) Error() string {
	return fmt.Sprintf("par: task panicked: %v\n%s", t.Value, t.Stack)
}

// Run executes fn(worker, i) exactly once for every i in [0, n), distributing
// indices across at most min(Size, maxWorkers, n) executors (maxWorkers ≤ 0
// means no extra bound). Indices are handed out from an atomic ticket
// counter, so distribution is dynamic; worker identifies the executor slot
// within this run, 0 ≤ worker < the executor bound, and all calls sharing a
// worker value are sequential on one goroutine — per-executor scratch
// indexed by worker needs no locking. Run returns once every index has
// completed (the reusable barrier), and re-panics on the submitter — as a
// *TaskPanic — if any task panicked.
//
// Determinism contract: Run promises nothing about which worker executes
// which index, so callers must make results independent of the interleaving —
// write only to per-index (or per-worker) slots and merge in index order
// afterwards. Under that discipline every pool size, including 1, produces
// bit-identical results; the single-executor case runs inline on the
// submitter with no handoff at all. Concurrent and nested submissions share
// the worker set through the run queue and stay bit-identical too.
func (p *Pool) Run(n, maxWorkers int, fn func(worker, i int)) {
	if n <= 0 {
		return
	}
	workers := p.size
	if workers > n {
		workers = n
	}
	if maxWorkers > 0 && workers > maxWorkers {
		workers = maxWorkers
	}
	if workers <= 1 {
		p.inline.Add(1)
		runSerial(n, fn)
		return
	}

	p.mu.Lock()
	if !p.started {
		p.startWorkers()
	}
	r := p.getRun()
	r.n, r.fn, r.maxSlots = n, fn, workers
	r.slots = 1 // the submitter is executor 0
	r.refs.Store(1)
	r.retired = false
	r.freed = false
	r.pending.Store(int64(n))
	r.next.Store(0)
	if len(p.active) > 0 {
		p.shared.Add(1)
	}
	p.active = append(p.active, r)
	p.pooled.Add(1)
	for toWake := workers - 1; toWake > 0 && len(p.parked) > 0; toWake-- {
		w := p.parked[len(p.parked)-1]
		p.parked = p.parked[:len(p.parked)-1]
		p.wake[w] <- struct{}{}
	}
	p.mu.Unlock()

	p.finish(r, p.drainRun(r, 0))
	<-r.done

	r.panicMu.Lock()
	val, stack := r.panicVal, r.panicStack
	r.panicVal, r.panicStack = nil, nil
	r.panicMu.Unlock()

	p.mu.Lock()
	p.removeActive(r)
	r.retired = true
	r.fn = nil // do not pin the closure between runs
	// The last departing executor may race this section on refs; the freed
	// latch makes recycling single-shot whichever side observes zero last.
	if r.refs.Load() == 0 && !r.freed {
		r.freed = true
		p.free = append(p.free, r)
	}
	p.mu.Unlock()

	if val != nil {
		panic(&TaskPanic{Value: val, Stack: stack})
	}
}

// getRun returns a recycled run descriptor, allocating only when the pool has
// never had this many overlapping submissions. Called with mu held.
func (p *Pool) getRun() *run {
	if k := len(p.free); k > 0 {
		r := p.free[k-1]
		p.free = p.free[:k-1]
		return r
	}
	return &run{done: make(chan struct{}, 1)}
}

// removeActive unlinks r from the active queue if still present. Called with
// mu held.
func (p *Pool) removeActive(r *run) {
	for i, a := range p.active {
		if a == r {
			p.active = append(p.active[:i], p.active[i+1:]...)
			return
		}
	}
}

// runSerial is the inline path for single-executor bounds: the plain serial
// loop, with panics wrapped as *TaskPanic so the panic contract is uniform
// across pool sizes.
func runSerial(n int, fn func(worker, i int)) {
	defer func() {
		if r := recover(); r != nil {
			if tp, ok := r.(*TaskPanic); ok { // nested Run already wrapped it
				panic(tp)
			}
			panic(&TaskPanic{Value: r, Stack: debug.Stack()})
		}
	}()
	for i := 0; i < n; i++ {
		fn(0, i)
	}
}

// startWorkers launches the size-1 background workers, each born parked on
// its wake channel — and registered in the parked list, so the very first
// submission can wake them. Called with mu held.
func (p *Pool) startWorkers() {
	p.started = true
	p.wake = make([]chan struct{}, p.size)
	p.parked = p.parked[:0]
	for w := 1; w < p.size; w++ {
		p.wake[w] = make(chan struct{}, 1)
		p.parked = append(p.parked, w)
		go p.worker(w, p.wake[w])
	}
}

// worker is one background executor: woken when runs are queued, it drains
// every claimable run (its own slot per run), parks when the queue is empty,
// and exits when its wake channel is closed. It owns its wake channel
// reference, so Close (which drops the pool's slice) cannot race a worker
// still starting up.
func (p *Pool) worker(w int, wake <-chan struct{}) {
	for {
		if _, ok := <-wake; !ok {
			return
		}
		for {
			r, slot := p.claimOrPark(w)
			if r == nil {
				break
			}
			p.finish(r, p.drainRun(r, slot))
		}
	}
}

// claimOrPark hands the worker the oldest active run with tickets and a free
// executor slot, or atomically parks it — the re-check and the parking happen
// under one critical section, so a submission can never slip between them and
// leave the worker asleep with work queued.
func (p *Pool) claimOrPark(w int) (*run, int) {
	p.mu.Lock()
	defer p.mu.Unlock()
	for i := 0; i < len(p.active); {
		r := p.active[i]
		if !r.hasTickets() {
			// Fully handed out: drop it from the claim queue (its executors
			// finish on their own; the submitter does the final retire).
			p.active = append(p.active[:i], p.active[i+1:]...)
			continue
		}
		if r.slots < r.maxSlots {
			slot := r.slots
			r.slots++
			r.refs.Add(1)
			return r, slot
		}
		i++
	}
	p.parked = append(p.parked, w)
	return nil, 0
}

// hasTickets reports whether the run still has indices to hand out.
func (r *run) hasTickets() bool {
	return r.next.Load() < int64(r.n)
}

// finish retires one executor's participation: its executed-index batch is
// subtracted from the run's pending count (the executor whose batch reaches
// zero signals the submitter's barrier), and the descriptor is recycled once
// the submitter has retired it and no executor still holds it.
func (p *Pool) finish(r *run, executed int64) {
	if executed > 0 && r.pending.Add(-executed) == 0 {
		r.done <- struct{}{}
	}
	if r.refs.Add(-1) == 0 {
		p.mu.Lock()
		if r.retired && !r.freed {
			r.freed = true
			p.free = append(p.free, r)
		}
		p.mu.Unlock()
	}
}

// drainRun executes r's indices on executor slot until none remain,
// returning how many indices this executor accounted for (executed, plus any
// abandoned by a panic it recovered). A panicking task is recovered so the
// goroutine survives: the first panic is recorded for the submitter to
// re-raise, and the remaining tickets are fast-forwarded — and counted here —
// so the run completes as abandoned rather than deadlocking the barrier.
func (p *Pool) drainRun(r *run, slot int) (executed int64) {
	defer func() {
		if rec := recover(); rec != nil {
			executed += r.abort(rec) + 1 // +1: the panicking index itself
		}
	}()
	n := int64(r.n)
	for {
		t := r.next.Add(1) - 1
		if t >= n {
			return executed
		}
		r.fn(slot, int(t))
		executed++
	}
}

// abort records the first panic of a run and fast-forwards every remaining
// ticket, returning how many indices the fast-forward abandoned (they are
// accounted as completed so the barrier releases).
func (r *run) abort(rec any) (abandoned int64) {
	val, stack := rec, []byte(nil)
	if tp, ok := rec.(*TaskPanic); ok { // a nested Run wrapped it already
		val, stack = tp.Value, tp.Stack
	}
	if stack == nil {
		stack = debug.Stack()
	}
	r.panicMu.Lock()
	if r.panicVal == nil {
		r.panicVal = val
		r.panicStack = stack
	}
	r.panicMu.Unlock()
	n := int64(r.n)
	if old := r.next.Swap(n); old < n {
		abandoned += n - old
	}
	return abandoned
}

// Close releases the pool's background workers. The pool must be idle and
// must not be used afterwards; Close exists so tests and short-lived tools
// can avoid accumulating parked goroutines. Closing a pool whose workers
// never started is a no-op.
func (p *Pool) Close() {
	p.mu.Lock()
	defer p.mu.Unlock()
	for w := 1; w < len(p.wake); w++ {
		close(p.wake[w])
	}
	p.wake = nil
	p.parked = nil
	p.started = false
}
