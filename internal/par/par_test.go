package par

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestRunCoversEveryIndexOnce: the ticket counter must hand every index to
// exactly one executor, for sizes spanning inline-serial through oversized
// pools and for worker bounds above and below the pool size.
func TestRunCoversEveryIndexOnce(t *testing.T) {
	for _, size := range []int{1, 2, 4, 13} {
		for _, maxWorkers := range []int{0, 1, 3} {
			p := New(size)
			counts := make([]int32, 2000)
			p.Run(len(counts), maxWorkers, func(_, i int) {
				atomic.AddInt32(&counts[i], 1)
			})
			for i, c := range counts {
				if c != 1 {
					t.Fatalf("size=%d max=%d: index %d executed %d times", size, maxWorkers, i, c)
				}
			}
			p.Close()
		}
	}
}

// TestRunShardFairness: with tasks long enough for the scheduler to rotate
// executors, the dynamic ticket counter spreads work across the pool. The
// pool guarantees nothing about which executor takes which shard, so the
// distribution assertion (more than one executor participated, none hoarded
// the whole stream) is retried a few times: only a systematic failure —
// every attempt served by a single executor — fails the test. Exactly-once
// coverage is asserted unconditionally on every attempt.
func TestRunShardFairness(t *testing.T) {
	const n, size, attempts = 400, 4, 5
	p := New(size)
	defer p.Close()
	for attempt := 1; attempt <= attempts; attempt++ {
		perWorker := make([]int32, size)
		p.Run(n, 0, func(w, _ int) {
			atomic.AddInt32(&perWorker[w], 1)
			time.Sleep(100 * time.Microsecond)
		})
		total, participants := int32(0), 0
		for _, c := range perWorker {
			total += c
			if c > 0 {
				participants++
			}
		}
		if total != n {
			t.Fatalf("attempt %d executed %d shards, want %d", attempt, total, n)
		}
		if participants > 1 {
			return // work spread across executors — fairness observed
		}
	}
	t.Errorf("one executor served every shard in all %d attempts", attempts)
}

// TestRunWorkerBound: maxWorkers caps the executor ids a run may use.
func TestRunWorkerBound(t *testing.T) {
	p := New(8)
	defer p.Close()
	var maxSeen atomic.Int32
	p.Run(500, 2, func(w, _ int) {
		if int32(w) > maxSeen.Load() {
			maxSeen.Store(int32(w))
		}
		time.Sleep(10 * time.Microsecond)
	})
	if maxSeen.Load() > 1 {
		t.Errorf("worker id %d observed with maxWorkers=2", maxSeen.Load())
	}
}

// TestPoolSize1MatchesSerial: a 1-pool must be bit-identical to the plain
// inline loop — same values, same order (it IS the inline loop).
func TestPoolSize1MatchesSerial(t *testing.T) {
	p := New(1)
	defer p.Close()
	var order []int
	p.Run(100, 0, func(w, i int) {
		if w != 0 {
			t.Fatalf("1-pool used worker %d", w)
		}
		order = append(order, i)
	})
	for i, got := range order {
		if got != i {
			t.Fatalf("1-pool executed index %d at position %d: not the serial order", got, i)
		}
	}
	if len(order) != 100 {
		t.Fatalf("executed %d indices, want 100", len(order))
	}
}

// TestDeterministicAcrossPoolSizes: under the per-index-slot discipline the
// merged result must be bit-identical for every pool size.
func TestDeterministicAcrossPoolSizes(t *testing.T) {
	compute := func(size int) []float64 {
		p := New(size)
		defer p.Close()
		out := make([]float64, 3000)
		p.Run(len(out), 0, func(_, i int) {
			v := float64(i)
			for k := 0; k < 50; k++ {
				v = v*1.0000001 + float64(k)
			}
			out[i] = v
		})
		return out
	}
	want := compute(1)
	for _, size := range []int{2, 4, runtime.GOMAXPROCS(0)} {
		got := compute(size)
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("size %d: out[%d] = %.17g, want %.17g", size, i, got[i], want[i])
			}
		}
	}
}

// TestPanicPropagation: a task panic must surface on the submitter as a
// *TaskPanic carrying the original value, abort the run's remaining shards,
// and leave the pool (and its workers) usable.
func TestPanicPropagation(t *testing.T) {
	p := New(4)
	defer p.Close()
	var executed atomic.Int32
	func() {
		defer func() {
			r := recover()
			if r == nil {
				t.Fatal("worker panic did not propagate")
			}
			tp, ok := r.(*TaskPanic)
			if !ok {
				t.Fatalf("recovered %T, want *TaskPanic", r)
			}
			if tp.Value != "boom" {
				t.Errorf("panic value = %v, want boom", tp.Value)
			}
			if len(tp.Stack) == 0 || tp.Error() == "" {
				t.Error("TaskPanic carries no stack")
			}
		}()
		p.Run(10000, 0, func(_, i int) {
			if i == 5 {
				panic("boom")
			}
			executed.Add(1)
			time.Sleep(10 * time.Microsecond)
		})
	}()
	if n := executed.Load(); n >= 9999 {
		t.Errorf("run was not aborted after the panic: %d tasks executed", n)
	}
	// The pool survives: workers recovered and parked again.
	counts := make([]int32, 500)
	p.Run(len(counts), 0, func(_, i int) { atomic.AddInt32(&counts[i], 1) })
	for i, c := range counts {
		if c != 1 {
			t.Fatalf("post-panic run broken: index %d executed %d times", i, c)
		}
	}
}

// TestPanicPropagationInline: the inline-serial fallback (a 1-pool here)
// honors the same *TaskPanic contract as the parallel path, and a nested
// Run's wrapped panic is not double-wrapped crossing the outer submission.
func TestPanicPropagationInline(t *testing.T) {
	check := func(t *testing.T, run func()) {
		t.Helper()
		defer func() {
			tp, ok := recover().(*TaskPanic)
			if !ok {
				t.Fatal("inline panic not wrapped as *TaskPanic")
			}
			if tp.Value != "inline boom" {
				t.Errorf("panic value = %v, want inline boom (unwrapped)", tp.Value)
			}
			if len(tp.Stack) == 0 {
				t.Error("TaskPanic carries no stack")
			}
		}()
		run()
	}
	p1 := New(1)
	defer p1.Close()
	check(t, func() { p1.Run(4, 0, func(_, _ int) { panic("inline boom") }) })
	// Nested: the inner Run wraps the panic on its own submission; the outer
	// submission must surface the original value, not a wrapped wrapper.
	p4 := New(4)
	defer p4.Close()
	check(t, func() {
		p4.Run(4, 0, func(_, _ int) {
			p4.Run(2, 0, func(_, _ int) { panic("inline boom") })
		})
	})
}

// TestReuseAcrossEpochs drives many back-to-back runs through one pool — the
// per-epoch cadence of the SleepScale runtime — checking full coverage every
// time; under -race this doubles as the barrier's publication test.
func TestReuseAcrossEpochs(t *testing.T) {
	p := New(4)
	defer p.Close()
	out := make([]int64, 1000)
	for epoch := 0; epoch < 200; epoch++ {
		want := int64(epoch)
		p.Run(len(out), 0, func(_, i int) { out[i] = want + int64(i) })
		// The barrier must have published every slot before Run returned.
		for i, v := range out {
			if v != want+int64(i) {
				t.Fatalf("epoch %d: out[%d] = %d, want %d", epoch, i, v, want+int64(i))
			}
		}
	}
}

// TestConcurrentRuns: concurrent submissions to one pool must all complete
// correctly — the run queue executes them on the shared worker set in
// submission order, none degrades to inline serial.
func TestConcurrentRuns(t *testing.T) {
	p := New(4)
	defer p.Close()
	var wg sync.WaitGroup
	results := make([][]int, 8)
	for g := range results {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			out := make([]int, 500)
			p.Run(len(out), 0, func(_, i int) { out[i] = g*1000 + i })
			results[g] = out
		}(g)
	}
	wg.Wait()
	for g, out := range results {
		for i, v := range out {
			if v != g*1000+i {
				t.Fatalf("goroutine %d: out[%d] = %d", g, i, v)
			}
		}
	}
}

// TestNestedRunDoesNotDeadlock: fn submitting to its own pool must complete
// rather than deadlocking — the nested submitter always participates in its
// own run, so progress never depends on another worker being free.
func TestNestedRunDoesNotDeadlock(t *testing.T) {
	p := New(4)
	defer p.Close()
	var inner atomic.Int32
	p.Run(8, 0, func(_, _ int) {
		p.Run(10, 0, func(_, _ int) { inner.Add(1) })
	})
	if inner.Load() != 80 {
		t.Fatalf("nested runs executed %d inner tasks, want 80", inner.Load())
	}
}

// TestRunEdgeCases: empty runs return immediately; Default is a singleton
// sized to GOMAXPROCS; New clamps non-positive sizes.
func TestRunEdgeCases(t *testing.T) {
	p := New(3)
	defer p.Close()
	p.Run(0, 0, func(_, _ int) { t.Fatal("fn called for n=0") })
	p.Run(-5, 0, func(_, _ int) { t.Fatal("fn called for n<0") })
	if Default() != Default() {
		t.Error("Default is not a singleton")
	}
	if got := Default().Size(); got != runtime.GOMAXPROCS(0) {
		t.Errorf("Default pool size %d, want GOMAXPROCS %d", got, runtime.GOMAXPROCS(0))
	}
	if got := New(0).Size(); got != runtime.GOMAXPROCS(0) {
		t.Errorf("New(0) size %d, want GOMAXPROCS %d", got, runtime.GOMAXPROCS(0))
	}
	// Closing a never-started pool is a no-op.
	New(5).Close()
}

// TestConcurrentRunsStayPooled pins the bugfix for the silent inline-serial
// degradation: concurrent submissions must all execute on the pool (Inline
// stays 0), and the overlap must be visible in the Shared counter.
func TestConcurrentRunsStayPooled(t *testing.T) {
	p := New(4)
	defer p.Close()
	var wg sync.WaitGroup
	var ready sync.WaitGroup
	gate := make(chan struct{})
	ready.Add(4)
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			ready.Done()
			<-gate
			// Long enough tasks that the submissions genuinely overlap.
			p.Run(64, 0, func(_, _ int) { time.Sleep(50 * time.Microsecond) })
		}()
	}
	ready.Wait()
	close(gate)
	wg.Wait()
	st := p.Stats()
	if st.Inline != 0 {
		t.Errorf("%d concurrent submissions degraded to inline serial, want 0", st.Inline)
	}
	if st.Pooled != 4 {
		t.Errorf("Pooled = %d, want 4", st.Pooled)
	}
	if st.Shared == 0 {
		t.Error("no submission observed another active run; overlap not exercised")
	}
}

// TestNestedRunsStayPooled: nested submissions go through the run queue too —
// the old pool forced every nested Run to inline serial.
func TestNestedRunsStayPooled(t *testing.T) {
	p := New(4)
	defer p.Close()
	var inner atomic.Int32
	p.Run(4, 0, func(_, _ int) {
		p.Run(16, 0, func(_, _ int) { inner.Add(1) })
	})
	if inner.Load() != 64 {
		t.Fatalf("nested runs executed %d inner tasks, want 64", inner.Load())
	}
	if st := p.Stats(); st.Inline != 0 {
		t.Errorf("%d nested submissions degraded to inline serial, want 0", st.Inline)
	}
}

// TestStatsInlineCountsSingleExecutorRuns: the Inline counter tracks exactly
// the structural single-executor bounds — pool size 1, maxWorkers 1, n = 1.
func TestStatsInlineCountsSingleExecutorRuns(t *testing.T) {
	p1 := New(1)
	defer p1.Close()
	p1.Run(10, 0, func(_, _ int) {})
	if st := p1.Stats(); st.Inline != 1 || st.Pooled != 0 {
		t.Errorf("1-pool stats = %+v, want Inline 1 Pooled 0", st)
	}
	p := New(4)
	defer p.Close()
	p.Run(10, 1, func(_, _ int) {}) // maxWorkers 1
	p.Run(1, 0, func(_, _ int) {})  // n 1
	p.Run(10, 0, func(_, _ int) {}) // genuinely parallel
	if st := p.Stats(); st.Inline != 2 || st.Pooled != 1 {
		t.Errorf("stats = %+v, want Inline 2 Pooled 1", st)
	}
}

// TestSteadyStateZeroAlloc pins the pool's own contract: once workers are
// started, a Run allocates nothing (wakes, tickets and the barrier are all
// reusable). Skipped under -race, which instruments allocations.
func TestSteadyStateZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	p := New(4)
	defer p.Close()
	sink := make([]int64, 256)
	fn := func(w, i int) { sink[i] = int64(w) }
	p.Run(len(sink), 0, fn) // start workers, warm the barrier
	avg := testing.AllocsPerRun(10, func() {
		p.Run(len(sink), 0, fn)
	})
	if avg != 0 {
		t.Errorf("steady-state Run allocates %.1f/run, want 0", avg)
	}
}
