// Package par is a persistent worker-pool runtime: a zero-spawn fan-out
// primitive for index-parallel work.
//
// No program code uses it any more. The policy manager's Select, its last
// user, became a serial best-first search that simulates only the candidates
// that can still win, and the farm's serve loop routes and serves every job
// inline. The package stays only because the end-to-end benchmark
// (bench/ssbench) reads Default().Stats() for its par.* counters, which now
// read 0; it can be deleted together with those counters at the next change
// to the benchmark. A many-core workload that brings a parallel path back
// with its own evidence would use Run.
//
// SleepScale's premise is that the policy search loop is cheap enough to run
// at runtime every epoch (paper §5–6), so a selection must not pay
// per-invocation setup. A Pool starts its workers once (sized to GOMAXPROCS
// by default, overridable), parks them on per-worker wake channels, hands
// out indices from an atomic ticket counter, and resynchronizes through a
// reusable completion barrier: steady-state fan-out costs no goroutine
// creation and no allocation.
//
// # Pool contract
//
//   - Run(n, maxWorkers, fn) calls fn(worker, i) exactly once per i in
//     [0, n), across at most min(Size, maxWorkers, n) executors. Executor 0
//     is the submitting goroutine itself — a pool of size 1 is a plain
//     inline loop with no handoff.
//   - Calls sharing a worker value are sequential on one goroutine, so
//     per-executor scratch (a pooled evaluator, a chunk buffer) indexed by
//     worker needs no locking. Worker ids are per-Run: two Runs may map the
//     same id to different goroutines.
//   - Run returns only when every index has completed. A panic in fn is
//     caught on the worker (which survives for the next run), recorded
//     first-wins, aborts the run's remaining indices, and is re-raised on
//     the submitter as *TaskPanic.
//   - Submissions share the workers: a Run issued while the pool is busy — a
//     concurrent caller or fn itself nesting — enqueues a run descriptor
//     that idle workers claim in submission order. The submitter always
//     participates in its own run, so nested submissions make progress even
//     when every worker is occupied; the pool can never deadlock on itself,
//     and a busy pool no longer silently degrades parallel call sites to the
//     inline loop. The only inline executions left are the structural
//     single-executor bounds (pool size 1, maxWorkers 1, n = 1), counted in
//     Stats.Inline so callers can assert their parallel paths actually
//     pooled.
//
// # Determinism rules
//
// The pool promises nothing about which worker executes which index or in
// what order indices complete. Callers on the simulator's bit-identical
// paths therefore follow one discipline: tasks write only to per-index (or
// per-worker) slots, never to shared accumulators, and all merging happens
// on the submitter in index order after Run returns. Under that discipline
// the result is bit-identical for every pool size — including 1, which is
// the serial reference the equivalence tests pin against — and regardless of
// worker interleaving.
package par
