// Package par is the simulator's persistent worker-pool runtime: a sharded,
// zero-spawn fan-out primitive shared by every parallel hot path (policy
// selection and the farm's time-sliced streaming dispatch).
//
// SleepScale's premise is that the policy search loop is cheap enough to run
// at runtime every epoch (paper §5–6), so the simulator's parallel drivers
// must not pay per-invocation setup. Before this package each of them spawned
// a fresh goroutine set — and the time-sliced dispatcher spawned one per
// slice. A Pool starts its workers once (sized to GOMAXPROCS by default,
// overridable), parks them on per-worker wake channels, hands out work as
// index shards from an atomic ticket counter, and resynchronizes through a
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
//     first-wins, aborts the run's remaining shards, and is re-raised on
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
// # Shard ownership and stealing
//
// RunSharded is Run with a static partition instead of the dynamic ticket
// counter: the index range is cut into one contiguous shard per executor
// slot — slot w owns [w·n/W, (w+1)·n/W) — and each executor drains its own
// shard front to back before stealing from the fullest remaining one. The
// partition depends only on (n, executor bound), so repeated same-shape calls
// hand every slot the same indices each time: a caller pinning state to
// indices — the farm pins queue engines to servers — keeps each executor's
// working set hot across barriers instead of re-sharding it every call, while
// stealing still absorbs imbalanced shards (Stats.Steals observes it). The
// executor bound, worker-id semantics, panic contract and determinism rules
// are exactly Run's.
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
// worker interleaving. This is exactly the contract the farm's deterministic
// server-order merge and the policy manager's per-candidate evaluation slots
// were already built around; the pool makes it explicit.
package par
