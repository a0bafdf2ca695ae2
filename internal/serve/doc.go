// Package serve is the live serving subsystem: SleepScale as a long-running
// controller rather than a batch simulator. A Server drives the core
// package's incremental epoch machine from an unbounded wire stream of job
// arrivals and telemetry slots — a Unix/TCP socket, or a pipe replaying any
// recorded or synthetic stream.Source via Feed — and streams per-epoch
// stats and policy decisions out as NDJSON while teeing them to a colstore
// epoch log.
//
// Two contracts govern the package, both enforced by equivalence tests:
//
// Determinism: the live loop shares one epoch machine with the batch
// runners, so a Server fed a batch run's jobs and slots produces
// bit-identical epoch records — same decisions, same per-epoch energy
// deltas, same delay percentiles. The steady-state serve loop (decode
// event, advance the runner, emit NDJSON) allocates nothing and holds
// O(pending jobs + one epoch) memory however long the stream runs.
//
// Durability: with a checkpoint path configured, the runner's complete
// state — engine totals, predictor state, RNG cursor, policy-selection
// state, the job-log window and pending jobs — is written atomically every
// CheckpointEvery epochs and on graceful stop, with the previous snapshot
// rotated to ".prev". Checkpointing stays off the epoch path. Each
// boundary captures only what an open epoch changes; the job-log window is
// read from the runner's ring when a checkpoint is encoded, because only an
// epoch close changes it. The image is encoded into one reused buffer and
// handed to a background writer, which does the temp file, fsync,
// rotation, rename and directory sync. At most one write is in flight: a
// checkpoint waits only for a previous write that is still running, and
// every return from Serve — clean end, drain or error — waits for the
// write in flight, so none outlives it. A write error is returned at the
// next checkpoint, the drain or the clean end, whichever comes first. The
// epoch-log flush stays synchronous and precedes the hand-off, so every
// row a checkpoint counts is in the log before the checkpoint's rename.
// A run that is checkpointed, killed and restored
// produces the same epoch log as one that never stopped: closed epochs are
// buffered in memory and flushed to the log only at checkpoint time, the
// checkpoint records the log's row count and plan dictionary, and a restore
// cuts the log back to that high-water mark before the replayed epochs land
// again — exactly once, bit for bit. Truncated or CRC-damaged checkpoints
// fall back to the previous snapshot and error rather than panic.
package serve
