// Package stream is the bounded-memory workload subsystem: pull-based job
// sources that deliver arrival-ordered streams in caller-sized chunks, so
// week-long (or unbounded) traces drive the simulators in O(chunk) memory
// instead of materializing millions of jobs up front.
//
// # The Source contract
//
// A Source yields jobs through
//
//	Next(buf []queue.Job) (n int, ok bool)
//
// which writes up to len(buf) jobs into buf in non-decreasing arrival order
// and reports how many it wrote. n may be less than len(buf) even
// mid-stream; ok=false means the source is exhausted — the final n jobs (if
// any) are still valid, and every later Next returns (0, false) until
// Reset. Reset(seed) rewinds a source to its beginning with fresh
// deterministic randomness: equal seeds replay bit-identical streams, which
// is what makes streamed runs reproducible and comparable against
// materialized ones.
//
// Sources that can fail mid-stream (a column trace replay hitting an
// out-of-range slot)
// additionally expose Err() error; the free function Err checks any source
// for it. Drivers must check Err after exhaustion — a failing source simply
// ends early.
//
// In the spirit of the simulation kernel's reuse contract, Next allocates
// nothing in steady state: all cursor state lives in the source, and the
// caller owns the chunk buffer. CI gates allocs/op on the trace-driven
// generator (BenchmarkStreamSourceSteadyState).
//
// # Sources
//
//   - Trace / workload.TraceGen: the streaming port of
//     workload.Stats.TraceJobs — bit-identical to the materialized stream,
//     one generation core, two drivers.
//   - Stationary: a fixed-rate stream from workload statistics, the
//     streaming analogue of Stats.Jobs bounded by a time horizon.
//   - MMPP: a two-state (on/off) Markov-modulated Poisson process — the
//     bursty arrival structure scale-out workload studies stress.
//   - FlashCrowd: a Poisson base rate with randomly arriving
//     spike-and-exponential-decay rate overlays (shot noise), generated by
//     Ogata thinning.
//   - Diurnal: a sinusoidally modulated Poisson process with configurable
//     period and peak phase.
//   - Slice: adapts a materialized []queue.Job, making the old
//     materialized path a thin adapter over the streaming one.
//
// # Combinators
//
//   - Merge interleaves sources into one arrival-ordered stream (ties break
//     toward the earlier operand), e.g. a trace-driven baseline plus an
//     MMPP burst overlay.
//   - ScaleRate compresses time by a factor: arrival instants divide by it,
//     so the arrival rate multiplies; sizes are untouched.
//   - Splice plays one source until a cut time, then a second shifted to
//     start there — flash-crowd onset over a diurnal baseline, scenario
//     stitching.
//
// Combinator Reset derives child seeds deterministically — Merge gives
// child i seed + (i+1)·0x2545F4914F6CDD1D, Splice gives its two operands
// seed + 1·stride and seed + 2·stride with the same constant, and ScaleRate
// passes the seed through — so a composed scenario replays from one seed.
package stream
