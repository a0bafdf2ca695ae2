// Package par keeps the surface of a removed worker pool that the end-to-end
// benchmark (bench/ssbench) still compiles against: ssbench reads
// Default().Stats() around each pass for its par.pooled_runs,
// par.inline_runs and par.steals counters.
//
// No program code runs work on a pool: the policy manager's Select is a
// serial search and the farm serves every job inline. Stats therefore always
// returns zeros, which is what those three counters read on every workload.
// The package leaves together with the counters at the next change to the
// benchmark.
package par
