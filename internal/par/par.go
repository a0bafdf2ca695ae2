package par

// Pool is the handle Default returns. It runs nothing.
type Pool struct{}

// Stats is a snapshot of the pool's submission counters.
type Stats struct {
	// Inline counts runs executed on the submitting goroutine alone.
	Inline int64
	// Pooled counts runs dispatched to worker goroutines.
	Pooled int64
	// Steals counts indices taken from another executor's shard.
	Steals int64
}

var defaultPool Pool

// Default returns the process-wide pool.
func Default() *Pool { return &defaultPool }

// Stats reports the pool's counters, which are always zero: nothing submits
// work.
func (p *Pool) Stats() Stats { return Stats{} }
