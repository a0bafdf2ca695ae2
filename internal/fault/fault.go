package fault

import "fmt"

// Kind distinguishes the two fault transitions a server can make.
type Kind uint8

const (
	// Crash takes a server down instantly: jobs in flight on it are lost
	// and its engine stops consuming energy until repaired.
	Crash Kind = iota
	// Repair brings a crashed server back: it rejoins cold, paying its
	// deepest wake transition before serving again.
	Repair
)

// String returns the schedule-file spelling of the kind.
func (k Kind) String() string {
	switch k {
	case Crash:
		return "crash"
	case Repair:
		return "repair"
	default:
		return fmt.Sprintf("fault.Kind(%d)", uint8(k))
	}
}

// Event is one fault transition: server Server crashes or is repaired at
// simulated time Time (seconds from run start).
type Event struct {
	Time   float64
	Server int
	Kind   Kind
}

// Source is a pull-based, replayable fault-event stream, the failure-side
// sibling of stream.Source: Next fills buf with the next events in
// non-decreasing time order and Reset rewinds it reseeded, after which the
// same seed yields the same timeline event for event. Events for the same
// server must alternate crash/repair starting with a crash; consumers are
// entitled to reject streams that violate this.
type Source interface {
	Next(buf []Event) (n int, ok bool)
	Reset(seed int64)
}

// RetryPolicy bounds failover re-dispatch of jobs lost in flight on a
// crashing server. Each lost job is re-offered at
// crashTime + Backoff·attempt (attempt counting from 1), until it has been
// lost Budget times in total — after that it is dropped and accounted.
// The zero policy retries nothing: every lost job is an immediate drop.
type RetryPolicy struct {
	// Budget is the maximum number of times one job may be re-dispatched
	// after a loss. 0 means lost jobs are dropped outright.
	Budget int
	// Backoff is the delay, in seconds per attempt already made, added to
	// the crash instant to form the retry's new arrival time.
	Backoff float64
}

// Validate rejects unusable policies.
func (p RetryPolicy) Validate() error {
	if p.Budget < 0 {
		return fmt.Errorf("fault: retry budget must be >= 0, got %d", p.Budget)
	}
	if p.Backoff < 0 {
		return fmt.Errorf("fault: retry backoff must be >= 0, got %g", p.Backoff)
	}
	return nil
}
