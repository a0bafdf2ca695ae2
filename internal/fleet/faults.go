package fleet

import (
	"fmt"
	"math"
	"slices"

	"sleepscale/internal/farm"
	"sleepscale/internal/fault"
	"sleepscale/internal/queue"
)

// This file holds the coordinator's serve path: the segment walker that
// interleaves fault events with job arrivals inside an epoch, the
// crash/repair application, the in-flight ledger behind the conservation
// invariant, and the bounded retry queue. A run without Config.Faults walks
// an empty timeline: one segment per epoch and nothing to apply.

// noFaults is the empty timeline New installs when Config.Faults is nil.
type noFaults struct{}

func (noFaults) Next([]fault.Event) (int, bool) { return 0, false }
func (noFaults) Reset(int64)                    {}

// pendJob tracks one job in flight on a server: dispatched, response known
// analytically, completion not yet reached. If the server crashes before
// completion the job is lost and re-offered through the retry queue.
// respIdx indexes the job's response in the current epoch's accumulation,
// or -1 once the epoch that dispatched it has closed (its response is
// already published in that epoch's statistics; a later loss can no longer
// be masked out of them, though the engine-side sample is still corrected).
type pendJob struct {
	size, completion float64
	attempt          int
	respIdx          int
}

// retryJob is one lost job awaiting re-dispatch at its backed-off arrival.
// seq breaks arrival ties in loss order, keeping the replay deterministic.
type retryJob struct {
	arrival, size float64
	attempt       int
	seq           uint64
}

// resetFaults rewinds all fault-mode state for a fresh Run.
func (c *Coordinator) resetFaults() {
	rep := &c.report
	rep.Offered, rep.Completed, rep.Requeued, rep.Dropped = 0, 0, 0, 0
	rep.Retries, rep.Crashes, rep.Repairs = 0, 0, 0
	rep.FaultEvents = nil
	c.offered, c.completed, c.dropped = 0, 0, 0
	c.retries, c.crashes, c.repairs = 0, 0, 0
	c.epCrash, c.epRepair, c.epLost, c.epDrop = 0, 0, 0, 0
	c.faultLog = c.faultLog[:0]
	c.retryq = c.retryq[:0]
	c.retrySeq = 0
	for s := range c.pending {
		c.pending[s] = c.pending[s][:0]
	}
	c.cfg.Faults.Reset(c.cfg.Seed)
	c.faultCur.Reset(c.cfg.Faults)
}

// serveEpochFaults serves one epoch's collected jobs with the fault timeline
// interleaved: the epoch is cut into segments at each event instant, every
// segment's arrivals (offered jobs merged with due retries) are served over
// the current healthy active set, and the event is applied at the cut. An
// event at exactly the epoch's start applies after openEpoch's boundary
// decisions and before any arrival. An epoch with no events — every epoch
// of a run without fault injection — is a single segment serving the
// offered jobs in one pass.
func (c *Coordinator) serveEpochFaults(epochStart, epochEnd float64) error {
	c.eJobs = c.eJobs[:0]
	c.eSrv = c.eSrv[:0]
	c.eResp = c.eResp[:0]
	c.eLost = c.eLost[:0]
	c.offered += len(c.epochJobs)
	pos := 0
	segStart := epochStart
	for {
		segEnd := epochEnd
		ev, haveEv := c.faultCur.Peek()
		if haveEv && ev.Time < epochEnd {
			segEnd = ev.Time
		} else {
			haveEv = false
		}
		// Merge offered jobs and due retries in arrival order onto the epoch
		// accumulation; a retry whose backed-off arrival is already past
		// re-enters at the segment start (ties go to the retry, then loss
		// order via the heap).
		base := len(c.eJobs)
		c.segAtt = c.segAtt[:0]
		for {
			var ra float64
			haveRetry := len(c.retryq) > 0 && c.retryq[0].arrival < segEnd
			if haveRetry {
				ra = math.Max(c.retryq[0].arrival, segStart)
			}
			haveJob := pos < len(c.epochJobs) && c.epochJobs[pos].Arrival < segEnd
			switch {
			case haveRetry && (!haveJob || ra <= c.epochJobs[pos].Arrival):
				rj := c.popRetry()
				c.eJobs = append(c.eJobs, queue.Job{Arrival: ra, Size: rj.size})
				c.segAtt = append(c.segAtt, rj.attempt)
			case haveJob:
				c.eJobs = append(c.eJobs, c.epochJobs[pos])
				c.segAtt = append(c.segAtt, 0)
				pos++
			default:
				goto serve
			}
		}
	serve:
		if err := c.serveSegment(base); err != nil {
			return err
		}
		if !haveEv {
			return nil
		}
		c.faultCur.Advance()
		if err := c.applyFault(ev); err != nil {
			return err
		}
		segStart = segEnd
	}
}

// serveSegment routes the segment's jobs — the epoch accumulation from
// base on — over the healthy active set through the reusable Select view,
// writes each response and real server id into the accumulation in place,
// and enters every dispatch in the in-flight ledger. With no healthy server
// anywhere, arrivals are lost on arrival: they leave the accumulation and
// run through the same retry budget as in-flight losses.
func (c *Coordinator) serveSegment(base int) error {
	seg := c.eJobs[base:]
	n := len(seg)
	if n == 0 {
		return nil
	}
	if len(c.actList) == 0 {
		for i, j := range seg {
			c.epLost++
			c.requeueLost(j.Arrival, j.Size, c.segAtt[i])
		}
		c.eJobs = c.eJobs[:base]
		return nil
	}
	var err error
	if c.view, err = c.f.Select(c.view, c.actList); err != nil {
		return err
	}
	c.eResp = slices.Grow(c.eResp, n)[:base+n]
	c.eSrv = slices.Grow(c.eSrv, n)[:base+n]
	c.view.RecordServe(c.eResp[base:], c.eSrv[base:])
	c.src.jobs, c.src.pos = seg, 0
	if _, err := c.view.ServeSourceSliced(&c.src, farm.DispatchOptions{}); err != nil {
		return fmt.Errorf("fleet: epoch %d: %w", c.epoch, err)
	}
	for i := base; i < base+n; i++ {
		real := c.actList[c.eSrv[i]]
		c.eSrv[i] = real
		c.pending[real] = append(c.pending[real], pendJob{
			size:       c.eJobs[i].Size,
			completion: c.eJobs[i].Arrival + c.eResp[i],
			attempt:    c.segAtt[i-base],
			respIdx:    i,
		})
		c.eLost = append(c.eLost, false)
	}
	return nil
}

// applyFault validates and applies one event at its instant.
func (c *Coordinator) applyFault(ev fault.Event) error {
	if ev.Server < 0 || ev.Server >= c.k {
		return fmt.Errorf("fleet: fault event at t=%g: server %d outside fleet of %d", ev.Time, ev.Server, c.k)
	}
	switch ev.Kind {
	case fault.Crash:
		if c.downSrv[ev.Server] {
			return fmt.Errorf("fleet: fault event at t=%g: server %d crashed while already down", ev.Time, ev.Server)
		}
		return c.applyCrash(ev)
	case fault.Repair:
		if !c.downSrv[ev.Server] {
			return fmt.Errorf("fleet: fault event at t=%g: server %d repaired while up", ev.Time, ev.Server)
		}
		return c.applyRepair(ev)
	default:
		return fmt.Errorf("fleet: fault event at t=%g: unknown kind %d", ev.Time, uint8(ev.Kind))
	}
}

// applyCrash takes a server down at ev.Time: in-flight jobs whose FCFS
// completion has not been reached are lost (their responses retracted from
// the engine sample and masked out of this epoch's statistics) and
// re-offered through the retry budget; the engine refunds the energy it
// had pre-billed past the crash instant. If the crash empties the active
// set while healthy parked servers remain, the lowest-indexed one is
// emergency-unparked at the crash instant so routing can go on.
func (c *Coordinator) applyCrash(ev fault.Event) error {
	s, tc := ev.Server, ev.Time
	// FCFS completions are non-decreasing in dispatch order, so the
	// completed jobs form a prefix of the in-flight ledger.
	pend := c.pending[s]
	done := 0
	for done < len(pend) && pend[done].completion <= tc {
		done++
	}
	c.completed += done
	lost := pend[done:]
	if err := c.f.Server(s).CrashAt(tc, len(lost)); err != nil {
		return fmt.Errorf("fleet: epoch %d server %d crash at t=%g: %w", c.epoch, s, tc, err)
	}
	for i := range lost {
		if idx := lost[i].respIdx; idx >= 0 {
			c.eLost[idx] = true
		}
		c.epLost++
		c.requeueLost(tc, lost[i].size, lost[i].attempt)
	}
	c.pending[s] = pend[:0]
	c.downSrv[s] = true
	c.downCount++
	c.crashes++
	c.epCrash++
	c.parked[s] = false
	c.healthy = removeSorted(c.healthy, s)
	c.actList = removeSorted(c.actList, s)
	c.faultLog = append(c.faultLog, ev)
	if len(c.actList) == 0 && len(c.healthy) > 0 {
		u := c.healthy[0]
		if err := c.f.Server(u).WakeAt(tc); err != nil {
			return fmt.Errorf("fleet: epoch %d server %d emergency unpark at t=%g: %w", c.epoch, u, tc, err)
		}
		c.parked[u] = false
		c.actList = append(c.actList, u)
		c.unpark++
	}
	return nil
}

// applyRepair brings a crashed server back at ev.Time: its engine rejoins
// cold, paying the deepest wake, and the server joins the active set
// immediately — under the configuration it crashed with until the next
// epoch boundary re-decides for it.
func (c *Coordinator) applyRepair(ev fault.Event) error {
	s, tr := ev.Server, ev.Time
	if err := c.f.Server(s).RejoinAt(tr); err != nil {
		return fmt.Errorf("fleet: epoch %d server %d repair at t=%g: %w", c.epoch, s, tr, err)
	}
	c.downSrv[s] = false
	c.downCount--
	c.repairs++
	c.epRepair++
	c.parked[s] = false
	c.healthy = insertSorted(c.healthy, s)
	c.actList = insertSorted(c.actList, s)
	c.faultLog = append(c.faultLog, ev)
	return nil
}

// requeueLost runs one lost job through the retry policy: re-offered at
// at + Backoff·attempt with the attempt count bumped, or dropped once the
// budget is spent. Every loss lands in exactly one of the two buckets, which
// is what makes the conservation ledger close.
func (c *Coordinator) requeueLost(at, size float64, attempt int) {
	if attempt >= c.cfg.Retry.Budget {
		c.dropped++
		c.epDrop++
		return
	}
	c.retries++
	next := attempt + 1
	c.pushRetry(retryJob{
		arrival: at + c.cfg.Retry.Backoff*float64(next),
		size:    size,
		attempt: next,
		seq:     c.retrySeq,
	})
	c.retrySeq++
}

// settleEpoch trims jobs completed by the epoch's end out of the in-flight
// ledger and unbinds the survivors from the recycled per-epoch response
// accumulation.
func (c *Coordinator) settleEpoch(epochEnd float64) {
	for s := range c.pending {
		pend := c.pending[s]
		done := 0
		for done < len(pend) && pend[done].completion <= epochEnd {
			done++
		}
		c.completed += done
		rest := pend[:copy(pend, pend[done:])]
		for i := range rest {
			rest[i].respIdx = -1
		}
		c.pending[s] = rest
	}
}

// retryLess orders the retry queue by backed-off arrival, then loss order.
func retryLess(a, b retryJob) bool {
	if a.arrival != b.arrival {
		return a.arrival < b.arrival
	}
	return a.seq < b.seq
}

// pushRetry adds a job to the retry min-heap.
func (c *Coordinator) pushRetry(rj retryJob) {
	c.retryq = append(c.retryq, rj)
	i := len(c.retryq) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !retryLess(c.retryq[i], c.retryq[parent]) {
			break
		}
		c.retryq[i], c.retryq[parent] = c.retryq[parent], c.retryq[i]
		i = parent
	}
}

// popRetry removes and returns the earliest retry.
func (c *Coordinator) popRetry() retryJob {
	q := c.retryq
	top := q[0]
	last := len(q) - 1
	q[0] = q[last]
	c.retryq = q[:last]
	i, n := 0, last
	for {
		l, r := 2*i+1, 2*i+2
		small := i
		if l < n && retryLess(q[l], q[small]) {
			small = l
		}
		if r < n && retryLess(q[r], q[small]) {
			small = r
		}
		if small == i {
			break
		}
		q[i], q[small] = q[small], q[i]
		i = small
	}
	return top
}

// insertSorted inserts v into ascending list s (v must be absent).
func insertSorted(s []int, v int) []int {
	i := len(s)
	s = append(s, v)
	for i > 0 && s[i-1] > v {
		s[i] = s[i-1]
		i--
	}
	s[i] = v
	return s
}

// removeSorted removes v from ascending list s if present.
func removeSorted(s []int, v int) []int {
	for i, x := range s {
		if x == v {
			return append(s[:i], s[i+1:]...)
		}
	}
	return s
}
