package serve

import (
	"fmt"
	"io"
	"os"
	"strconv"
	"sync/atomic"

	"sleepscale/internal/colstore"
	"sleepscale/internal/core"
	"sleepscale/internal/fault"
	"sleepscale/internal/stream"
)

// Config describes one daemon serve session.
type Config struct {
	// Runner configures the live epoch runner.
	Runner core.LiveConfig
	// CheckpointPath, when set, enables durable state: the runner state is
	// captured at every epoch boundary (without copying the job-log window)
	// and written atomically every CheckpointEvery epochs and on Stop. A
	// background writer does the file work, one write at a time, and Serve
	// waits for it before returning. A write error therefore surfaces up to
	// one cadence later than the boundary that wrote it: at the next
	// periodic checkpoint, the drain or the clean end, whichever comes
	// first. Empty disables checkpointing — the mode the steady-state
	// benchmark gates at 0 allocs/op.
	CheckpointPath string
	// CheckpointEvery is the checkpoint cadence in epochs (default 16).
	CheckpointEvery int
	// EpochLogPath, when set, tees closed epochs to the colstore epoch log,
	// exactly once across restarts: rows land at checkpoint time, and a
	// restore rewrites the log back to the checkpoint's row high-water mark
	// before re-emitting.
	EpochLogPath string
	// Out, when set, streams one NDJSON object per closed epoch, written
	// immediately (at-least-once across restarts: a replayed restore
	// re-emits epochs after the checkpoint), plus a final summary object on
	// clean end.
	Out io.Writer
	// Faults, when set, gates ingest with a scripted outage timeline for the
	// daemon's single server (events for server 0; other servers' events are
	// ignored). The source is rewound with Reset(Runner.Seed) at start, so a
	// replayed restore sheds the same arrivals again — jobs arriving inside
	// a crash..repair window never reach the runner and are counted as shed.
	// Telemetry slots keep flowing: the predictor still observes utilization
	// through an outage.
	Faults fault.Source
	// FaultLogPath, when set with Faults, appends the applied fault events
	// to a colstore KindFaults column file on clean end.
	FaultLogPath string
}

func (c *Config) every() int {
	if c.CheckpointEvery <= 0 {
		return 16
	}
	return c.CheckpointEvery
}

// Server drives a LiveRunner from a wire event stream: jobs and slots in,
// NDJSON epoch records and policy decisions out, durable checkpoints on the
// side. One Server serves one stream once.
type Server struct {
	cfg    Config
	runner *core.LiveRunner

	recs     []core.EpochRecord // closed epochs not yet flushed to the log
	logRows  int64              // epoch-log rows flushed so far (checkpoint mode)
	logDict  []string           // the log's plan dictionary, intern order
	dictSeen map[string]bool    // membership index over logDict

	// last is the latest boundary state (checkpoint mode only), recaptured
	// after every epoch close with LiveRunner.Capture. Its Window aliases the
	// runner's job-log ring and is valid only until the next close; since
	// only a close changes the window, every persist — at the cadence or at
	// a mid-epoch drain — encodes exactly the last boundary's state.
	last    core.LiveState
	hasLast bool // last holds a boundary: one has closed, or was restored

	img     []byte     // checkpoint image buffer, reused by every persist
	writing bool       // a checkpoint write of img is in flight
	written chan error // the in-flight write's result

	skipJobs  int64 // replay realignment: events already in the checkpoint
	skipSlots int

	faults  *stream.Cursor[fault.Event] // nil without injection
	down    bool                        // server 0 inside a crash..repair window
	shed    int64                       // jobs refused at ingest while down
	applied []fault.Event               // server-0 transitions consumed so far

	restoredFrom string // checkpoint file actually loaded (restore only)

	outBuf  []byte
	stop    atomic.Bool
	served  bool
	stopped bool
}

// NewServer starts a fresh serve session. When both checkpointing and epoch
// logging are configured and the log already holds rows from earlier runs,
// the checkpoint's high-water mark starts past them — a restore keeps them.
func NewServer(cfg Config) (*Server, error) {
	runner, err := core.NewLiveRunner(cfg.Runner)
	if err != nil {
		return nil, err
	}
	s := &Server{cfg: cfg, runner: runner}
	s.initFaults()
	if cfg.CheckpointPath != "" && cfg.EpochLogPath != "" {
		if err := s.seedLogState(); err != nil {
			return nil, err
		}
	}
	return s, nil
}

// initFaults rewinds the configured fault source to the runner's seed and
// binds the ingest-gate cursor over it.
func (s *Server) initFaults() {
	if s.cfg.Faults == nil {
		return
	}
	s.cfg.Faults.Reset(s.cfg.Runner.Seed)
	s.faults = stream.NewCursor(s.cfg.Faults)
}

// seedLogState reads an existing epoch log's row count and dictionary so the
// first checkpoint's high-water mark covers prior runs' rows.
func (s *Server) seedLogState() error {
	fi, err := os.Stat(s.cfg.EpochLogPath)
	if os.IsNotExist(err) {
		return nil
	}
	if err != nil {
		return fmt.Errorf("serve: epoch log: %w", err)
	}
	if fi.Size() == 0 {
		return nil
	}
	r, err := colstore.Open(s.cfg.EpochLogPath)
	if err != nil {
		return fmt.Errorf("serve: existing epoch log: %w", err)
	}
	defer r.Close()
	if r.Rows() > 0 && len(r.Schema().Dict) == 0 {
		return fmt.Errorf("serve: existing epoch log %s has rows but no dictionary (crashed writer?) — repair or remove it", s.cfg.EpochLogPath)
	}
	s.logRows = int64(r.Rows())
	s.logDict = append([]string(nil), r.Schema().Dict...)
	return nil
}

// RestoreServer resumes a session from cfg.CheckpointPath (falling back to
// the rotated previous snapshot when the primary is damaged). The epoch log
// is cut back to the checkpoint's row high-water mark, so re-emitted epochs
// land exactly once. replay=true realigns a feed that restarts from the
// beginning of the stream (a replayed pipe): events the checkpoint already
// accounts for are skipped. Pass false when the feed itself resumes from
// the interruption point (a socket producer that kept its own cursor).
func RestoreServer(cfg Config, replay bool) (*Server, error) {
	if cfg.CheckpointPath == "" {
		return nil, fmt.Errorf("serve: restore needs a checkpoint path")
	}
	c, source, err := LoadCheckpointFrom(cfg.CheckpointPath)
	if err != nil {
		return nil, err
	}
	runner, err := core.RestoreLiveRunner(cfg.Runner, &c.State)
	if err != nil {
		return nil, err
	}
	s := &Server{cfg: cfg, runner: runner, logRows: c.EpochLogRows, last: c.State, hasLast: true, restoredFrom: source}
	s.logDict = append([]string(nil), c.EpochLogDict...)
	s.initFaults()
	if cfg.EpochLogPath != "" {
		if err := reconcileLog(cfg.EpochLogPath, c.EpochLogRows, c.EpochLogDict); err != nil {
			return nil, err
		}
	}
	if replay {
		s.skipJobs = c.State.JobsOffered
		s.skipSlots = c.State.Slot
	}
	return s, nil
}

// reconcileLog cuts the epoch log back to the checkpoint's recorded row
// count, discarding rows from epochs the restored runner will re-emit. A
// colstore append drops the old footer before writing new blocks, so a
// longer (or footer-less, crashed-mid-append) file cannot be fixed by byte
// truncation: the kept rows are rewritten into a fresh file instead, with
// plan ids re-interned against the checkpoint's dictionary.
func reconcileLog(path string, rows int64, dict []string) error {
	if rows == 0 {
		if err := os.Remove(path); err != nil && !os.IsNotExist(err) {
			return fmt.Errorf("serve: epoch log: %w", err)
		}
		return nil
	}
	r, err := colstore.Open(path)
	if err != nil {
		return fmt.Errorf("serve: epoch log: %w", err)
	}
	total := int64(r.Rows())
	if total < rows {
		r.Close()
		return fmt.Errorf("serve: epoch log %s has %d rows, checkpoint covers %d", path, total, rows)
	}
	if total == rows && len(r.Schema().Dict) > 0 {
		// Cleanly closed at exactly the checkpoint's rows: nothing to do.
		r.Close()
		return nil
	}
	ncols := len(r.Schema().Cols)
	cols := make([][]float64, ncols)
	read := int64(0)
	for b := 0; b < r.NumBlocks() && read < rows; b++ {
		for c := 0; c < ncols; c++ {
			v, err := r.Col(b, c, nil)
			if err != nil {
				r.Close()
				return fmt.Errorf("serve: epoch log: %w", err)
			}
			cols[c] = append(cols[c], v...)
		}
		read = int64(len(cols[0]))
	}
	r.Close()

	schema := core.EpochLogSchema()
	planCol := schema.ColIndex("plan")
	tmp := path + ".tmp"
	w, err := colstore.Create(tmp, schema)
	if err != nil {
		return fmt.Errorf("serve: epoch log: %w", err)
	}
	abort := func(err error) error {
		w.Close()
		os.Remove(tmp)
		return fmt.Errorf("serve: epoch log: %w", err)
	}
	row := make([]float64, ncols)
	for i := int64(0); i < rows; i++ {
		for c := 0; c < ncols; c++ {
			row[c] = cols[c][i]
		}
		id := int(row[planCol])
		if float64(id) != row[planCol] || id < 0 || id >= len(dict) {
			return abort(fmt.Errorf("row %d: plan id %g outside checkpoint dictionary (%d names)", i, row[planCol], len(dict)))
		}
		row[planCol] = w.DictID(dict[id])
		if err := w.Append(row); err != nil {
			return abort(err)
		}
	}
	if err := w.Close(); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("serve: epoch log: %w", err)
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("serve: epoch log: %w", err)
	}
	return nil
}

// Stop requests a graceful drain: the serve loop stops consuming events at
// the next event boundary, persists the latest epoch-boundary checkpoint
// and flushes the epoch log, then Serve returns with done=false. Safe to
// call from a signal handler goroutine; if the loop is blocked reading,
// close the event stream to unblock it — a read error after Stop is treated
// as part of the drain, not a failure.
func (s *Server) Stop() { s.stop.Store(true) }

// Runner exposes the underlying live runner (read-only use: position and
// counters).
func (s *Server) Runner() *core.LiveRunner { return s.runner }

// RestoredFrom returns the checkpoint file a restore actually loaded —
// the configured path, or its rotated previous snapshot when the primary
// was missing or damaged. Empty for a fresh server.
func (s *Server) RestoredFrom() string { return s.restoredFrom }

// Serve consumes wire events from r until the stream's EventEnd, a Stop, or
// an error. On clean end it finalizes the run and returns its report with
// done=true; on Stop it persists state and returns done=false. The
// steady-state loop — decode event, advance the runner, emit NDJSON — does
// not allocate when checkpointing is disabled. No checkpoint write outlives
// Serve: every return waits for the one in flight.
func (s *Server) Serve(r io.Reader) (report core.RunReport, done bool, err error) {
	if s.served {
		return core.RunReport{}, false, fmt.Errorf("serve: server already served a stream")
	}
	s.served = true
	wr := NewWireReader(r)
	checkpointing := s.cfg.CheckpointPath != ""
	logging := s.cfg.EpochLogPath != ""
	every := s.cfg.every()
	if checkpointing {
		s.written = make(chan error, 1)
		defer func() {
			if werr := s.awaitWrite(); werr != nil {
				if err == nil {
					report, done, err = core.RunReport{}, false, werr
				} else {
					err = fmt.Errorf("%w (checkpoint write also failed: %v)", err, werr)
				}
			}
		}()
	}

	for {
		if s.stop.Load() {
			return core.RunReport{}, false, s.drain()
		}
		ev, rerr := wr.Next()
		if rerr != nil {
			if s.stop.Load() {
				// The caller unblocked a pending read by closing the
				// stream; that is part of the graceful drain.
				return core.RunReport{}, false, s.drain()
			}
			if derr := s.drain(); derr != nil {
				return core.RunReport{}, false, fmt.Errorf("%w (drain also failed: %v)", rerr, derr)
			}
			return core.RunReport{}, false, rerr
		}
		switch ev.Kind {
		case EventJob:
			// Gate before replay realignment: shedding is a pure function of
			// the arrival time, so a replayed stream sheds the same jobs and
			// the checkpoint's offered-job count stays aligned with the jobs
			// that actually reached the runner.
			if s.faults != nil && !s.gateJob(ev.Job.Arrival) {
				s.shed++
				continue
			}
			if s.skipJobs > 0 {
				s.skipJobs--
				continue
			}
			if err := s.runner.OfferJob(ev.Job); err != nil {
				return core.RunReport{}, false, err
			}
		case EventSlot:
			if s.skipSlots > 0 {
				s.skipSlots--
				continue
			}
			rec, closed, err := s.runner.OfferSlot(ev.Rho)
			if err != nil {
				return core.RunReport{}, false, err
			}
			if !closed {
				continue
			}
			if err := s.emit(&rec); err != nil {
				return core.RunReport{}, false, err
			}
			if checkpointing || logging {
				s.recs = append(s.recs, rec)
			}
			if checkpointing {
				if err := s.runner.Capture(&s.last); err != nil {
					return core.RunReport{}, false, err
				}
				s.hasLast = true
				if s.runner.Epoch()%every == 0 {
					if err := s.persist(); err != nil {
						return core.RunReport{}, false, err
					}
				}
			} else if logging && len(s.recs) >= every {
				if err := s.flushLog(); err != nil {
					return core.RunReport{}, false, err
				}
			}
		case EventEnd:
			return s.finish()
		}
	}
}

// gateJob advances the fault timeline through arrival and reports whether
// the server is up to take the job. Only server 0's transitions apply —
// the daemon is a single server; fleet-wide schedules pass through with
// other servers' events ignored.
func (s *Server) gateJob(arrival float64) bool {
	for {
		ev, ok := s.faults.Peek()
		if !ok || ev.Time > arrival {
			break
		}
		s.faults.Advance()
		if ev.Server != 0 {
			continue
		}
		s.down = ev.Kind == fault.Crash
		s.applied = append(s.applied, ev)
	}
	return !s.down
}

// persist flushes buffered epoch records to the log, encodes the latest
// boundary checkpoint covering them into the image buffer and hands it to
// the background writer. Every record buffered so far belongs to an epoch before
// s.last.Epoch, so the checkpoint's log high-water mark is exact, and the
// flush lands before the hand-off: a crash between the two steps only
// leaves rows the next restore truncates away. The previous write must
// finish before the buffer is reused, so persist waits for it and returns
// its error.
func (s *Server) persist() error {
	if err := s.flushLog(); err != nil {
		return err
	}
	if !s.hasLast {
		return nil // nothing closed yet
	}
	if err := s.awaitWrite(); err != nil {
		return err
	}
	s.img = appendCheckpoint(s.img[:0], &Checkpoint{
		State: s.last, EpochLogRows: s.logRows, EpochLogDict: s.logDict,
	})
	s.writing = true
	go func(path string, img []byte, done chan<- error) {
		if err := WriteImage(path, img); err != nil {
			done <- fmt.Errorf("serve: checkpoint write: %w", err)
			return
		}
		done <- nil
	}(s.cfg.CheckpointPath, s.img, s.written)
	return nil
}

// awaitWrite waits for the checkpoint write in flight, if any, and returns
// its error.
func (s *Server) awaitWrite() error {
	if !s.writing {
		return nil
	}
	s.writing = false
	return <-s.written
}

// flushLog appends buffered records to the colstore epoch log and advances
// the row high-water mark, tracking the dictionary exactly as the log's
// writer interns it (first use, in record order).
func (s *Server) flushLog() error {
	if s.cfg.EpochLogPath == "" || len(s.recs) == 0 {
		return nil
	}
	if err := core.WriteEpochLog(s.cfg.EpochLogPath, s.recs); err != nil {
		return err
	}
	if s.dictSeen == nil {
		s.dictSeen = make(map[string]bool, len(s.logDict))
		for _, name := range s.logDict {
			s.dictSeen[name] = true
		}
	}
	for i := range s.recs {
		if name := s.recs[i].Policy.Plan.Name; !s.dictSeen[name] {
			s.dictSeen[name] = true
			s.logDict = append(s.logDict, name)
		}
	}
	s.logRows += int64(len(s.recs))
	s.recs = s.recs[:0]
	return nil
}

// drain is the graceful-stop path: persist the latest boundary state and
// flush the log, leaving a checkpoint a restore continues from
// bit-identically once its write has finished.
func (s *Server) drain() error {
	if s.stopped {
		return nil
	}
	s.stopped = true
	if s.cfg.CheckpointPath != "" {
		if err := s.persist(); err != nil {
			return err
		}
		return s.awaitWrite()
	}
	return s.flushLog()
}

// finish is the clean-end path: close a partial final epoch, flush
// everything and emit the whole-run summary. No checkpoint is written — the
// run is complete, and its final state is not an epoch boundary — but the
// last periodic one must have landed before the run counts as done.
func (s *Server) finish() (core.RunReport, bool, error) {
	if err := s.awaitWrite(); err != nil {
		return core.RunReport{}, false, err
	}
	rec, closed, report, err := s.runner.Finish()
	if err != nil {
		return core.RunReport{}, false, err
	}
	if closed {
		if err := s.emit(&rec); err != nil {
			return core.RunReport{}, false, err
		}
		if s.cfg.CheckpointPath != "" || s.cfg.EpochLogPath != "" {
			s.recs = append(s.recs, rec)
		}
	}
	if err := s.flushLog(); err != nil {
		return core.RunReport{}, false, err
	}
	if s.cfg.FaultLogPath != "" && len(s.applied) > 0 {
		if err := fault.WriteLog(s.cfg.FaultLogPath, s.applied); err != nil {
			return core.RunReport{}, false, err
		}
	}
	if err := s.emitReport(&report); err != nil {
		return core.RunReport{}, false, err
	}
	return report, true, nil
}

// emit streams one epoch record as NDJSON, reusing the output buffer — no
// allocations at steady state.
func (s *Server) emit(rec *core.EpochRecord) error {
	if s.cfg.Out == nil {
		return nil
	}
	b := s.outBuf[:0]
	b = append(b, `{"epoch":`...)
	b = strconv.AppendInt(b, int64(rec.Index), 10)
	b = append(b, `,"predicted":`...)
	b = strconv.AppendFloat(b, rec.Predicted, 'g', -1, 64)
	b = append(b, `,"realized":`...)
	b = strconv.AppendFloat(b, rec.Realized, 'g', -1, 64)
	b = append(b, `,"frequency":`...)
	b = strconv.AppendFloat(b, rec.Policy.Frequency, 'g', -1, 64)
	b = append(b, `,"plan":"`...)
	b = append(b, rec.Policy.Plan.Name...)
	b = append(b, `","jobs":`...)
	b = strconv.AppendInt(b, int64(rec.Jobs), 10)
	b = append(b, `,"mean_delay":`...)
	b = strconv.AppendFloat(b, rec.MeanDelay, 'g', -1, 64)
	b = append(b, `,"p95_delay":`...)
	b = strconv.AppendFloat(b, rec.P95Delay, 'g', -1, 64)
	b = append(b, `,"energy":`...)
	b = strconv.AppendFloat(b, rec.Energy, 'g', -1, 64)
	b = append(b, `,"busy":`...)
	b = strconv.AppendFloat(b, rec.BusyTime, 'g', -1, 64)
	b = append(b, `,"wake":`...)
	b = strconv.AppendFloat(b, rec.WakeTime, 'g', -1, 64)
	b = append(b, `,"idle":`...)
	b = strconv.AppendFloat(b, rec.IdleTime, 'g', -1, 64)
	b = append(b, "}\n"...)
	s.outBuf = b
	_, err := s.cfg.Out.Write(b)
	return err
}

// emitReport streams the whole-run summary as the final NDJSON object,
// marked "done":true.
func (s *Server) emitReport(rep *core.RunReport) error {
	if s.cfg.Out == nil {
		return nil
	}
	b := s.outBuf[:0]
	b = append(b, `{"done":true,"strategy":"`...)
	b = append(b, rep.Strategy...)
	b = append(b, `","predictor":"`...)
	b = append(b, rep.Predictor...)
	b = append(b, `","jobs":`...)
	b = strconv.AppendInt(b, int64(rep.Jobs), 10)
	b = append(b, `,"mean_response":`...)
	b = strconv.AppendFloat(b, rep.MeanResponse, 'g', -1, 64)
	b = append(b, `,"avg_power":`...)
	b = strconv.AppendFloat(b, rep.AvgPower, 'g', -1, 64)
	b = append(b, `,"energy":`...)
	b = strconv.AppendFloat(b, rep.Energy, 'g', -1, 64)
	b = append(b, `,"duration":`...)
	b = strconv.AppendFloat(b, rep.Duration, 'g', -1, 64)
	b = append(b, `,"mean_frequency":`...)
	b = strconv.AppendFloat(b, rep.MeanFrequency, 'g', -1, 64)
	if s.faults != nil {
		crashes := 0
		for _, ev := range s.applied {
			if ev.Kind == fault.Crash {
				crashes++
			}
		}
		b = append(b, `,"jobs_shed":`...)
		b = strconv.AppendInt(b, s.shed, 10)
		b = append(b, `,"crashes":`...)
		b = strconv.AppendInt(b, int64(crashes), 10)
		b = append(b, `,"repairs":`...)
		b = strconv.AppendInt(b, int64(len(s.applied)-crashes), 10)
	}
	b = append(b, "}\n"...)
	s.outBuf = b
	_, err := s.cfg.Out.Write(b)
	return err
}
