package stream

import (
	"fmt"
	"math"

	"sleepscale/internal/colstore"
	"sleepscale/internal/queue"
	"sleepscale/internal/workload"
)

// ColTrace replays a KindTrace column file through the trace-driven
// generation core — bit-identical to the materialized Trace source for
// equal seeds, since both feed the same generator. On a mapped file a
// replay touches no per-slot parsing and no per-chunk allocation: slots
// stream out of zero-copy column views.
func ColTrace(r *colstore.Reader, st workload.Stats, seed int64) (Source, error) {
	s := r.Schema()
	if s.Kind != colstore.KindTrace {
		return nil, fmt.Errorf("stream: column file kind %d is not a trace", s.Kind)
	}
	col := s.ColIndex("utilization")
	if col < 0 {
		return nil, fmt.Errorf("stream: column file has no utilization column (cols %v)", s.Cols)
	}
	if s.SlotSeconds <= 0 {
		return nil, fmt.Errorf("stream: column file has no slot length")
	}
	feed := &colFeed{r: r, col: col}
	return st.NewTraceGenFeed(feed, s.SlotSeconds, seed)
}

// colFeed adapts a column reader to workload.SlotFeed, streaming the
// utilization column block by block. Validation matches the CSV row parser:
// every slot must be in [0, 1).
type colFeed struct {
	r    *colstore.Reader
	col  int
	blk  int       // next block to load
	pos  int       // next index into vals
	row  int       // absolute row, for error messages
	vals []float64 // current block's values (view or scratch)
	scr  []float64 // decode scratch for non-mapped readers
}

func (f *colFeed) NextSlot() (float64, bool, error) {
	for f.pos == len(f.vals) {
		if f.blk == f.r.NumBlocks() {
			return 0, false, nil
		}
		v, err := f.r.Col(f.blk, f.col, f.scr)
		if err != nil {
			return 0, false, err
		}
		if !f.r.Mapped() {
			f.scr = v
		}
		f.vals = v
		f.blk++
		f.pos = 0
	}
	u := f.vals[f.pos]
	f.pos++
	i := f.row
	f.row++
	if u < 0 || u >= 1 || math.IsNaN(u) {
		return 0, false, fmt.Errorf("stream: slot %d utilization %g outside [0,1)", i, u)
	}
	return u, true, nil
}

func (f *colFeed) ResetSlots() error {
	f.blk, f.pos, f.row = 0, 0, 0
	f.vals = nil
	return nil
}

// ColJobs replays a KindJobs column file — a recorded job stream — as a
// Source. Replay is exact: the recorded float64 bits come back verbatim, so
// a recorded run replays bit-identically on any machine. Reset rewinds; the
// seed is ignored, the stream being already drawn (as with SliceSource).
type ColJobs struct {
	r        *colstore.Reader
	acol, sc int // arrival and size column indices
	blk, pos int
	arr, siz []float64
	arrScr   []float64
	sizScr   []float64
	err      error
}

// NewColJobs opens a job replay over r.
func NewColJobs(r *colstore.Reader) (*ColJobs, error) {
	s := r.Schema()
	if s.Kind != colstore.KindJobs {
		return nil, fmt.Errorf("stream: column file kind %d is not a job stream", s.Kind)
	}
	a, sz := s.ColIndex("arrival"), s.ColIndex("size")
	if a < 0 || sz < 0 {
		return nil, fmt.Errorf("stream: job column file needs arrival and size columns (cols %v)", s.Cols)
	}
	return &ColJobs{r: r, acol: a, sc: sz}, nil
}

// Next implements Source.
func (c *ColJobs) Next(buf []queue.Job) (n int, ok bool) {
	if c.err != nil {
		return 0, false
	}
	for n < len(buf) {
		if c.pos == len(c.arr) {
			if c.blk == c.r.NumBlocks() {
				return n, false
			}
			arr, err := c.r.Col(c.blk, c.acol, c.arrScr)
			if err != nil {
				c.err = err
				return n, false
			}
			siz, err := c.r.Col(c.blk, c.sc, c.sizScr)
			if err != nil {
				c.err = err
				return n, false
			}
			if !c.r.Mapped() {
				c.arrScr, c.sizScr = arr, siz
			}
			c.arr, c.siz = arr, siz
			c.blk++
			c.pos = 0
			continue
		}
		buf[n] = queue.Job{Arrival: c.arr[c.pos], Size: c.siz[c.pos]}
		n++
		c.pos++
	}
	return n, c.pos < len(c.arr) || c.blk < c.r.NumBlocks()
}

// Reset implements Source; the seed is ignored.
func (c *ColJobs) Reset(int64) {
	c.blk, c.pos = 0, 0
	c.arr, c.siz = nil, nil
	c.err = nil
}

// Err reports a column read failure that ended the stream early.
func (c *ColJobs) Err() error { return c.err }

// JobsSchema returns the column-file schema recorded job streams use.
func JobsSchema() colstore.Schema {
	return colstore.Schema{Kind: colstore.KindJobs, Cols: []string{"arrival", "size"}}
}

// RecordJobs drains src into w as a KindJobs column file, returning the
// number of jobs recorded. The writer is left open (callers may interleave
// other bookkeeping); close it to finish the file. Chunked draining keeps
// memory at one chunk regardless of stream length.
func RecordJobs(src Source, w *colstore.Writer) (int, error) {
	buf := make([]queue.Job, DefaultChunk)
	row := make([]float64, 2)
	total := 0
	for {
		n, ok := src.Next(buf)
		for _, j := range buf[:n] {
			row[0], row[1] = j.Arrival, j.Size
			if err := w.Append(row); err != nil {
				return total, err
			}
		}
		total += n
		if !ok {
			return total, Err(src)
		}
	}
}
