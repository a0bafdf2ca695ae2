// Package trace provides minute-granularity server utilization traces in the
// shape of the paper's Figure 7. The departmental data-center traces the
// paper uses (Wong & Annavaram) are not public, so this package generates
// synthetic equivalents with the structure the paper describes: a periodic
// diurnal pattern, a low-utilization file server, and a wide-range email
// store whose end-of-day backup and maintenance windows produce abrupt
// surges. Generation is deterministic in the seed. CSV import/export lets
// users substitute real traces.
package trace

import (
	"bufio"
	"bytes"
	"encoding/csv"
	"fmt"
	"io"
	"math"
	"math/rand"
	"strconv"

	"sleepscale/internal/metrics"
)

// MinutesPerDay is the number of slots in one day of a minute-level trace.
const MinutesPerDay = 24 * 60

// Trace is a sequence of per-slot utilizations in [0, 1).
type Trace struct {
	// Name identifies the trace ("file-server", "email-store").
	Name string
	// SlotSeconds is the wall-clock length of one slot (60 for real
	// minute traces; tests may use shorter slots).
	SlotSeconds float64
	// Utilization holds one value per slot, starting at midnight.
	Utilization []float64
}

// Len reports the number of slots.
func (t *Trace) Len() int { return len(t.Utilization) }

// Duration reports the trace's wall-clock span in seconds.
func (t *Trace) Duration() float64 { return float64(len(t.Utilization)) * t.SlotSeconds }

// Window returns the sub-trace covering slots [start, end). It copies the
// data. The paper evaluates the email store over 2 AM–8 PM (slots 120–1200
// of each day).
func (t *Trace) Window(start, end int) (*Trace, error) {
	if start < 0 || end > len(t.Utilization) || start >= end {
		return nil, fmt.Errorf("trace: window [%d,%d) outside [0,%d)", start, end, len(t.Utilization))
	}
	out := &Trace{Name: t.Name, SlotSeconds: t.SlotSeconds,
		Utilization: make([]float64, end-start)}
	copy(out.Utilization, t.Utilization[start:end])
	return out, nil
}

// DailyWindow concatenates slots [startMinute, endMinute) of every full day,
// e.g. (120, 1200) extracts the paper's 2 AM–8 PM evaluation window.
func (t *Trace) DailyWindow(startMinute, endMinute int) (*Trace, error) {
	if startMinute < 0 || endMinute > MinutesPerDay || startMinute >= endMinute {
		return nil, fmt.Errorf("trace: daily window [%d,%d) invalid", startMinute, endMinute)
	}
	days := len(t.Utilization) / MinutesPerDay
	if days == 0 {
		return nil, fmt.Errorf("trace: no full day in %d slots", len(t.Utilization))
	}
	out := &Trace{Name: t.Name, SlotSeconds: t.SlotSeconds}
	for d := 0; d < days; d++ {
		base := d * MinutesPerDay
		out.Utilization = append(out.Utilization,
			t.Utilization[base+startMinute:base+endMinute]...)
	}
	return out, nil
}

// Stats reports the mean, min and max utilization.
func (t *Trace) Stats() (mean, min, max float64) {
	var s metrics.Stream
	for _, u := range t.Utilization {
		s.Add(u)
	}
	return s.Mean(), s.Min(), s.Max()
}

// Validate checks that every slot is a utilization in [0, 1).
func (t *Trace) Validate() error {
	if t.SlotSeconds <= 0 {
		return fmt.Errorf("trace: slot length %g", t.SlotSeconds)
	}
	for i, u := range t.Utilization {
		if u < 0 || u >= 1 || math.IsNaN(u) {
			return fmt.Errorf("trace: slot %d utilization %g outside [0,1)", i, u)
		}
	}
	return nil
}

// clamp keeps u inside [lo, hi].
func clamp(u, lo, hi float64) float64 {
	if u < lo {
		return lo
	}
	if u > hi {
		return hi
	}
	return u
}

// diurnal is a smooth daily activity curve in [0,1]: low overnight, ramping
// through the morning, peaking early afternoon, declining in the evening.
func diurnal(minute int) float64 {
	h := float64(minute%MinutesPerDay) / 60 // hour of day
	// Two raised cosines: work day bump centred at 13:30 and a small
	// evening bump at 20:30.
	day := math.Exp(-math.Pow(h-13.5, 2) / (2 * 4.5 * 4.5))
	eve := 0.35 * math.Exp(-math.Pow(h-20.5, 2)/(2*1.5*1.5))
	return clamp(day+eve, 0, 1)
}

// EmailStore generates the email-store trace of Figure 7: utilization
// covering roughly 0.1–0.9 across the day, with abrupt surges between 8 PM
// and 2 AM from scheduled backup and maintenance.
func EmailStore(days int, seed int64) *Trace {
	rng := rand.New(rand.NewSource(seed))
	t := &Trace{Name: "email-store", SlotSeconds: 60,
		Utilization: make([]float64, days*MinutesPerDay)}
	noise := 0.0
	for i := range t.Utilization {
		minute := i % MinutesPerDay
		h := float64(minute) / 60
		base := 0.1 + 0.55*diurnal(minute)
		// AR(1) minute-to-minute fluctuation.
		noise = 0.9*noise + 0.025*rng.NormFloat64()
		u := base + noise
		// Backup window: 8 PM–2 AM, square surges to ~0.85–0.95.
		if h >= 20 || h < 2 {
			u = 0.82 + 0.1*math.Abs(math.Sin(h*2.1)) + 0.03*rng.NormFloat64()
		}
		// Occasional short daytime surges (flash load) to stress CUSUM.
		if minute%360 == 137 && rng.Float64() < 0.6 {
			for j := 0; j < 12 && i+j < len(t.Utilization); j++ {
				t.Utilization[i+j] = clamp(u+0.25, 0.01, 0.95)
			}
		}
		if t.Utilization[i] == 0 {
			t.Utilization[i] = clamp(u, 0.01, 0.95)
		}
	}
	return t
}

// FileServer generates the file-server trace of Figure 7: a lightly loaded
// host (≈0.02–0.2) with a gentle diurnal swing and spiky minute noise.
func FileServer(days int, seed int64) *Trace {
	rng := rand.New(rand.NewSource(seed))
	t := &Trace{Name: "file-server", SlotSeconds: 60,
		Utilization: make([]float64, days*MinutesPerDay)}
	noise := 0.0
	for i := range t.Utilization {
		minute := i % MinutesPerDay
		base := 0.03 + 0.09*diurnal(minute)
		noise = 0.85*noise + 0.01*rng.NormFloat64()
		u := base + noise
		// Occasional short spikes (large file transfers).
		if rng.Float64() < 0.004 {
			u += 0.05 + 0.1*rng.Float64()
		}
		t.Utilization[i] = clamp(u, 0.005, 0.25)
	}
	return t
}

// WriteCSV writes the trace as "slot,utilization" rows with a header.
func (t *Trace) WriteCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{"slot", "utilization"}); err != nil {
		return err
	}
	for i, u := range t.Utilization {
		if err := cw.Write([]string{strconv.Itoa(i), strconv.FormatFloat(u, 'g', -1, 64)}); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// ReadCSV parses a trace written by WriteCSV. Name and SlotSeconds are the
// caller's to fill; SlotSeconds defaults to 60. It is a thin materializing
// driver over SlotReader, so batch parsing and streaming replay share one
// row parser.
func ReadCSV(r io.Reader) (*Trace, error) {
	sr := NewSlotReader(r)
	t := &Trace{Name: "csv", SlotSeconds: 60}
	for {
		u, ok, err := sr.Next()
		if err != nil {
			return nil, err
		}
		if !ok {
			break
		}
		t.Utilization = append(t.Utilization, u)
	}
	if t.Len() == 0 {
		return nil, fmt.Errorf("trace: empty csv")
	}
	return t, nil
}

// SlotReader parses a WriteCSV-format trace one row at a time, so week-long
// (or unbounded) traces replay in O(1) memory. Each Next validates its row
// the way ReadCSV validates the whole file. Rows are parsed off a single
// buffered reader with a reused line scratch, so steady-state reading does
// not allocate.
type SlotReader struct {
	br   *bufio.Reader
	line []byte // scratch for lines spanning the buffer boundary
	row  int
	eof  bool
}

// slotReaderBuf sizes the read buffer: a full buffer of ~20-byte rows per
// syscall.
const slotReaderBuf = 1 << 16

// NewSlotReader returns a reader over r; an optional "slot,utilization"
// header row is skipped.
func NewSlotReader(r io.Reader) *SlotReader {
	return &SlotReader{br: bufio.NewReaderSize(r, slotReaderBuf)}
}

// nextLine returns the next newline-terminated line (terminator stripped,
// trailing \r removed), sliced from the buffer when it fits and from the
// reused scratch when it does not. ok=false at end of input.
func (sr *SlotReader) nextLine() (line []byte, ok bool, err error) {
	if sr.eof {
		return nil, false, nil
	}
	line, err = sr.br.ReadSlice('\n')
	if err == bufio.ErrBufferFull {
		// Long line: spill into the scratch and keep reading.
		sr.line = append(sr.line[:0], line...)
		for err == bufio.ErrBufferFull {
			line, err = sr.br.ReadSlice('\n')
			sr.line = append(sr.line, line...)
		}
		line = sr.line
	}
	if err == io.EOF {
		sr.eof = true
		if len(line) == 0 {
			return nil, false, nil
		}
		err = nil
	}
	if err != nil {
		return nil, false, fmt.Errorf("trace: read csv: %w", err)
	}
	if n := len(line); n > 0 && line[n-1] == '\n' {
		line = line[:n-1]
	}
	if n := len(line); n > 0 && line[n-1] == '\r' {
		line = line[:n-1]
	}
	return line, true, nil
}

// Next returns the next slot's utilization; ok is false at end of input.
func (sr *SlotReader) Next() (u float64, ok bool, err error) {
	for {
		line, ok, err := sr.nextLine()
		if err != nil || !ok {
			return 0, false, err
		}
		if len(line) == 0 {
			continue // blank line, as encoding/csv skips them
		}
		i := sr.row
		sr.row++
		c := bytes.IndexByte(line, ',')
		if i == 0 && c >= 0 && string(line[:c]) == "slot" {
			continue
		}
		if c < 0 || bytes.IndexByte(line[c+1:], ',') >= 0 {
			n := bytes.Count(line, []byte{','}) + 1
			return 0, false, fmt.Errorf("trace: row %d has %d fields, want 2", i, n)
		}
		u, perr := strconv.ParseFloat(string(line[c+1:]), 64)
		if perr != nil {
			return 0, false, fmt.Errorf("trace: row %d: %w", i, perr)
		}
		if u < 0 || u >= 1 || math.IsNaN(u) {
			return 0, false, fmt.Errorf("trace: row %d utilization %g outside [0,1)", i, u)
		}
		return u, true, nil
	}
}
