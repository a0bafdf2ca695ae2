package serve

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
	"os"
	"path/filepath"

	"sleepscale/internal/core"
	"sleepscale/internal/eventlog"
	"sleepscale/internal/metrics"
	"sleepscale/internal/queue"
)

// Checkpoint file layout:
//
//	"SSCK" | u32 version | u64 payload length | u32 CRC-32C(payload) | payload
//
// The payload is the little-endian encoding of Checkpoint below; floats are
// raw bits, so a restored state is bit-identical to the captured one. Writes
// are atomic (temp file + fsync + rename) and rotate the previous snapshot
// to path+".prev", so a crash mid-write always leaves a loadable snapshot;
// LoadCheckpoint falls back to it when the primary is truncated or damaged.

const (
	ckptMagic   = "SSCK"
	ckptVersion = 1
	ckptHeader  = 20 // magic, version, payload length, CRC
	// PrevSuffix names the rotated previous snapshot next to a checkpoint.
	PrevSuffix = ".prev"
)

var ckptCRC = crc32.MakeTable(crc32.Castagnoli)

// Checkpoint is the daemon's durable state: the live runner's resumable
// state plus the epoch-log high-water mark that makes log appends exactly
// once across restarts.
type Checkpoint struct {
	// State is the runner state at an epoch boundary.
	State core.LiveState
	// EpochLogRows is the number of rows the epoch log held when the
	// checkpoint was taken; restore rewrites the log back to exactly those
	// rows, discarding any from epochs the restored runner will re-emit.
	EpochLogRows int64
	// EpochLogDict is the log's plan-name dictionary (intern order) covering
	// those rows, so a restore can rebuild the log even when a crashed
	// append left the file without its footer.
	EpochLogDict []string
}

type ckptEnc struct{ b []byte }

func (e *ckptEnc) u32(v uint32)  { e.b = binary.LittleEndian.AppendUint32(e.b, v) }
func (e *ckptEnc) u64(v uint64)  { e.b = binary.LittleEndian.AppendUint64(e.b, v) }
func (e *ckptEnc) i64(v int64)   { e.u64(uint64(v)) }
func (e *ckptEnc) f64(v float64) { e.u64(math.Float64bits(v)) }
func (e *ckptEnc) boolean(v bool) {
	if v {
		e.b = append(e.b, 1)
	} else {
		e.b = append(e.b, 0)
	}
}
func (e *ckptEnc) str(s string) {
	e.u64(uint64(len(s)))
	e.b = append(e.b, s...)
}
func (e *ckptEnc) floats(vs []float64) {
	e.u64(uint64(len(vs)))
	for _, v := range vs {
		e.f64(v)
	}
}

type ckptDec struct {
	b   []byte
	err error
}

func (d *ckptDec) fail(format string, args ...any) {
	if d.err == nil {
		d.err = fmt.Errorf("serve: checkpoint: "+format, args...)
	}
}

func (d *ckptDec) u32() uint32 {
	if d.err != nil {
		return 0
	}
	if len(d.b) < 4 {
		d.fail("truncated payload")
		return 0
	}
	v := binary.LittleEndian.Uint32(d.b)
	d.b = d.b[4:]
	return v
}

func (d *ckptDec) u64() uint64 {
	if d.err != nil {
		return 0
	}
	if len(d.b) < 8 {
		d.fail("truncated payload")
		return 0
	}
	v := binary.LittleEndian.Uint64(d.b)
	d.b = d.b[8:]
	return v
}

func (d *ckptDec) i64() int64   { return int64(d.u64()) }
func (d *ckptDec) f64() float64 { return math.Float64frombits(d.u64()) }

func (d *ckptDec) boolean() bool {
	if d.err != nil {
		return false
	}
	if len(d.b) < 1 {
		d.fail("truncated payload")
		return false
	}
	v := d.b[0]
	d.b = d.b[1:]
	return v != 0
}

// count reads a u64 length whose elements occupy at least elemSize bytes
// each, rejecting lengths the remaining payload cannot hold — the guard
// that keeps corrupt lengths from turning into huge allocations.
func (d *ckptDec) count(elemSize int) int {
	n := d.u64()
	if d.err == nil && n > uint64(len(d.b)/elemSize) {
		d.fail("length %d exceeds remaining payload", n)
		return 0
	}
	return int(n)
}

func (d *ckptDec) str() string {
	if d.err != nil {
		return ""
	}
	n := d.u64()
	if d.err != nil {
		return ""
	}
	if n > uint64(len(d.b)) {
		d.fail("string length %d exceeds remaining payload", n)
		return ""
	}
	v := string(d.b[:n])
	d.b = d.b[n:]
	return v
}

func (d *ckptDec) floats() []float64 {
	n := d.count(8)
	if d.err != nil || n == 0 {
		return nil
	}
	out := make([]float64, n)
	for i := range out {
		out[i] = d.f64()
	}
	return out
}

func (d *ckptDec) blob() []byte {
	if d.err != nil {
		return nil
	}
	n := d.u64()
	if d.err != nil {
		return nil
	}
	if n > uint64(len(d.b)) {
		d.fail("blob length %d exceeds remaining payload", n)
		return nil
	}
	v := append([]byte(nil), d.b[:n]...)
	d.b = d.b[n:]
	return v
}

// EncodeCheckpoint serializes c into a self-verifying checkpoint file image.
func EncodeCheckpoint(c *Checkpoint) []byte { return appendCheckpoint(nil, c) }

// appendCheckpoint appends c's checkpoint file image to dst: the header is
// reserved first and filled in once the payload's length and CRC are known,
// so a caller that passes back its previous image encodes into the same
// buffer without copying the payload.
func appendCheckpoint(dst []byte, c *Checkpoint) []byte {
	start := len(dst)
	e := ckptEnc{b: append(dst, make([]byte, ckptHeader)...)}
	st := &c.State
	e.i64(int64(st.Epoch))
	e.i64(int64(st.Slot))
	e.f64(st.LastArrival)
	e.i64(st.JobsOffered)
	e.i64(st.JobsServed)
	e.u64(uint64(len(st.Pending)))
	for _, j := range st.Pending {
		e.f64(j.Arrival)
		e.f64(j.Size)
	}
	e.f64(st.LastMean)
	e.f64(st.LastP95)
	e.i64(int64(st.LastJobs))
	e.f64(st.FreqSum)
	e.u64(uint64(len(st.PlanNames)))
	for i, name := range st.PlanNames {
		e.str(name)
		e.i64(st.PlanCounts[i])
	}
	e.u64(st.RngDraws)
	e.u64(uint64(len(st.Predictor)))
	e.b = append(e.b, st.Predictor...)
	e.i64(int64(st.Window.Capacity))
	e.i64(int64(st.Window.Pushed))
	e.u64(uint64(len(st.Window.Epochs)))
	for _, ep := range st.Window.Epochs {
		e.floats(ep.Gaps)
		e.floats(ep.Sizes)
	}
	e.boolean(st.HasEngine)
	if st.HasEngine {
		e.f64(st.CurFrequency)
		e.str(st.CurPlanName)
		e.u64(uint64(len(st.CurPhases)))
		for _, ph := range st.CurPhases {
			e.i64(int64(ph.CPU))
			e.i64(int64(ph.Platform))
			e.f64(ph.Enter)
		}
		en := &st.Engine
		e.f64(en.FreeAt)
		e.f64(en.Anchor)
		e.f64(en.Billed)
		e.f64(en.Energy)
		e.f64(en.Busy)
		e.f64(en.Wake)
		e.f64(en.Idle)
		e.i64(int64(en.Wakes))
		e.f64(en.Started)
		e.f64(en.LastSeen)
		e.floats(en.Resid)
		e.u64(uint64(len(en.ResidPrevNames)))
		for i, name := range en.ResidPrevNames {
			e.str(name)
			e.f64(en.ResidPrevWeights[i])
		}
		e.i64(int64(en.Responses.N))
		e.f64(en.Responses.Mean)
		e.f64(en.Responses.M2)
		e.f64(en.Responses.Min)
		e.f64(en.Responses.Max)
		e.boolean(en.DiscardResponses)
	}
	e.f64(st.PrevTotals.Energy)
	e.f64(st.PrevTotals.BusyTime)
	e.f64(st.PrevTotals.WakeTime)
	e.f64(st.PrevTotals.IdleTime)
	e.i64(int64(st.PrevTotals.Jobs))
	e.i64(int64(st.PrevTotals.Wakes))
	e.i64(c.EpochLogRows)
	e.u64(uint64(len(c.EpochLogDict)))
	for _, name := range c.EpochLogDict {
		e.str(name)
	}

	hdr, payload := e.b[start:start+ckptHeader], e.b[start+ckptHeader:]
	copy(hdr, ckptMagic)
	binary.LittleEndian.PutUint32(hdr[4:], ckptVersion)
	binary.LittleEndian.PutUint64(hdr[8:], uint64(len(payload)))
	binary.LittleEndian.PutUint32(hdr[16:], crc32.Checksum(payload, ckptCRC))
	return e.b
}

// DecodeCheckpoint parses and verifies a checkpoint file image. Truncated,
// oversized or CRC-damaged images return an error — never a panic, and
// never a partially-applied state.
func DecodeCheckpoint(data []byte) (*Checkpoint, error) {
	if len(data) < ckptHeader {
		return nil, fmt.Errorf("serve: checkpoint: %d bytes, want ≥ %d", len(data), ckptHeader)
	}
	if string(data[:4]) != ckptMagic {
		return nil, fmt.Errorf("serve: checkpoint: bad magic %q", data[:4])
	}
	if v := binary.LittleEndian.Uint32(data[4:8]); v != ckptVersion {
		return nil, fmt.Errorf("serve: checkpoint: version %d, want %d", v, ckptVersion)
	}
	plen := binary.LittleEndian.Uint64(data[8:16])
	if plen != uint64(len(data)-ckptHeader) {
		return nil, fmt.Errorf("serve: checkpoint: payload %d bytes, header says %d", len(data)-ckptHeader, plen)
	}
	want := binary.LittleEndian.Uint32(data[16:20])
	payload := data[ckptHeader:]
	if got := crc32.Checksum(payload, ckptCRC); got != want {
		return nil, fmt.Errorf("serve: checkpoint: CRC %#x, want %#x", got, want)
	}

	d := ckptDec{b: payload}
	c := &Checkpoint{}
	st := &c.State
	st.Epoch = int(d.i64())
	st.Slot = int(d.i64())
	st.LastArrival = d.f64()
	st.JobsOffered = d.i64()
	st.JobsServed = d.i64()
	nPend := d.count(16)
	for i := 0; i < nPend && d.err == nil; i++ {
		st.Pending = append(st.Pending, queue.Job{Arrival: d.f64(), Size: d.f64()})
	}
	st.LastMean = d.f64()
	st.LastP95 = d.f64()
	st.LastJobs = int(d.i64())
	st.FreqSum = d.f64()
	nPlans := d.count(16)
	for i := 0; i < nPlans && d.err == nil; i++ {
		st.PlanNames = append(st.PlanNames, d.str())
		st.PlanCounts = append(st.PlanCounts, d.i64())
	}
	st.RngDraws = d.u64()
	st.Predictor = d.blob()
	st.Window.Capacity = int(d.i64())
	st.Window.Pushed = int(d.i64())
	nEpochs := d.count(16)
	for i := 0; i < nEpochs && d.err == nil; i++ {
		st.Window.Epochs = append(st.Window.Epochs, eventlog.Epoch{
			Gaps: d.floats(), Sizes: d.floats(),
		})
	}
	st.HasEngine = d.boolean()
	if st.HasEngine {
		st.CurFrequency = d.f64()
		st.CurPlanName = d.str()
		nPh := d.count(24)
		for i := 0; i < nPh && d.err == nil; i++ {
			st.CurPhases = append(st.CurPhases, core.LivePhase{
				CPU: int(d.i64()), Platform: int(d.i64()), Enter: d.f64(),
			})
		}
		en := &st.Engine
		en.FreeAt = d.f64()
		en.Anchor = d.f64()
		en.Billed = d.f64()
		en.Energy = d.f64()
		en.Busy = d.f64()
		en.Wake = d.f64()
		en.Idle = d.f64()
		en.Wakes = int(d.i64())
		en.Started = d.f64()
		en.LastSeen = d.f64()
		en.Resid = d.floats()
		nResid := d.count(16)
		for i := 0; i < nResid && d.err == nil; i++ {
			en.ResidPrevNames = append(en.ResidPrevNames, d.str())
			en.ResidPrevWeights = append(en.ResidPrevWeights, d.f64())
		}
		en.Responses = metrics.StreamState{
			N: int(d.i64()), Mean: d.f64(), M2: d.f64(), Min: d.f64(), Max: d.f64(),
		}
		en.DiscardResponses = d.boolean()
	}
	st.PrevTotals = queue.Snapshot{
		Energy: d.f64(), BusyTime: d.f64(), WakeTime: d.f64(), IdleTime: d.f64(),
		Jobs: int(d.i64()), Wakes: int(d.i64()),
	}
	c.EpochLogRows = d.i64()
	nDict := d.count(8)
	for i := 0; i < nDict && d.err == nil; i++ {
		c.EpochLogDict = append(c.EpochLogDict, d.str())
	}
	if d.err != nil {
		return nil, d.err
	}
	if len(d.b) != 0 {
		return nil, fmt.Errorf("serve: checkpoint: %d trailing bytes", len(d.b))
	}
	return c, nil
}

// WriteCheckpoint atomically replaces the checkpoint at path with c: the
// image lands in a temp file, is fsynced, the existing checkpoint (if any)
// rotates to path+PrevSuffix, and the temp file renames into place. At every
// instant either the old or the new snapshot is loadable.
func WriteCheckpoint(path string, c *Checkpoint) error {
	return writeImage(path, EncodeCheckpoint(c))
}

// writeImage is WriteCheckpoint's write half, for an already-encoded image:
// temp file, fsync, rotation of the existing checkpoint to path+PrevSuffix,
// rename into place and a best-effort directory sync. It only reads data.
func writeImage(path string, data []byte) error {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, filepath.Base(path)+".tmp*")
	if err != nil {
		return err
	}
	tmpName := tmp.Name()
	cleanup := func() { tmp.Close(); os.Remove(tmpName) }
	if _, err := tmp.Write(data); err != nil {
		cleanup()
		return err
	}
	if err := tmp.Sync(); err != nil {
		cleanup()
		return err
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmpName)
		return err
	}
	if _, err := os.Stat(path); err == nil {
		if err := os.Rename(path, path+PrevSuffix); err != nil {
			os.Remove(tmpName)
			return err
		}
	}
	if err := os.Rename(tmpName, path); err != nil {
		os.Remove(tmpName)
		return err
	}
	if d, err := os.Open(dir); err == nil {
		d.Sync() // best-effort directory durability
		d.Close()
	}
	return nil
}

// LoadCheckpoint reads and verifies the checkpoint at path, falling back to
// the rotated previous snapshot when the primary is missing, truncated or
// corrupt — the crash-mid-write recovery path. os.ErrNotExist surfaces only
// when neither file exists, and the error then names both files tried.
func LoadCheckpoint(path string) (*Checkpoint, error) {
	c, _, err := LoadCheckpointFrom(path)
	return c, err
}

// LoadCheckpointFrom is LoadCheckpoint, additionally reporting which file
// the snapshot was actually loaded from — path itself, or path+PrevSuffix
// when the fallback was taken — so callers can surface the recovery
// decision to the operator.
func LoadCheckpointFrom(path string) (*Checkpoint, string, error) {
	c, primaryErr := loadOne(path)
	if primaryErr == nil {
		return c, path, nil
	}
	prev := path + PrevSuffix
	c, prevErr := loadOne(prev)
	if prevErr == nil {
		return c, prev, nil
	}
	if errors.Is(primaryErr, os.ErrNotExist) && errors.Is(prevErr, os.ErrNotExist) {
		return nil, "", fmt.Errorf("serve: checkpoint %s: %w (no previous snapshot %s either)", path, primaryErr, prev)
	}
	return nil, "", fmt.Errorf("serve: checkpoint %s unusable (%v); previous snapshot %s unusable (%v)", path, primaryErr, prev, prevErr)
}

func loadOne(path string) (*Checkpoint, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return DecodeCheckpoint(data)
}
