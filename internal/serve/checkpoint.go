package serve

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"

	"sleepscale/internal/binenc"
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

// EncodeCheckpoint serializes c into a self-verifying checkpoint file image.
func EncodeCheckpoint(c *Checkpoint) []byte { return appendCheckpoint(nil, c) }

// appendCheckpoint appends c's checkpoint file image to dst: the header is
// reserved first and filled in once the payload's length and CRC are known,
// so a caller that passes back its previous image encodes into the same
// buffer without copying the payload.
func appendCheckpoint(dst []byte, c *Checkpoint) []byte {
	start := len(dst)
	e := binenc.Encoder{B: append(dst, make([]byte, ckptHeader)...)}
	st := &c.State
	e.I64(int64(st.Epoch))
	e.I64(int64(st.Slot))
	e.F64(st.LastArrival)
	e.I64(st.JobsOffered)
	e.I64(st.JobsServed)
	e.U64(uint64(len(st.Pending)))
	for _, j := range st.Pending {
		e.F64(j.Arrival)
		e.F64(j.Size)
	}
	e.F64(st.LastMean)
	e.F64(st.LastP95)
	e.I64(int64(st.LastJobs))
	e.F64(st.FreqSum)
	e.U64(uint64(len(st.PlanNames)))
	for i, name := range st.PlanNames {
		e.Str(name)
		e.I64(st.PlanCounts[i])
	}
	e.U64(st.RngDraws)
	e.Blob(st.Predictor)
	e.I64(int64(st.Window.Capacity))
	// The window's push count, which always equals Epoch: the slot stays
	// so that the format does not change.
	e.I64(int64(st.Epoch))
	e.U64(uint64(len(st.Window.Epochs)))
	for _, ep := range st.Window.Epochs {
		e.Floats(ep.Gaps)
		e.Floats(ep.Sizes)
	}
	e.Bool(st.HasEngine)
	if st.HasEngine {
		e.F64(st.CurFrequency)
		e.Str(st.CurPlanName)
		e.U64(uint64(len(st.CurPhases)))
		for _, ph := range st.CurPhases {
			e.I64(int64(ph.CPU))
			e.I64(int64(ph.Platform))
			e.F64(ph.Enter)
		}
		en := &st.Engine
		e.F64(en.FreeAt)
		e.F64(en.Anchor)
		e.F64(en.Billed)
		e.F64(en.Energy)
		e.F64(en.Busy)
		e.F64(en.Wake)
		e.F64(en.Idle)
		e.I64(int64(en.Wakes))
		e.F64(en.Started)
		e.F64(en.LastSeen)
		e.Floats(en.Resid)
		e.U64(uint64(len(en.ResidPrevNames)))
		for i, name := range en.ResidPrevNames {
			e.Str(name)
			e.F64(en.ResidPrevWeights[i])
		}
		e.I64(int64(en.Responses.N))
		e.F64(en.Responses.Mean)
		e.F64(en.Responses.M2)
		e.F64(en.Responses.Min)
		e.F64(en.Responses.Max)
		e.Bool(en.DiscardResponses)
	}
	e.F64(st.PrevTotals.Energy)
	e.F64(st.PrevTotals.BusyTime)
	e.F64(st.PrevTotals.WakeTime)
	e.F64(st.PrevTotals.IdleTime)
	e.I64(int64(st.PrevTotals.Jobs))
	e.I64(int64(st.PrevTotals.Wakes))
	e.I64(c.EpochLogRows)
	e.U64(uint64(len(c.EpochLogDict)))
	for _, name := range c.EpochLogDict {
		e.Str(name)
	}

	hdr, payload := e.B[start:start+ckptHeader], e.B[start+ckptHeader:]
	copy(hdr, ckptMagic)
	binary.LittleEndian.PutUint32(hdr[4:], ckptVersion)
	binary.LittleEndian.PutUint64(hdr[8:], uint64(len(payload)))
	binary.LittleEndian.PutUint32(hdr[16:], crc32.Checksum(payload, ckptCRC))
	return e.B
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

	d := binenc.NewDecoder(payload)
	c := &Checkpoint{}
	st := &c.State
	st.Epoch = int(d.I64())
	st.Slot = int(d.I64())
	st.LastArrival = d.F64()
	st.JobsOffered = d.I64()
	st.JobsServed = d.I64()
	nPend := d.Count(16)
	for i := 0; i < nPend && d.Err() == nil; i++ {
		st.Pending = append(st.Pending, queue.Job{Arrival: d.F64(), Size: d.F64()})
	}
	st.LastMean = d.F64()
	st.LastP95 = d.F64()
	st.LastJobs = int(d.I64())
	st.FreqSum = d.F64()
	nPlans := d.Count(16)
	for i := 0; i < nPlans && d.Err() == nil; i++ {
		st.PlanNames = append(st.PlanNames, d.Str())
		st.PlanCounts = append(st.PlanCounts, d.I64())
	}
	st.RngDraws = d.U64()
	st.Predictor = append([]byte(nil), d.Blob()...)
	st.Window.Capacity = int(d.I64())
	if pushed := d.I64(); d.Err() == nil && pushed != int64(st.Epoch) {
		d.Fail(fmt.Errorf("window push count %d, want epoch %d", pushed, st.Epoch))
	}
	nEpochs := d.Count(16)
	for i := 0; i < nEpochs && d.Err() == nil; i++ {
		st.Window.Epochs = append(st.Window.Epochs, eventlog.Epoch{
			Gaps: d.Floats(), Sizes: d.Floats(),
		})
	}
	st.HasEngine = d.Bool()
	if st.HasEngine {
		st.CurFrequency = d.F64()
		st.CurPlanName = d.Str()
		nPh := d.Count(24)
		for i := 0; i < nPh && d.Err() == nil; i++ {
			st.CurPhases = append(st.CurPhases, core.LivePhase{
				CPU: int(d.I64()), Platform: int(d.I64()), Enter: d.F64(),
			})
		}
		en := &st.Engine
		en.FreeAt = d.F64()
		en.Anchor = d.F64()
		en.Billed = d.F64()
		en.Energy = d.F64()
		en.Busy = d.F64()
		en.Wake = d.F64()
		en.Idle = d.F64()
		en.Wakes = int(d.I64())
		en.Started = d.F64()
		en.LastSeen = d.F64()
		en.Resid = d.Floats()
		nResid := d.Count(16)
		for i := 0; i < nResid && d.Err() == nil; i++ {
			en.ResidPrevNames = append(en.ResidPrevNames, d.Str())
			en.ResidPrevWeights = append(en.ResidPrevWeights, d.F64())
		}
		en.Responses = metrics.StreamState{
			N: int(d.I64()), Mean: d.F64(), M2: d.F64(), Min: d.F64(), Max: d.F64(),
		}
		en.DiscardResponses = d.Bool()
	}
	st.PrevTotals = queue.Snapshot{
		Energy: d.F64(), BusyTime: d.F64(), WakeTime: d.F64(), IdleTime: d.F64(),
		Jobs: int(d.I64()), Wakes: int(d.I64()),
	}
	c.EpochLogRows = d.I64()
	nDict := d.Count(8)
	for i := 0; i < nDict && d.Err() == nil; i++ {
		c.EpochLogDict = append(c.EpochLogDict, d.Str())
	}
	if err := d.Finish(); err != nil {
		return nil, fmt.Errorf("serve: checkpoint: %w", err)
	}
	return c, nil
}

// WriteImage atomically replaces the checkpoint at path with an image that
// EncodeCheckpoint produced; the server's background writer writes each
// checkpoint with it. The image lands in a temp file, is fsynced, the existing
// checkpoint (if any) rotates to path+PrevSuffix, and the temp file renames
// into place, followed by a best-effort directory sync. At every instant
// either the old or the new snapshot is loadable. It only reads data.
func WriteImage(path string, data []byte) error {
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
