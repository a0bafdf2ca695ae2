package colstore

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math"
)

// File kinds. The kind tags what the columns mean; the framing is identical.
const (
	// KindTrace is a utilization trace: columns "slot", "utilization".
	KindTrace uint16 = 1
	// KindJobs is a recorded job stream: columns "arrival", "size".
	KindJobs uint16 = 2
	// KindEpochs is a per-epoch run log (see core.WriteEpochLog).
	KindEpochs uint16 = 3
	// KindEvents is a per-job epoch event log: columns "epoch", "gap", "size".
	KindEvents uint16 = 4
	// KindSweep is a policy-sweep result set (see cmd/sweep): columns
	// "state", "f", "norm_mean_response", "avg_power", with "state" holding
	// dictionary ids of sleep-state names.
	KindSweep uint16 = 5
	// KindFleetEpochs is a fleet coordinator per-epoch log: the KindEpochs
	// columns plus the fleet dimensions "active", "parked", "shallow" and
	// "unparked" (see fleet.WriteEpochLog).
	KindFleetEpochs uint16 = 6
	// KindFleetServers is a fleet coordinator per-server rollup, one row per
	// server with its whole-run totals. Nothing writes it any more; the kind
	// stays so that files written earlier still open.
	KindFleetServers uint16 = 7
	// KindFaults is a fault-event log: columns "time", "server", "kind"
	// (0 = crash, 1 = repair), one row per applied fault transition (see
	// fault.WriteLog).
	KindFaults uint16 = 8
)

// BlockRows is the maximum (and default flush) number of rows per block.
const BlockRows = 4096

const (
	fileMagic    uint32 = 0x4c435353          // "SSCL"
	blockMagic   uint32 = 0x4b425353          // "SSBK"
	footerMagic  uint32 = 0x54465353          // "SSFT"
	trailerMagic uint64 = 0x524c5254_4c435353 // "SSCLTRLR"
	version      uint16 = 1

	fixedHeaderLen = 24
	blockHeaderLen = 16
	trailerLen     = 16 // footerLen uint64 + trailerMagic uint64
)

// maxNameLen bounds column and dictionary string lengths, so a corrupt
// length field cannot drive a giant allocation.
const maxNameLen = 1 << 16

// crcTable is the Castagnoli table shared by encode and verify.
var crcTable = crc32.MakeTable(crc32.Castagnoli)

// nativeLittle reports whether the host is little-endian, deciding whether
// mapped column payloads can be viewed in place.
var nativeLittle = func() bool {
	var probe [2]byte
	binary.NativeEndian.PutUint16(probe[:], 0x0102)
	return probe[0] == 0x02
}()

// Schema describes a column file: its kind, the trace slot length (0 when
// meaningless), the ordered column names, and the interned string
// dictionary that id-valued columns index into.
type Schema struct {
	Kind        uint16
	SlotSeconds float64
	Cols        []string
	Dict        []string
}

// ColIndex returns the index of the named column, or -1.
func (s *Schema) ColIndex(name string) int {
	for i, c := range s.Cols {
		if c == name {
			return i
		}
	}
	return -1
}

func (s *Schema) validate() error {
	if len(s.Cols) == 0 {
		return fmt.Errorf("colstore: schema needs at least one column")
	}
	seen := make(map[string]bool, len(s.Cols))
	for _, c := range s.Cols {
		if c == "" {
			return fmt.Errorf("colstore: empty column name")
		}
		if len(c) >= maxNameLen {
			return fmt.Errorf("colstore: column name %q too long", c[:32]+"…")
		}
		if seen[c] {
			return fmt.Errorf("colstore: duplicate column %q", c)
		}
		seen[c] = true
	}
	if s.SlotSeconds < 0 || math.IsNaN(s.SlotSeconds) || math.IsInf(s.SlotSeconds, 0) {
		return fmt.Errorf("colstore: slot length %g invalid", s.SlotSeconds)
	}
	return nil
}

// headerSize returns the encoded header length, padded to 8 bytes.
func (s *Schema) headerSize() int {
	n := fixedHeaderLen
	for _, c := range s.Cols {
		n += 4 + len(c)
	}
	return pad8(n)
}

// blockSize returns the full frame size of a block holding rows rows of
// ncols columns.
func blockSize(ncols, rows int) int {
	return blockHeaderLen + 16*ncols + 8*rows*ncols
}

func pad8(n int) int { return (n + 7) &^ 7 }

// encodeHeader serializes the schema header.
func encodeHeader(s *Schema) []byte {
	buf := make([]byte, s.headerSize())
	binary.LittleEndian.PutUint32(buf[0:], fileMagic)
	binary.LittleEndian.PutUint16(buf[4:], version)
	binary.LittleEndian.PutUint16(buf[6:], s.Kind)
	binary.LittleEndian.PutUint64(buf[8:], math.Float64bits(s.SlotSeconds))
	binary.LittleEndian.PutUint32(buf[16:], uint32(len(s.Cols)))
	binary.LittleEndian.PutUint32(buf[20:], uint32(len(buf)))
	off := fixedHeaderLen
	for _, c := range s.Cols {
		binary.LittleEndian.PutUint32(buf[off:], uint32(len(c)))
		off += 4
		off += copy(buf[off:], c)
	}
	return buf
}

// decodeHeader parses and validates a header prefix, returning the schema
// (dictionary empty — it lives in the footer) and the header length.
func decodeHeader(data []byte) (*Schema, int, error) {
	if len(data) < fixedHeaderLen {
		return nil, 0, fmt.Errorf("colstore: file too short for header (%d bytes)", len(data))
	}
	if m := binary.LittleEndian.Uint32(data[0:]); m != fileMagic {
		return nil, 0, fmt.Errorf("colstore: bad magic %#08x", m)
	}
	if v := binary.LittleEndian.Uint16(data[4:]); v != version {
		return nil, 0, fmt.Errorf("colstore: unsupported version %d", v)
	}
	s := &Schema{
		Kind:        binary.LittleEndian.Uint16(data[6:]),
		SlotSeconds: math.Float64frombits(binary.LittleEndian.Uint64(data[8:])),
	}
	ncols := int(binary.LittleEndian.Uint32(data[16:]))
	headerLen := int(binary.LittleEndian.Uint32(data[20:]))
	if ncols < 1 || ncols > maxNameLen {
		return nil, 0, fmt.Errorf("colstore: column count %d out of range", ncols)
	}
	if headerLen < fixedHeaderLen || headerLen > len(data) || headerLen%8 != 0 {
		return nil, 0, fmt.Errorf("colstore: header length %d out of range", headerLen)
	}
	off := fixedHeaderLen
	for i := 0; i < ncols; i++ {
		if off+4 > headerLen {
			return nil, 0, fmt.Errorf("colstore: header truncated at column %d", i)
		}
		n := int(binary.LittleEndian.Uint32(data[off:]))
		off += 4
		if n < 1 || n >= maxNameLen || off+n > headerLen {
			return nil, 0, fmt.Errorf("colstore: column %d name length %d out of range", i, n)
		}
		s.Cols = append(s.Cols, string(data[off:off+n]))
		off += n
	}
	if pad8(off) != headerLen {
		return nil, 0, fmt.Errorf("colstore: header length %d does not match %d columns", headerLen, ncols)
	}
	if err := s.validate(); err != nil {
		return nil, 0, err
	}
	return s, headerLen, nil
}

// blockMeta locates one block inside the file.
type blockMeta struct {
	offset int64
	rows   int
}

// encodeFooter serializes the block index and dictionary, followed by the
// fixed trailer.
func encodeFooter(blocks []blockMeta, dict []string) []byte {
	n := 8 + 16*len(blocks) + 4
	for _, d := range dict {
		n += 4 + len(d)
	}
	buf := make([]byte, n+trailerLen)
	binary.LittleEndian.PutUint32(buf[0:], footerMagic)
	binary.LittleEndian.PutUint32(buf[4:], uint32(len(blocks)))
	off := 8
	for _, b := range blocks {
		binary.LittleEndian.PutUint64(buf[off:], uint64(b.offset))
		binary.LittleEndian.PutUint64(buf[off+8:], uint64(b.rows))
		off += 16
	}
	binary.LittleEndian.PutUint32(buf[off:], uint32(len(dict)))
	off += 4
	for _, d := range dict {
		binary.LittleEndian.PutUint32(buf[off:], uint32(len(d)))
		off += 4
		off += copy(buf[off:], d)
	}
	binary.LittleEndian.PutUint64(buf[n:], uint64(n))
	binary.LittleEndian.PutUint64(buf[n+8:], trailerMagic)
	return buf
}

// decodeFooter parses the footer given the whole file; it returns the block
// index, the dictionary, and the offset at which the footer begins (the end
// of block data). ok=false means the file carries no (valid) trailer and the
// caller should fall back to a sequential block scan.
func decodeFooter(data []byte) (blocks []blockMeta, dict []string, footStart int, ok bool, err error) {
	if len(data) < trailerLen {
		return nil, nil, 0, false, nil
	}
	if binary.LittleEndian.Uint64(data[len(data)-8:]) != trailerMagic {
		return nil, nil, 0, false, nil
	}
	footerLen := binary.LittleEndian.Uint64(data[len(data)-trailerLen:])
	if footerLen > uint64(len(data)-trailerLen) || footerLen < 12 {
		return nil, nil, 0, false, fmt.Errorf("colstore: footer length %d out of range", footerLen)
	}
	footStart = len(data) - trailerLen - int(footerLen)
	f := data[footStart : len(data)-trailerLen]
	if binary.LittleEndian.Uint32(f[0:]) != footerMagic {
		return nil, nil, 0, false, fmt.Errorf("colstore: bad footer magic")
	}
	nblocks := int(binary.LittleEndian.Uint32(f[4:]))
	off := 8
	if nblocks < 0 || off+16*nblocks > len(f) {
		return nil, nil, 0, false, fmt.Errorf("colstore: block count %d out of range", nblocks)
	}
	for i := 0; i < nblocks; i++ {
		b := blockMeta{
			offset: int64(binary.LittleEndian.Uint64(f[off:])),
			rows:   int(binary.LittleEndian.Uint64(f[off+8:])),
		}
		off += 16
		blocks = append(blocks, b)
	}
	if off+4 > len(f) {
		return nil, nil, 0, false, fmt.Errorf("colstore: footer truncated before dictionary")
	}
	ndict := int(binary.LittleEndian.Uint32(f[off:]))
	off += 4
	if ndict < 0 || ndict > maxNameLen {
		return nil, nil, 0, false, fmt.Errorf("colstore: dictionary size %d out of range", ndict)
	}
	for i := 0; i < ndict; i++ {
		if off+4 > len(f) {
			return nil, nil, 0, false, fmt.Errorf("colstore: dictionary truncated at entry %d", i)
		}
		n := int(binary.LittleEndian.Uint32(f[off:]))
		off += 4
		if n < 0 || n >= maxNameLen || off+n > len(f) {
			return nil, nil, 0, false, fmt.Errorf("colstore: dictionary entry %d length %d out of range", i, n)
		}
		dict = append(dict, string(f[off:off+n]))
		off += n
	}
	if off != len(f) {
		return nil, nil, 0, false, fmt.Errorf("colstore: %d trailing footer bytes", len(f)-off)
	}
	return blocks, dict, footStart, true, nil
}
