package colstore

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"os"
	"unsafe"
)

// parseFile validates a whole column file held in memory: header, footer (or
// the sequential crash-recovery scan when the trailer is missing), and every
// block's framing and CRC. It returns the schema, the block index, the
// dictionary and the offset where block data ends (= where a footer would
// start). Malformed input errors; it never panics.
func parseFile(data []byte) (*Schema, []blockMeta, []string, int, error) {
	schema, headerLen, err := decodeHeader(data)
	if err != nil {
		return nil, nil, nil, 0, err
	}
	ncols := len(schema.Cols)
	blocks, dict, footStart, hasFooter, err := decodeFooter(data)
	if err != nil {
		return nil, nil, nil, 0, err
	}
	if hasFooter {
		if footStart < headerLen {
			return nil, nil, nil, 0, fmt.Errorf("colstore: footer overlaps header")
		}
		next := int64(headerLen)
		for i, b := range blocks {
			if b.offset != next {
				return nil, nil, nil, 0, fmt.Errorf("colstore: block %d offset %d, want %d", i, b.offset, next)
			}
			if b.rows < 1 || b.rows > BlockRows {
				return nil, nil, nil, 0, fmt.Errorf("colstore: block %d rows %d out of range", i, b.rows)
			}
			size := int64(blockSize(ncols, b.rows))
			if b.offset+size > int64(footStart) {
				return nil, nil, nil, 0, fmt.Errorf("colstore: block %d overruns footer", i)
			}
			if err := checkBlock(data[b.offset:b.offset+size], b.rows); err != nil {
				return nil, nil, nil, 0, fmt.Errorf("colstore: block %d: %w", i, err)
			}
			next = b.offset + size
		}
		if next != int64(footStart) {
			return nil, nil, nil, 0, fmt.Errorf("colstore: %d unindexed bytes before footer", int64(footStart)-next)
		}
		schema.Dict = dict
		return schema, blocks, dict, footStart, nil
	}
	// No trailer: a crashed writer. Recover every complete block by
	// sequential scan; ignore a trailing partial write.
	off := headerLen
	for off+blockHeaderLen <= len(data) {
		if binary.LittleEndian.Uint32(data[off:]) != blockMagic {
			break
		}
		rows := int(binary.LittleEndian.Uint32(data[off+4:]))
		if rows < 1 || rows > BlockRows {
			break
		}
		size := blockSize(ncols, rows)
		if off+size > len(data) {
			break
		}
		if err := checkBlock(data[off:off+size], rows); err != nil {
			return nil, nil, nil, 0, fmt.Errorf("colstore: recovered block %d: %w", len(blocks), err)
		}
		blocks = append(blocks, blockMeta{offset: int64(off), rows: rows})
		off += size
	}
	return schema, blocks, nil, off, nil
}

// checkBlock verifies one block frame's magic, row count and CRC.
func checkBlock(frame []byte, rows int) error {
	if binary.LittleEndian.Uint32(frame[0:]) != blockMagic {
		return fmt.Errorf("bad block magic")
	}
	if got := int(binary.LittleEndian.Uint32(frame[4:])); got != rows {
		return fmt.Errorf("frame says %d rows, index says %d", got, rows)
	}
	want := binary.LittleEndian.Uint32(frame[8:])
	if got := crc32.Checksum(frame[blockHeaderLen:], crcTable); got != want {
		return fmt.Errorf("crc mismatch (%#08x != %#08x)", got, want)
	}
	return nil
}

// Reader serves column reads over a validated file. Open memory-maps when it
// can, so Col returns zero-copy []float64 views over the file; the ReaderAt
// fallback decodes blocks into caller scratch instead. A Reader is safe for
// concurrent readers once opened.
type Reader struct {
	schema *Schema
	blocks []blockMeta
	rows   int

	data   []byte // whole file, when mapped or in-memory
	mapped bool   // data came from mmap and needs munmap
	ra     io.ReaderAt
	closer io.Closer

	// ranges holds every block's per-column (min, max), decoded once at
	// open — the footers queries skip on.
	ranges []float64
}

// HasMagic reports whether r starts with the column-file magic, so a loader
// can take a column file or a text format under one name without a flag.
func HasMagic(r io.ReaderAt) bool {
	var head [4]byte
	n, _ := r.ReadAt(head[:], 0)
	return n == len(head) && binary.LittleEndian.Uint32(head[:]) == fileMagic
}

// Open opens the column file at path, memory-mapping it when the platform
// allows; on any mapping failure it degrades to ReaderAt block reads over
// the same file handle.
func Open(path string) (*Reader, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, err
	}
	if data, merr := mmapFile(f, st.Size()); merr == nil {
		r, err := openBytes(data, true)
		if err != nil {
			munmapFile(data)
			f.Close()
			return nil, err
		}
		r.closer = f
		return r, nil
	}
	// Portability fallback: plain ReaderAt reads.
	r, err := OpenReaderAt(f, st.Size())
	if err != nil {
		f.Close()
		return nil, err
	}
	r.closer = f
	return r, nil
}

// OpenBytes opens a column file already held in memory (a test fixture, a
// fuzz input, bytes read off a socket). The reader aliases data.
func OpenBytes(data []byte) (*Reader, error) { return openBytes(data, false) }

func openBytes(data []byte, mapped bool) (*Reader, error) {
	schema, blocks, _, _, err := parseFile(data)
	if err != nil {
		return nil, err
	}
	r := &Reader{schema: schema, blocks: blocks, data: data, mapped: mapped}
	r.finish()
	return r, nil
}

// OpenReaderAt opens a column file through plain ReaderAt reads — the
// portability path for platforms without mmap or for non-file sources.
// Validation streams the file once in block-sized reads, so peak memory is
// one block.
func OpenReaderAt(ra io.ReaderAt, size int64) (*Reader, error) {
	if size < 0 || size > 1<<40 {
		return nil, fmt.Errorf("colstore: size %d out of range", size)
	}
	// The header, footer and per-block frames must be validated exactly as
	// the in-memory path does; the simple way that keeps one validator is
	// to read the whole file once here. Column reads afterwards go through
	// ReadAt into caller scratch (r.data stays nil), so steady-state replay
	// memory is still one block — only open pays the full-file read.
	data := make([]byte, size)
	if _, err := io.ReadFull(io.NewSectionReader(ra, 0, size), data); err != nil {
		return nil, fmt.Errorf("colstore: read: %w", err)
	}
	schema, blocks, _, _, err := parseFile(data)
	if err != nil {
		return nil, err
	}
	r := &Reader{schema: schema, blocks: blocks, ra: ra}
	// Decode the block ranges before dropping the file bytes.
	r.data = data
	r.finish()
	r.data = nil
	return r, nil
}

// finish computes row totals and decodes every block's column ranges.
func (r *Reader) finish() {
	ncols := len(r.schema.Cols)
	r.ranges = make([]float64, 0, 2*ncols*len(r.blocks))
	for _, b := range r.blocks {
		r.rows += b.rows
		off := b.offset + blockHeaderLen
		for c := 0; c < ncols; c++ {
			r.ranges = append(r.ranges,
				math.Float64frombits(binary.LittleEndian.Uint64(r.data[off:])),
				math.Float64frombits(binary.LittleEndian.Uint64(r.data[off+8:])))
			off += 16
		}
	}
}

// Close releases the mapping and underlying file, if any. Column views
// returned by Col become invalid.
func (r *Reader) Close() error {
	var err error
	if r.mapped {
		err = munmapFile(r.data)
		r.data = nil
		r.mapped = false
	}
	if r.closer != nil {
		if cerr := r.closer.Close(); err == nil {
			err = cerr
		}
		r.closer = nil
	}
	return err
}

// Schema returns the file's schema (dictionary included, when the file had
// a footer).
func (r *Reader) Schema() *Schema { return r.schema }

// Mapped reports whether column reads are zero-copy views over a mapping.
func (r *Reader) Mapped() bool { return r.data != nil && nativeLittle }

// NumBlocks reports the number of blocks.
func (r *Reader) NumBlocks() int { return len(r.blocks) }

// Rows reports the total row count.
func (r *Reader) Rows() int { return r.rows }

// BlockRows reports block b's row count.
func (r *Reader) BlockRows(b int) int { return r.blocks[b].rows }

// ColRange returns block b's (min, max) footer for column c — what lets a
// query skip the block without reading it.
func (r *Reader) ColRange(b, c int) (lo, hi float64) {
	i := 2 * (b*len(r.schema.Cols) + c)
	return r.ranges[i], r.ranges[i+1]
}

// Col returns block b's values for column c. On a mapped little-endian file
// the slice aliases the file — zero copy, zero allocation, valid until
// Close. Otherwise values are decoded into scratch (grown if needed) and
// scratch[:rows] is returned; passing the previous scratch back in makes
// steady-state iteration allocation-free.
func (r *Reader) Col(b, c int, scratch []float64) ([]float64, error) {
	if b < 0 || b >= len(r.blocks) {
		return nil, fmt.Errorf("colstore: block %d out of range [0,%d)", b, len(r.blocks))
	}
	if c < 0 || c >= len(r.schema.Cols) {
		return nil, fmt.Errorf("colstore: column %d out of range [0,%d)", c, len(r.schema.Cols))
	}
	blk := r.blocks[b]
	ncols := len(r.schema.Cols)
	off := blk.offset + int64(blockHeaderLen+16*ncols+8*blk.rows*c)
	if r.data != nil {
		payload := r.data[off : off+int64(8*blk.rows)]
		if nativeLittle {
			p := unsafe.Pointer(&payload[0])
			if uintptr(p)%8 == 0 { // blocks are 8-aligned; mappings page-aligned
				return unsafe.Slice((*float64)(p), blk.rows), nil
			}
		}
		return decodeCol(payload, blk.rows, scratch), nil
	}
	need := 8 * blk.rows
	buf := scratchBytes(scratch, need)
	if _, err := r.ra.ReadAt(buf, off); err != nil {
		return nil, fmt.Errorf("colstore: read block %d col %d: %w", b, c, err)
	}
	return decodeCol(buf, blk.rows, scratch), nil
}

// decodeCol decodes rows little-endian float64s from payload into scratch.
// When scratch is the slice whose backing array payload already occupies
// (the ReaderAt path reads into it), decoding is in place and alias-safe:
// value i is read before slot i is written.
func decodeCol(payload []byte, rows int, scratch []float64) []float64 {
	out := scratch
	if cap(out) < rows {
		out = make([]float64, rows)
	}
	out = out[:rows]
	for i := 0; i < rows; i++ {
		out[i] = math.Float64frombits(binary.LittleEndian.Uint64(payload[8*i:]))
	}
	return out
}

// scratchBytes views scratch's backing array as a byte slice of at least
// need bytes, allocating a replacement only when it is too small — the
// ReaderAt path's no-allocation trick: read bytes land in the same memory
// the decoded float64s end up in.
func scratchBytes(scratch []float64, need int) []byte {
	if 8*cap(scratch) < need {
		scratch = make([]float64, (need+7)/8)
	}
	scratch = scratch[:cap(scratch)]
	return unsafe.Slice((*byte)(unsafe.Pointer(&scratch[0])), 8*cap(scratch))[:need]
}
