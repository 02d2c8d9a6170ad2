package walkindex

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash"
	"hash/crc32"
	"io"
	"math"
	"slices"
)

// On-disk format (all integers little-endian). One payload encoding, two
// header layouts — a full index and a shard differ only in whether the
// owned range is spliced into the header:
//
//	index file                          shard file
//	offset  size  field                 offset  size  field
//	0       8     magic "SRWKIDX\x00"   0       8     magic "SRWKSHRD"
//	8       4     format version (2)    8       4     format version (2)
//	12      8     n   (vertices)        12      8     n   (full-graph vertices)
//	                                    20      8     lo  (first owned vertex)
//	                                    28      8     hi  (one past the last)
//	20      8     k   (horizon)         36      8     k
//	28      8     r   (fingerprints)    44      8     r
//	36      8     c   (IEEE-754 bits)   52      8     c
//	44      8     seed                  60      8     seed
//	52                                  68
//
// (n, lo, hi, k, r, seed are int64.) An index file's range is [0, n) by
// construction. After either header:
//
//	+0      4     block size B (start vertices per posting block, uint32)
//	+4      4     numBlocks = ceil(rows/B) (uint32), rows = hi-lo
//	+8      8*(numBlocks+1)  block directory: byte offset of each posting
//	              block within the payload; entry 0 is 0, entry numBlocks
//	              is the payload length
//	...     delta/varint posting blocks (payload; see v2.go for the codec)
//	...     4     CRC-32 (IEEE) of every preceding byte
//
// The trailing checksum makes truncation and bit corruption detectable
// without trusting the payload; the version field rejects files written by
// a future or a retired revision (format 1, the dense raw-[]int32 payload,
// is no longer read or written). The distinct magics keep a shard file
// from ever loading as a full index or vice versa: every opening states
// the kind it expects and the other kind's file is ErrBadMagic, not a
// silent misread.
//
// Load order — one sequence, run by readFile for both file kinds, whether
// the index only reads its file (Load) or also writes it back
// (LoadWriteBack):
//
//  1. header parse + plausibility guards: nothing payload-sized is
//     allocated from unvalidated fields;
//  2. payload decode, with allocations growing as bytes are actually
//     read, so a forged header on a short stream fails with a truncation
//     error after a proportional allocation (a payload whose corruption
//     is structurally undecodable fails here, before the trailer is
//     reachable);
//  3. checksum verification — a corrupt file reports ErrChecksum even
//     when its decoded entries would also fail validation;
//  4. trailing-data probe: Save writes exactly one index per stream, so
//     any byte after the checksum is ErrTrailingData, not slack to
//     ignore;
//  5. per-entry range validation of the decoded paths (checked while
//     decoding, reported only after steps 3 and 4);
//  6. index construction from validated fields only, the coalescence
//     order included.

// FormatVersion is the on-disk format revision this build reads and
// writes.
const FormatVersion = 2

// FileKind names the two header layouts. Every save and every opening
// states the kind it means, so an index file and a shard file can never
// stand in for each other.
type FileKind int

const (
	// IndexFile is the 52-byte-header layout of a full-range index.
	IndexFile FileKind = iota
	// ShardFile is the 68-byte-header layout carrying the owned range.
	ShardFile
)

var fileMagic = [...][8]byte{
	IndexFile: {'S', 'R', 'W', 'K', 'I', 'D', 'X', 0},
	ShardFile: {'S', 'R', 'W', 'K', 'S', 'H', 'R', 'D'},
}

// String names the kind in error and section labels.
func (kind FileKind) String() string {
	if kind == ShardFile {
		return "shard"
	}
	return "index"
}

// Sentinel errors returned by Save and Load (possibly wrapped with detail).
var (
	ErrBadMagic = errors.New("walkindex: not a walk-index file of the expected kind (bad magic)")
	ErrVersion  = errors.New("walkindex: unsupported format version")
	ErrChecksum = errors.New("walkindex: checksum mismatch (corrupted index)")
	// ErrTrailingData reports bytes after the CRC trailer — a concatenated
	// or overlong file.
	ErrTrailingData = errors.New("walkindex: trailing data after index")
	// ErrFormatLimits reports an index that exceeds what the on-disk
	// format's load guards accept — Save refuses to write a file Load
	// would refuse to read back.
	ErrFormatLimits = errors.New("walkindex: index exceeds on-disk format limits")
)

// maxElems caps rows*r*k at load time so a corrupted header cannot trigger
// an absurd allocation before the checksum is ever seen.
const maxElems = int64(1) << 33

// fileHeader is the parameter block both header layouts carry; it is the
// one place that knows their byte layout (preamble writes it, readHeader
// parses it).
type fileHeader struct {
	kind            FileKind
	n, lo, hi, k, r int64
	c               float64
	seed            int64
}

// writableHeader describes an index of the given shape as a file of the
// given kind, after running everything the load-side guards will check —
// so every file this package writes is guaranteed loadable. Violations
// wrap ErrFormatLimits. Only a full-range index can be an index file: that
// layout has nowhere to record a range.
func writableHeader(kind FileKind, n, lo, hi, k, r int, c float64, seed int64) (fileHeader, error) {
	if kind == IndexFile && (lo != 0 || hi != n) {
		return fileHeader{}, fmt.Errorf("walkindex: range [%d,%d) of [0,%d) cannot be written as a full index file", lo, hi, n)
	}
	h := fileHeader{kind: kind, n: int64(n), lo: int64(lo), hi: int64(hi), k: int64(k), r: int64(r), c: c, seed: seed}
	if err := h.check(); err != nil {
		return fileHeader{}, fmt.Errorf("%w: %v", ErrFormatLimits, err)
	}
	return h, nil
}

func (h fileHeader) rows() int64 { return h.hi - h.lo }

// check is the plausibility guard of load step 1.
func (h fileHeader) check() error {
	if h.n < 0 || h.k < 1 || h.r < 1 {
		return fmt.Errorf("invalid dimensions (n=%d, k=%d, r=%d)", h.n, h.k, h.r)
	}
	if h.lo < 0 || h.hi < h.lo || h.hi > h.n {
		return fmt.Errorf("invalid range [%d,%d) with n=%d", h.lo, h.hi, h.n)
	}
	if h.k > maxV2Horizon {
		return fmt.Errorf("walk horizon k = %d exceeds %d", h.k, maxV2Horizon)
	}
	if !(h.c > 0 && h.c < 1) {
		return fmt.Errorf("damping factor %v outside (0,1)", h.c)
	}
	rows := h.rows()
	elems := rows * h.r * h.k
	if rows > 0 && (elems/rows/h.r != h.k || elems > maxElems) {
		return fmt.Errorf("rows*r*k = %d*%d*%d exceeds %d elements", rows, h.r, h.k, maxElems)
	}
	return nil
}

// preamble marshals everything that precedes the block directory: the
// kind's header layout, then the block size and block count.
func (h fileHeader) preamble(blockB, numBlocks int) []byte {
	fields := []uint64{uint64(h.n), uint64(h.k), uint64(h.r), math.Float64bits(h.c), uint64(h.seed)}
	if h.kind == ShardFile {
		fields = slices.Insert(fields, 1, uint64(h.lo), uint64(h.hi))
	}
	pre := make([]byte, 0, 12+8*len(fields)+8)
	pre = append(pre, fileMagic[h.kind][:]...)
	pre = binary.LittleEndian.AppendUint32(pre, FormatVersion)
	for _, f := range fields {
		pre = binary.LittleEndian.AppendUint64(pre, f)
	}
	pre = binary.LittleEndian.AppendUint32(pre, uint32(blockB))
	return binary.LittleEndian.AppendUint32(pre, uint32(numBlocks))
}

// readHeader is load step 1: it parses a header of the expected kind and
// runs the plausibility guards.
func readHeader(br *bufio.Reader, crc hash.Hash32, kind FileKind) (fileHeader, error) {
	section := kind.String() + " header"
	var lead [12]byte
	if err := readFull(br, crc, lead[:], section); err != nil {
		return fileHeader{}, err
	}
	if [8]byte(lead[:8]) != fileMagic[kind] {
		return fileHeader{}, ErrBadMagic
	}
	if version := binary.LittleEndian.Uint32(lead[8:]); version != FormatVersion {
		return fileHeader{}, fmt.Errorf("%w: file has version %d, this build reads version %d", ErrVersion, version, FormatVersion)
	}
	nfields := 5
	if kind == ShardFile {
		nfields = 7
	}
	buf := make([]byte, 8*nfields)
	if err := readFull(br, crc, buf, section); err != nil {
		return fileHeader{}, err
	}
	field := func() int64 {
		v := int64(binary.LittleEndian.Uint64(buf))
		buf = buf[8:]
		return v
	}
	h := fileHeader{kind: kind, n: field()}
	if kind == ShardFile {
		h.lo, h.hi = field(), field()
	} else {
		h.hi = h.n
	}
	h.k, h.r = field(), field()
	h.c = math.Float64frombits(uint64(field()))
	h.seed = field()
	if err := h.check(); err != nil {
		return fileHeader{}, fmt.Errorf("walkindex: implausible %s: %w", section, err)
	}
	return h, nil
}

// Save writes the index to w as a file of the given kind. It validates the
// index against the load-side guards first and returns an
// ErrFormatLimits-wrapped error instead of writing an unloadable file. The
// encoding is canonical: load → save reproduces the file byte for byte.
func (ix *Index) Save(w io.Writer, kind FileKind) error {
	h, err := writableHeader(kind, ix.n, ix.lo, ix.hi, ix.k, ix.r, ix.c, ix.seed)
	if err != nil {
		return err
	}
	nb := int(v2NumBlocks(int64(ix.Width()), v2BlockVertices))
	var payload []byte
	lens := make([]int64, nb)
	for b := range lens {
		n := len(payload)
		if payload, err = ix.store.appendBlock(payload, b, v2BlockVertices); err != nil {
			return err
		}
		lens[b] = int64(len(payload) - n)
	}
	return writeV2(w, h.preamble(v2BlockVertices, nb), lens, func(b int, w io.Writer) error {
		_, err := w.Write(payload[:lens[b]])
		payload = payload[lens[b]:]
		return err
	}, kind.String())
}

// Load reads a file of the given kind written by Save or BuildStreaming
// and decodes it into a resident index: each block is decoded into one
// reused buffer and its live prefixes are kept. It rejects files with a
// wrong magic, an unsupported format version, a truncated payload, a
// checksum mismatch, or trailing data after the trailer, in the documented
// load order above. The index never writes; LoadWriteBack (writeback.go)
// loads one that keeps its file in step with every Update.
func Load(r io.Reader, kind FileKind) (*Index, error) {
	f, err := readFile(r, kind)
	if err != nil {
		return nil, err
	}
	return f.newIndex(), nil
}

// validFile is what readFile vouches for: the header, the block geometry
// and the decoded walks.
type validFile struct {
	hdr    fileHeader
	blockB int64
	dir    []int64      // numBlocks+1 payload byte offsets
	vlen   []uint32     // per stored vertex: its encoded length in bytes
	rows   *raggedStore // every row's live prefixes
}

// newIndex is load step 6: the index over the decoded rows, with its
// coalescence order.
func (f *validFile) newIndex() *Index {
	h := f.hdr
	ix := newIndex(int(h.n), int(h.lo), int(h.hi), int(h.k), int(h.r), h.c, h.seed, joinStores(int(h.r), int(h.k), []*raggedStore{f.rows}))
	ix.forest = buildForest(ix, 0)
	return ix
}

// readFile is the one reader: it runs load steps 1–5 over r. Every block
// decodes into one reused buffer and the live prefixes of each block are
// appended to a ragged store as they come, so reading a file grows with
// the bytes actually read and never holds the dense index.
func readFile(r io.Reader, kind FileKind) (*validFile, error) {
	// The CRC must cover exactly the bytes logically consumed (a tee under
	// bufio would also hash read-ahead, including the trailing checksum),
	// so readFull feeds each chunk to the hash by hand.
	crc := crc32.NewIEEE()
	br := bufio.NewReaderSize(r, 1<<16)
	what := kind.String()

	hdr, err := readHeader(br, crc, kind)
	if err != nil {
		return nil, err
	}
	rows, k, fps := hdr.rows(), hdr.k, hdr.r
	blockB, dir, err := readV2Dir(br, crc, rows, what)
	if err != nil {
		return nil, err
	}

	f := &validFile{hdr: hdr, blockB: blockB, dir: dir, rows: newRaggedStore(int(fps), int(k))}
	var blockBuf []byte
	var scratch []int32
	var rangeErr error
	for b := int64(0); b < int64(len(dir))-1; b++ {
		width := min(blockB, rows-b*blockB)
		blen := dir[b+1] - dir[b]
		if !v2BlockLenPlausible(blen, width, k, fps) {
			return nil, fmt.Errorf("walkindex: implausible %s block length %d", what, blen)
		}
		if int64(cap(blockBuf)) < blen {
			blockBuf = make([]byte, blen)
		}
		buf := blockBuf[:blen]
		if err := readFull(br, crc, buf, what+" block"); err != nil {
			return nil, err
		}
		need := int(width * fps * k)
		if cap(scratch) < need {
			scratch = make([]int32, need)
		}
		dst := scratch[:need]
		if f.vlen, err = decodeV2Block(buf, dst, int(width), int(k), int(fps), f.vlen); err != nil {
			return nil, fmt.Errorf("walkindex: %s block %d: %w", what, b, err)
		}
		stride := int(fps * k)
		for v := 0; v < need; v += stride {
			f.rows.appendVertex(dst[v : v+stride])
		}
		// Step 5 runs here, block by block, but an out-of-range entry is
		// held back until the checksum and trailing-data probe have run.
		if rangeErr == nil {
			rangeErr = validateEntries(dst, hdr.n, what, b*blockB*fps*k)
		}
	}
	if err := checkTrailer(br, crc, what+" checksum"); err != nil {
		return nil, err
	}
	if rangeErr != nil {
		return nil, rangeErr
	}
	return f, nil
}

// checkTrailer verifies the stored CRC against everything read so far,
// then probes one byte past it: Save writes exactly one index per stream,
// so any trailing byte is ErrTrailingData, not slack to ignore.
func checkTrailer(br *bufio.Reader, crc hash.Hash32, section string) error {
	want := crc.Sum32()
	var sum [4]byte
	if err := readFull(br, nil, sum[:], section); err != nil {
		return err
	}
	if got := binary.LittleEndian.Uint32(sum[:]); got != want {
		return fmt.Errorf("%w: stored %08x, computed %08x", ErrChecksum, got, want)
	}
	if _, err := br.ReadByte(); err == nil {
		return fmt.Errorf("%w (byte after checksum)", ErrTrailingData)
	} else if err != io.EOF {
		return fmt.Errorf("walkindex: probing for trailing data: %w", err)
	}
	return nil
}

// validateEntries range-checks decoded path entries against the vertex
// count of the full graph (entries are positions in [0, n), or -1 once
// dead); base is the payload index of paths[0], for the error text.
func validateEntries(paths []int32, n int64, what string, base int64) error {
	for i, p := range paths {
		if p < -1 || int64(p) >= n {
			return fmt.Errorf("walkindex: %s path entry %d out of range: %d", what, base+int64(i), p)
		}
	}
	return nil
}

// readFull is io.ReadFull with a section-labelled truncation error; the
// bytes read are fed to crc when it is non-nil (nil for the stored
// checksum itself, which is not part of its own coverage).
func readFull(br *bufio.Reader, crc hash.Hash32, p []byte, section string) error {
	if _, err := io.ReadFull(br, p); err != nil {
		if errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) {
			return fmt.Errorf("walkindex: truncated index file (short read in %s): %w", section, io.ErrUnexpectedEOF)
		}
		return fmt.Errorf("walkindex: reading %s: %w", section, err)
	}
	if crc != nil {
		crc.Write(p)
	}
	return nil
}
