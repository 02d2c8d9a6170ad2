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
	"math/bits"
	"slices"
)

// On-disk format (all integers little-endian):
//
//	offset  size  field
//	0       8     magic "SRWKIDX\x00"
//	8       4     format version (2)
//	12      8     n   (vertices)
//	20      8     k   (horizon)
//	28      8     r   (fingerprints)
//	36      8     c   (IEEE-754 bits)
//	44      8     seed
//	52      4     block size B (start vertices per posting block, uint32)
//	56      4     numBlocks = ceil(n/B) (uint32)
//	60      8*(numBlocks+1)  block directory: byte offset of each posting
//	              block within the payload; entry 0 is 0, entry numBlocks
//	              is the payload length
//	...     delta/varint posting blocks (payload; see v2.go for the codec)
//	...     4     CRC-32 (IEEE) of every preceding byte
//
// (n, k, r, seed are int64.) A file holds a full-range index: its rows are
// the n vertices [0, n). A ranged index lives in memory only — it is a
// pure function of (graph, options), rebuilt from the graph by Build.
//
// The trailing checksum makes truncation and bit corruption detectable
// without trusting the payload; the version field rejects files written by
// a future or a retired revision (format 1, the dense raw-[]int32 payload,
// is no longer read or written), and the magic anything else, the
// retired shard file layout ("SRWKSHRD", a 68-byte header carrying an
// owned range) included: ErrBadMagic, not a silent misread.
//
// Load order — one sequence, run by readFile whether the index only reads
// its file (Load, LoadFile) or also writes it back (LoadWriteBack); the
// path-based openers then replay the file's edit log (editlog.go) and
// never read the file again:
//
//  1. header parse + plausibility guards: nothing payload-sized is
//     allocated from unvalidated fields;
//  2. payload decode, with allocations growing as bytes are actually
//     read, so a forged header on a short stream fails with a truncation
//     error after a proportional allocation (a payload whose corruption
//     is structurally undecodable fails here, before the trailer is
//     reachable). The blocks are read in bounded windows and each
//     window's blocks decode in parallel, but the error is the first
//     failing block's in file order — an implausible length, a
//     truncation or an undecodable block, as reading them one by one
//     would meet them;
//  3. checksum verification — a corrupt file reports ErrChecksum even
//     when its decoded entries would also fail validation;
//  4. trailing-data probe: Save writes exactly one index per stream, so
//     any byte after the checksum is ErrTrailingData, not slack to
//     ignore;
//  5. range validation of the decoded paths (checked while decoding, on
//     the explicit entries — the dead ones are -1 by construction —
//     reported only after steps 3 and 4);
//  6. index construction from validated fields only. The coalescence
//     order is not part of it: it is sorted from the graph when the
//     graph is attached (AttachGraph).

// FormatVersion is the on-disk format revision this build reads and
// writes.
const FormatVersion = 2

var fileMagic = [8]byte{'S', 'R', 'W', 'K', 'I', 'D', 'X', 0}

// Sentinel errors returned by Save and Load (possibly wrapped with detail).
var (
	ErrBadMagic = errors.New("walkindex: not a walk-index file (bad magic)")
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

// maxElems caps n*r*k at load time so a corrupted header cannot trigger
// an absurd allocation before the checksum is ever seen.
const maxElems = int64(1) << 33

// fileHeader is the header's parameter block; it is the one place that
// knows its byte layout (preamble writes it, readHeader parses it).
type fileHeader struct {
	n, k, r int64
	c       float64
	seed    int64
}

// writableHeader describes an index of the given shape as a file, after
// running everything the load-side guards will check — so every file this
// package writes is guaranteed loadable. Violations wrap ErrFormatLimits.
// Only a full-range index can be written: the layout has nowhere to
// record a range.
func writableHeader(n, lo, hi, k, r int, c float64, seed int64) (fileHeader, error) {
	if lo != 0 || hi != n {
		return fileHeader{}, fmt.Errorf("walkindex: range [%d,%d) of [0,%d) cannot be written as an index file", lo, hi, n)
	}
	h := fileHeader{n: int64(n), k: int64(k), r: int64(r), c: c, seed: seed}
	if err := h.check(); err != nil {
		return fileHeader{}, fmt.Errorf("%w: %v", ErrFormatLimits, err)
	}
	return h, nil
}

// check is the plausibility guard of load step 1.
func (h fileHeader) check() error {
	if h.n < 0 || h.k < 1 || h.r < 1 {
		return fmt.Errorf("invalid dimensions (n=%d, k=%d, r=%d)", h.n, h.k, h.r)
	}
	if h.k > maxV2Horizon {
		return fmt.Errorf("walk horizon k = %d exceeds %d", h.k, maxV2Horizon)
	}
	if !(h.c > 0 && h.c < 1) {
		return fmt.Errorf("damping factor %v outside (0,1)", h.c)
	}
	elems := h.n * h.r * h.k
	if h.n > 0 && (elems/h.n/h.r != h.k || elems > maxElems) {
		return fmt.Errorf("rows*r*k = %d*%d*%d exceeds %d elements", h.n, h.r, h.k, maxElems)
	}
	return nil
}

// preamble marshals everything that precedes the block directory: the
// header, then the block size and block count.
func (h fileHeader) preamble(blockB, numBlocks int) []byte {
	pre := make([]byte, 0, 60)
	pre = append(pre, fileMagic[:]...)
	pre = binary.LittleEndian.AppendUint32(pre, FormatVersion)
	for _, f := range []uint64{uint64(h.n), uint64(h.k), uint64(h.r), math.Float64bits(h.c), uint64(h.seed)} {
		pre = binary.LittleEndian.AppendUint64(pre, f)
	}
	pre = binary.LittleEndian.AppendUint32(pre, uint32(blockB))
	return binary.LittleEndian.AppendUint32(pre, uint32(numBlocks))
}

// readHeader is load step 1: it parses the header and runs the
// plausibility guards.
func readHeader(br *bufio.Reader, crc hash.Hash32) (fileHeader, error) {
	const section = "index header"
	var buf [52]byte
	if err := readFull(br, crc, buf[:12], section); err != nil {
		return fileHeader{}, err
	}
	if [8]byte(buf[:8]) != fileMagic {
		return fileHeader{}, ErrBadMagic
	}
	if version := binary.LittleEndian.Uint32(buf[8:]); version != FormatVersion {
		return fileHeader{}, fmt.Errorf("%w: file has version %d, this build reads version %d", ErrVersion, version, FormatVersion)
	}
	if err := readFull(br, crc, buf[12:], section); err != nil {
		return fileHeader{}, err
	}
	field := func(i int) int64 { return int64(binary.LittleEndian.Uint64(buf[12+8*i:])) }
	h := fileHeader{n: field(0), k: field(1), r: field(2), c: math.Float64frombits(uint64(field(3))), seed: field(4)}
	if err := h.check(); err != nil {
		return fileHeader{}, fmt.Errorf("walkindex: implausible %s: %w", section, err)
	}
	return h, nil
}

// Save writes the index to w as an index file. It validates the
// index against the load-side guards first and returns an
// ErrFormatLimits-wrapped error instead of writing an unloadable file. The
// encoding is canonical: load → save reproduces the file byte for byte.
// The file is laid out in memory first; SaveAt writes it through an
// io.WriterAt without holding it.
func (ix *Index) Save(w io.Writer) error {
	var f memFile
	if err := ix.SaveAt(&f); err != nil {
		return err
	}
	_, err := w.Write(f)
	return err
}

// SaveAt writes the index through w as an index file, the bytes
// Save writes: the resident rows' blocks, encoded on all CPUs, framed by
// the one file writer.
func (ix *Index) SaveAt(w io.WriterAt) error {
	_, _, err := ix.saveBlocks(w, v2BlockVertices, 0)
	return err
}

// saveBlocks writes the index through w as an index file with
// blockB start vertices per posting block, the blocks encoded on workers
// goroutines (1 = serial, <1 = all CPUs), and returns the file's size and
// trailer checksum. SaveAt and the write-back's checkpoint share it.
func (ix *Index) saveBlocks(w io.WriterAt, blockB, workers int) (int64, uint32, error) {
	h, err := writableHeader(ix.n, ix.lo, ix.hi, ix.k, ix.r, ix.c, ix.seed)
	if err != nil {
		return 0, 0, err
	}
	fw := newFileWriter(w, h, blockB)
	if err := fw.addStore(ix.store, workers); err != nil {
		return 0, 0, err
	}
	return fw.finish()
}

// Load reads an index file written by Save or BuildStreaming
// and decodes it into a resident index: the blocks decode on all CPUs,
// each into its own chunk of live prefixes. It rejects files with a wrong
// magic, an unsupported format version, a truncated payload, a checksum
// mismatch, or trailing data after the trailer, in the documented load
// order above. The index never writes; LoadWriteBack (writeback.go)
// loads one that keeps its file in step with every Update. Either answers
// and repairs once AttachGraph has given it its graph.
func Load(r io.Reader) (*Index, error) {
	f, err := readFile(r)
	if err != nil {
		return nil, err
	}
	return f.newIndex(), nil
}

// validFile is what readFile vouches for: the header, the block size and
// the decoded walks.
type validFile struct {
	hdr    fileHeader
	blockB int64
	rows   *raggedStore // every row's live prefixes
	size   int64        // the file's bytes, trailer included
	crc    uint32       // the trailer checksum
}

// newIndex is load step 6: the index over the decoded rows — the store
// they were decoded into, not a copy — its coalescence order left to
// AttachGraph.
func (f *validFile) newIndex() *Index {
	h := f.hdr
	return newIndex(int(h.n), 0, int(h.n), int(h.k), int(h.r), h.c, h.seed, f.rows)
}

// decodeWindow is how many payload bytes readFile reads before it decodes
// them, and about how many the file writer encodes before it writes them
// (fileWriter.addStore): a window of whole posting blocks, at least one,
// coded in parallel while the rest of the file waits. It is a variable so
// tests can cut a file into windows of any size, in either direction.
var decodeWindow = 4 << 20

// readFile is the one reader: it runs load steps 1–5 over r. The blocks
// are read in windows of decodeWindow bytes and each window's blocks are
// decoded on all CPUs, every block into its worker's reused buffer and
// from there into its own exactly sized chunks of the ragged store, so
// reading a file grows with the bytes actually read and never holds the
// dense index. The errors are the ones a block-by-block reader reports:
// the first failing block in file order, with an implausible length, a
// truncation, an undecodable block and an out-of-range entry in the load
// order's precedence.
func readFile(r io.Reader) (*validFile, error) {
	// The CRC must cover exactly the bytes logically consumed (a tee under
	// bufio would also hash read-ahead, including the trailing checksum),
	// so readFull feeds each chunk to the hash by hand.
	crc := crc32.NewIEEE()
	br := bufio.NewReaderSize(r, 1<<16)
	const what = "index"

	hdr, err := readHeader(br, crc)
	if err != nil {
		return nil, err
	}
	rows, k, fps := hdr.n, int(hdr.k), int(hdr.r)
	blockB, dir, err := readV2Dir(br, crc, rows, what)
	if err != nil {
		return nil, err
	}

	// A chunk is the largest power of two of vertices that tiles the
	// file's blocks: a whole block for every file this package writes.
	s := newRaggedStore(fps, k, bits.TrailingZeros64(uint64(blockB)), 0)
	f := &validFile{hdr: hdr, blockB: blockB, rows: s}
	nb, bw := len(dir)-1, int(blockB)
	var window []byte
	var rangeErr error
	for b0 := 0; b0 < nb; {
		// Read whole blocks into the window. A block that cannot be read
		// ends it, and its error waits for the blocks before it to decode:
		// one of them may fail first.
		window = window[:0]
		b1, readErr := b0, error(nil)
		for ; b1 < nb && (b1 == b0 || len(window) < decodeWindow); b1++ {
			width, blen := int64(min(bw, int(rows)-b1*bw)), dir[b1+1]-dir[b1]
			if !v2BlockLenPlausible(blen, width, int64(k), int64(fps)) {
				readErr = fmt.Errorf("walkindex: implausible %s block length %d", what, blen)
				break
			}
			at := len(window)
			window = slices.Grow(window, int(blen))[:at+int(blen)]
			if readErr = readFull(br, crc, window[at:], what+" block"); readErr != nil {
				break
			}
		}
		vhi := min(b1*bw, int(rows))
		s.grow(vhi)
		tops, errs := make([]int32, b1-b0), make([]error, b1-b0)
		eachBlock(0, b1-b0, func() func(i int) {
			var dense []int32
			var lives []int
			return func(i int) {
				b := b0 + i
				vlo := b * bw
				width := min(bw, int(rows)-vlo)
				if len(lives) < width*fps {
					dense, lives = make([]int32, width*fps*k), make([]int, width*fps)
				}
				buf := window[dir[b]-dir[b0] : dir[b+1]-dir[b0]]
				if tops[i], errs[i] = decodeV2Block(buf, dense, lives, width, k, fps); errs[i] != nil {
					return
				}
				for c := vlo >> s.shift; c<<s.shift < vlo+width; c++ {
					at := (c<<s.shift - vlo) * fps
					s.fillChunk(c, dense[at*k:], lives[at:])
				}
			}
		})
		for i, err := range errs {
			if err != nil {
				return nil, fmt.Errorf("walkindex: %s block %d: %w", what, b0+i, err)
			}
			// Step 5 runs here, block by block, but an out-of-range entry
			// is held back until the checksum and trailing-data probe have
			// run.
			if rangeErr == nil && int64(tops[i]) >= hdr.n {
				rangeErr = fmt.Errorf("walkindex: %s block %d: path entry out of range: %d, n = %d", what, b0+i, tops[i], hdr.n)
			}
		}
		if readErr != nil {
			return nil, readErr
		}
		b0 = b1
	}
	if f.crc, err = checkTrailer(br, crc, what+" checksum"); err != nil {
		return nil, err
	}
	if rangeErr != nil {
		return nil, rangeErr
	}
	f.size = int64(len(hdr.preamble(int(blockB), len(dir)-1))) + 8*int64(len(dir)) + dir[len(dir)-1] + 4
	return f, nil
}

// checkTrailer verifies the stored CRC against everything read so far,
// then probes one byte past it: Save writes exactly one index per stream,
// so any trailing byte is ErrTrailingData, not slack to ignore. It returns
// the checksum.
func checkTrailer(br *bufio.Reader, crc hash.Hash32, section string) (uint32, error) {
	want := crc.Sum32()
	var sum [4]byte
	if err := readFull(br, nil, sum[:], section); err != nil {
		return 0, err
	}
	if got := binary.LittleEndian.Uint32(sum[:]); got != want {
		return 0, fmt.Errorf("%w: stored %08x, computed %08x", ErrChecksum, got, want)
	}
	if _, err := br.ReadByte(); err == nil {
		return 0, fmt.Errorf("%w (byte after checksum)", ErrTrailingData)
	} else if err != io.EOF {
		return 0, fmt.Errorf("walkindex: probing for trailing data: %w", err)
	}
	return want, nil
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
