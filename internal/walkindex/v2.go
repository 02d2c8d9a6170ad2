package walkindex

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"hash"
	"hash/crc32"
	"io"
	"math"
)

// Posting codec of the on-disk format (revision 2, hence the v2 names).
//
// The payload stores the walk blocks of v2BlockVertices consecutive start
// vertices per posting block, each block independently decodable, with a
// byte-offset directory. Within a block, a vertex's r walks are encoded
// one after another, each walk as:
//
//	uvarint hdr = m<<1 | shared
//	uvarint first          — entry 0            (only when m > 0)
//	varint  delta × (m-1)  — entry[i]-entry[i-1] (zigzag)
//
// followed by an implicit tail for entries [m, k):
//
//	shared == 0: the tail is dead (-1). m is the walk's live length —
//	  a walk stays dead after its first death, so the dead suffix never
//	  needs storing.
//	shared == 1: the tail is copied from the SAME fingerprint's walk of
//	  the PREVIOUS vertex in the block. Coupled walkers coalesce
//	  permanently once co-located (the edge choice depends only on
//	  (fingerprint, step, vertex)), so neighboring vertices' walks share
//	  identical suffixes — on hub-heavy graphs most of the index is these
//	  shared tails, and one uvarint replaces them. The first vertex of a
//	  block has no predecessor and always encodes shared == 0.
//
// The encoder picks whichever form stores fewer explicit entries, so the
// encoding is canonical given the block layout: decode(encode(x)) == x
// exactly, and load → save reproduces a file byte for byte.

// v2BlockVertices is the number of start vertices per posting block: large
// enough that the directory stays tiny and a block's first vertex — the
// one that cannot share tails — is rare. A block is also the resident
// store's chunk (walkstore.go) and the unit the encoder spreads over its
// workers (fileWriter.addStore).
const v2BlockVertices = 1 << v2BlockShift

// v2BlockShift is log2 of v2BlockVertices.
const v2BlockShift = 6

// maxV2BlockVertices bounds the header-declared block size at load time.
const maxV2BlockVertices = 1 << 16

// maxV2Horizon caps k: a shared walk decodes k entries from a single byte,
// so k bounds the decoder's allocation amplification per payload byte (and
// newIndex allocates k floats even when a forged header claims zero rows).
// Real horizons are the iteration counts of the Lizorkin bound — double
// digits.
const maxV2Horizon = 1 << 12

// maxV2BlockBytes is the absolute cap on one encoded posting block, over
// and above the per-block structural bound width*r*(5k+2); the header
// guards keep writable indexes comfortably below it.
const maxV2BlockBytes = 1 << 27

// v2NumBlocks returns ceil(rows / blockB), the posting-block count.
func v2NumBlocks(rows, blockB int64) int64 {
	if rows <= 0 {
		return 0
	}
	return (rows + blockB - 1) / blockB
}

// appendWalk appends one walk's v2 encoding to dst. path is the walk's
// live prefix and prev the live prefix of the same fingerprint's walk of
// the previous vertex in the block (nil for the block's first vertex).
// Both tails past the prefixes are dead, so a shared tail is possible only
// between walks of equal live length: any other pair differs at the
// longer one's last live step.
func appendWalk(dst []byte, path, prev []int32) []byte {
	m, shared := len(path), false
	if len(prev) == m {
		s := m
		for s > 0 && path[s-1] == prev[s-1] {
			s--
		}
		// Strictly fewer explicit entries than the dead-tail form.
		if s < m {
			m, shared = s, true
		}
	}
	hdr := uint64(m) << 1
	if shared {
		hdr |= 1
	}
	dst = binary.AppendUvarint(dst, hdr)
	if m > 0 {
		dst = binary.AppendUvarint(dst, uint64(uint32(path[0])))
		for i := 1; i < m; i++ {
			dst = binary.AppendVarint(dst, int64(path[i])-int64(path[i-1]))
		}
	}
	return dst
}

// decodeWalk decodes one walk from buf into dst (len k, -1 after its
// death), resolving a shared tail against prev, whose live length is
// prevLive. It returns the bytes consumed, the walk's live length — its m
// explicit entries, or max(m, prevLive) with a shared tail — and the
// largest explicit entry, -1 when there is none. Checks are structural
// (well-formed varints, m <= k, entries fit int32, so an explicit entry is
// never negative); the semantic [0, n) range check of the largest entry is
// reported only after the checksum (see the load order in serialize.go).
func decodeWalk(buf []byte, dst, prev []int32, prevLive int) (used, live int, top int32, err error) {
	k := len(dst)
	hdr, w := binary.Uvarint(buf)
	if w <= 0 {
		return 0, 0, 0, fmt.Errorf("walkindex: malformed walk header varint")
	}
	pos := w
	shared := hdr&1 == 1
	m := int(hdr >> 1)
	if hdr>>1 > uint64(k) {
		return 0, 0, 0, fmt.Errorf("walkindex: walk declares %d explicit entries, horizon is %d", hdr>>1, k)
	}
	if shared && prev == nil {
		return 0, 0, 0, fmt.Errorf("walkindex: first walk of a block cannot share a tail")
	}
	top = -1
	if m > 0 {
		first, w := binary.Uvarint(buf[pos:])
		if w <= 0 || first > math.MaxInt32 {
			return 0, 0, 0, fmt.Errorf("walkindex: malformed walk first-entry varint")
		}
		pos += w
		cur := int64(first)
		dst[0] = int32(cur)
		top = int32(cur)
		for i := 1; i < m; i++ {
			d, w := binary.Varint(buf[pos:])
			if w <= 0 {
				return 0, 0, 0, fmt.Errorf("walkindex: malformed walk delta varint")
			}
			pos += w
			cur += d
			if cur < 0 || cur > math.MaxInt32 {
				return 0, 0, 0, fmt.Errorf("walkindex: walk delta accumulates out of int32 range")
			}
			dst[i] = int32(cur)
			top = max(top, int32(cur))
		}
	}
	if shared {
		copy(dst[m:], prev[m:])
		return pos, max(m, prevLive), top, nil
	}
	for i := m; i < k; i++ {
		dst[i] = -1
	}
	return pos, m, top, nil
}

// appendBlock appends to dst the encoding of posting block b of a file
// with blockB start vertices per block: the stored vertices [b·blockB,
// (b+1)·blockB) ∩ [0, Rows), all r walks each, every walk against the same
// fingerprint's walk of the vertex before it in the block. It is the one
// block encoder: every file is framed from its output (fileWriter).
func (s *raggedStore) appendBlock(dst []byte, b, blockB int) []byte {
	var cur, prev [][]int32
	for v := b * blockB; v < min((b+1)*blockB, s.Rows()); v++ {
		cur = s.walks(v, cur[:0])
		for fp, w := range cur {
			var p []int32
			if prev != nil {
				p = prev[fp]
			}
			dst = appendWalk(dst, w, p)
		}
		cur, prev = prev, cur
	}
	return dst
}

// decodeV2Block decodes one posting block into dst (its first width*r*k
// entries, vertex-major, -1 after each death) and lives (its first width*r
// entries, each walk's live length), and returns the block's largest
// explicit entry, -1 when there is none: a shared tail repeats entries of
// the previous vertex, so that one number range-checks the block. The
// whole buffer must be consumed — trailing bytes inside a block are a
// forgery, not padding.
func decodeV2Block(buf []byte, dst []int32, lives []int, width, k, r int) (int32, error) {
	pos, top := 0, int32(-1)
	for v := 0; v < width; v++ {
		for fp := 0; fp < r; fp++ {
			w := v*r + fp
			var prev []int32
			prevLive := 0
			if v > 0 {
				prev, prevLive = dst[(w-r)*k:(w-r+1)*k], lives[w-r]
			}
			used, live, wtop, err := decodeWalk(buf[pos:], dst[w*k:(w+1)*k], prev, prevLive)
			if err != nil {
				return top, err
			}
			pos += used
			lives[w], top = live, max(top, wtop)
		}
	}
	if pos != len(buf) {
		return top, fmt.Errorf("walkindex: %d trailing bytes inside posting block", len(buf)-pos)
	}
	return top, nil
}

// fileWriter is the one writer of the file layout: Save, BuildStreaming
// and the write-back's checkpoint hand it the resident rows, one store at
// a time (addStore), and it encodes their posting blocks and frames them.
// The payload goes out in order through w as blocks are added; the
// directory stays in memory, 8 B a block, until finish writes the header
// and the directory once at offset 0 and the trailer after the payload.
// The trailer is the CRC of head ‖ payload, joined from the two sums by
// crc32Combine, so nothing written is read back.
type fileWriter struct {
	w      io.WriterAt
	blockB int           // start vertices per posting block
	added  int           // blocks added so far
	head   []byte        // the preamble, then the directory so far
	crc    hash.Hash32   // of the payload so far
	pw     *bufio.Writer // the payload, at its offset in w
	size   int64         // payload bytes added
}

// newFileWriter starts a file with header h and blockB start vertices per
// posting block; its blocks must then be added in order, each once.
func newFileWriter(w io.WriterAt, h fileHeader, blockB int) *fileWriter {
	nb := int(v2NumBlocks(h.n, int64(blockB)))
	head := binary.LittleEndian.AppendUint64(h.preamble(blockB, nb), 0)
	crc := crc32.NewIEEE()
	payload := io.NewOffsetWriter(w, int64(len(head))+8*int64(nb))
	return &fileWriter{w: w, blockB: blockB, head: head, crc: crc,
		pw: bufio.NewWriterSize(io.MultiWriter(payload, crc), 1<<16)}
}

// addStore adds the posting blocks of s — the file's next s.Rows() stored
// vertices, from a block boundary on — encoded by appendBlock on workers
// goroutines (1 = serial, <1 = all CPUs). It encodes a window of whole
// blocks at a time, at least one, of about decodeWindow bytes at the mean
// length of the blocks added so far (the first window is one block), and
// adds the window's blocks in order, so the encoded file is never held
// whole and the bytes are the same for every worker count and window.
func (fw *fileWriter) addStore(s *raggedStore, workers int) error {
	nb := int(v2NumBlocks(int64(s.Rows()), int64(fw.blockB)))
	var window [][]byte // the window's encoded blocks, reused
	for b0 := 0; b0 < nb; {
		n := 1
		if fw.added > 0 {
			n = max(1, int(int64(decodeWindow)*int64(fw.added)/fw.size))
		}
		b1 := min(nb, b0+n)
		for len(window) < b1-b0 {
			window = append(window, nil)
		}
		eachBlock(workers, b1-b0, func() func(i int) {
			return func(i int) { window[i] = s.appendBlock(window[i][:0], b0+i, fw.blockB) }
		})
		for _, enc := range window[:b1-b0] {
			if err := fw.add(enc); err != nil {
				return err
			}
		}
		b0 = b1
	}
	return nil
}

// add writes the next posting block. A block longer than the loader
// accepts is refused with ErrFormatLimits.
func (fw *fileWriter) add(block []byte) error {
	if len(block) > maxV2BlockBytes {
		return fmt.Errorf("%w: encoded posting block of %d bytes exceeds %d", ErrFormatLimits, len(block), maxV2BlockBytes)
	}
	if _, err := fw.pw.Write(block); err != nil {
		return fmt.Errorf("walkindex: writing index blocks: %w", err)
	}
	fw.size += int64(len(block))
	fw.added++
	fw.head = binary.LittleEndian.AppendUint64(fw.head, uint64(fw.size))
	return nil
}

// finish writes the header, the directory and the trailer, and returns
// the file's size and its trailer checksum.
func (fw *fileWriter) finish() (size int64, sum uint32, err error) {
	if err := fw.pw.Flush(); err != nil {
		return 0, 0, fmt.Errorf("walkindex: writing index blocks: %w", err)
	}
	if _, err := fw.w.WriteAt(fw.head, 0); err != nil {
		return 0, 0, fmt.Errorf("walkindex: writing index header: %w", err)
	}
	size = int64(len(fw.head)) + fw.size
	sum = crc32Combine(crc32.ChecksumIEEE(fw.head), fw.crc.Sum32(), fw.size)
	if _, err := fw.w.WriteAt(binary.LittleEndian.AppendUint32(nil, sum), size); err != nil {
		return 0, 0, fmt.Errorf("walkindex: writing index checksum: %w", err)
	}
	return size + 4, sum, nil
}

// crc32Combine returns the CRC-32 (IEEE) of the concatenation a‖b given
// crcA = CRC(a), crcB = CRC(b), and len(b) — without re-reading any bytes.
// CRC-32 is linear over GF(2): appending lenB zero bytes to a multiplies
// its CRC by x^(8*lenB) in the quotient ring, an operator applied here as
// a 32×32 bit matrix raised to the 8*lenB-th power by repeated squaring
// (the zlib crc32_combine construction), and XORing crcB then accounts for
// b's actual bytes.
func crc32Combine(crcA, crcB uint32, lenB int64) uint32 {
	if lenB <= 0 {
		return crcA
	}
	var even, odd [32]uint32
	// odd = the one-zero-BIT operator: the CRC register shifts right one,
	// feeding back the reflected polynomial.
	odd[0] = crc32.IEEE
	for i := 1; i < 32; i++ {
		odd[i] = 1 << (i - 1)
	}
	gf2MatrixSquare(&even, &odd) // even = 2 zero bits
	gf2MatrixSquare(&odd, &even) // odd  = 4 zero bits
	crc := crcA
	for {
		gf2MatrixSquare(&even, &odd) // 8, 32, ... zero bits
		if lenB&1 != 0 {
			crc = gf2MatrixTimes(&even, crc)
		}
		lenB >>= 1
		if lenB == 0 {
			break
		}
		gf2MatrixSquare(&odd, &even) // 16, 64, ... zero bits
		if lenB&1 != 0 {
			crc = gf2MatrixTimes(&odd, crc)
		}
		lenB >>= 1
		if lenB == 0 {
			break
		}
	}
	return crc ^ crcB
}

// gf2MatrixTimes multiplies the GF(2) bit matrix mat by the bit vector vec.
func gf2MatrixTimes(mat *[32]uint32, vec uint32) uint32 {
	var sum uint32
	for i := 0; vec != 0; i, vec = i+1, vec>>1 {
		if vec&1 != 0 {
			sum ^= mat[i]
		}
	}
	return sum
}

// gf2MatrixSquare sets dst = src², composing the zero-bit operator with
// itself.
func gf2MatrixSquare(dst, src *[32]uint32) {
	for i := range src {
		dst[i] = gf2MatrixTimes(src, src[i])
	}
}

// memFile is an in-memory io.WriterAt: Save lays its file out there and
// then writes it to an io.Writer.
type memFile []byte

func (m *memFile) WriteAt(p []byte, off int64) (int, error) {
	if end := off + int64(len(p)); end > int64(len(*m)) {
		*m = append(*m, make([]byte, end-int64(len(*m)))...)
	}
	return copy((*m)[off:], p), nil
}

// v2BlockLenPlausible reports whether blen can be the encoded byte length
// of a posting block of width vertices. Every walk costs at least its one
// header byte — so a header forging r or k over a short stream is refused
// before the block's width*r*k decoded entries are allocated, which caps
// the reader's allocation at 4k bytes per byte actually read (each
// decoding worker's buffer is sized for a block it has read), the 8-byte
// live length it keeps per walk at 8 and the 32 bytes a store chunk of at
// least one vertex takes at 32/r — and at most 2 header bytes plus 5 bytes
// per explicit entry.
func v2BlockLenPlausible(blen, width, k, r int64) bool {
	return blen >= width*r && blen <= min(maxV2BlockBytes, width*r*(5*k+2))
}

// readV2Dir reads what follows the header — block size, block count, and
// the offset directory — validating structure as it goes. The directory is
// read incrementally (8 bytes at a time), so a forged block count on a
// short stream fails with a truncation error, not a huge allocation.
func readV2Dir(br *bufio.Reader, crc hash.Hash32, rows int64, section string) (blockB int64, dir []int64, err error) {
	var meta [8]byte
	if err := readFull(br, crc, meta[:], section+" v2 block sizes"); err != nil {
		return 0, nil, err
	}
	blockB = int64(binary.LittleEndian.Uint32(meta[0:]))
	nb := int64(binary.LittleEndian.Uint32(meta[4:]))
	if blockB < 1 || blockB > maxV2BlockVertices {
		return 0, nil, fmt.Errorf("walkindex: implausible v2 block size %d", blockB)
	}
	if nb != v2NumBlocks(rows, blockB) {
		return 0, nil, fmt.Errorf("walkindex: v2 block count %d does not tile %d vertices at block size %d", nb, rows, blockB)
	}

	dir = make([]int64, 0, min(nb+1, 1<<12))
	var obuf [8]byte
	prevOff := int64(0)
	for i := int64(0); i <= nb; i++ {
		if err := readFull(br, crc, obuf[:], section+" v2 directory"); err != nil {
			return 0, nil, err
		}
		o := binary.LittleEndian.Uint64(obuf[:])
		if o > math.MaxInt64 {
			return 0, nil, fmt.Errorf("walkindex: implausible v2 directory offset %d", o)
		}
		off := int64(o)
		if i == 0 && off != 0 {
			return 0, nil, fmt.Errorf("walkindex: v2 directory does not start at offset 0")
		}
		if off < prevOff {
			return 0, nil, fmt.Errorf("walkindex: v2 directory offsets not monotone")
		}
		dir = append(dir, off)
		prevOff = off
	}
	return blockB, dir, nil
}
