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
// one that cannot share tails — is rare. A write-back never re-encodes a
// whole block for one repaired vertex, so the size does not set its cost:
// it splices the repaired vertices and their successors between clean
// runs copied from the old file (writeback.go).
const v2BlockVertices = 64

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

// decodeWalk decodes one walk from buf into dst (len k), resolving a
// shared tail against prev, and returns the bytes consumed. Checks are
// structural (well-formed varints, m <= k, entries fit int32); the
// semantic [0, n) range check is reported only after the checksum (see the
// load order in serialize.go).
func decodeWalk(buf []byte, dst, prev []int32) (int, error) {
	k := len(dst)
	hdr, w := binary.Uvarint(buf)
	if w <= 0 {
		return 0, fmt.Errorf("walkindex: malformed walk header varint")
	}
	pos := w
	shared := hdr&1 == 1
	m := int(hdr >> 1)
	if hdr>>1 > uint64(k) {
		return 0, fmt.Errorf("walkindex: walk declares %d explicit entries, horizon is %d", hdr>>1, k)
	}
	if shared && prev == nil {
		return 0, fmt.Errorf("walkindex: first walk of a block cannot share a tail")
	}
	if m > 0 {
		first, w := binary.Uvarint(buf[pos:])
		if w <= 0 || first > math.MaxInt32 {
			return 0, fmt.Errorf("walkindex: malformed walk first-entry varint")
		}
		pos += w
		cur := int64(first)
		dst[0] = int32(cur)
		for i := 1; i < m; i++ {
			d, w := binary.Varint(buf[pos:])
			if w <= 0 {
				return 0, fmt.Errorf("walkindex: malformed walk delta varint")
			}
			pos += w
			cur += d
			if cur < 0 || cur > math.MaxInt32 {
				return 0, fmt.Errorf("walkindex: walk delta accumulates out of int32 range")
			}
			dst[i] = int32(cur)
		}
	}
	if shared {
		copy(dst[m:], prev[m:])
	} else {
		for i := m; i < k; i++ {
			dst[i] = -1
		}
	}
	return pos, nil
}

// appendVertexWalks appends the encoding of one stored vertex to dst: its
// r walks, each against the same fingerprint's walk in prev, the previous
// vertex's walks (nil for a block's first vertex). A vertex's bytes
// therefore depend on its own walks and its predecessor's only, which is
// what lets a write-back re-encode the vertices an edit batch changed and
// copy the rest (writeback.go).
func appendVertexWalks(dst []byte, cur, prev [][]int32) []byte {
	for fp, w := range cur {
		var p []int32
		if prev != nil {
			p = prev[fp]
		}
		dst = appendWalk(dst, w, p)
	}
	return dst
}

// appendBlock appends to dst the encoding of posting block b of a file
// with blockB start vertices per block: the stored vertices [b·blockB,
// (b+1)·blockB) ∩ [0, Rows), all r walks each.
func (s *raggedStore) appendBlock(dst []byte, b, blockB int) ([]byte, error) {
	vlo, start := b*blockB, len(dst)
	var cur, prev [][]int32
	for v := vlo; v < min(vlo+blockB, s.Rows()); v++ {
		cur = s.walks(v, cur[:0])
		dst = appendVertexWalks(dst, cur, prev)
		cur, prev = prev, cur
	}
	return dst, checkBlockLen(len(dst) - start)
}

// checkBlockLen refuses an encoded posting block the loader would refuse.
func checkBlockLen(n int) error {
	if n > maxV2BlockBytes {
		return fmt.Errorf("%w: encoded posting block of %d bytes exceeds %d", ErrFormatLimits, n, maxV2BlockBytes)
	}
	return nil
}

// decodeV2Block decodes one posting block into dst (width*r*k entries,
// vertex-major) and appends each vertex's encoded length to vlen. The
// whole buffer must be consumed — trailing bytes inside a block are a
// forgery, not padding.
func decodeV2Block(buf []byte, dst []int32, width, k, r int, vlen []uint32) ([]uint32, error) {
	pos := 0
	for v := 0; v < width; v++ {
		vstart := pos
		for fp := 0; fp < r; fp++ {
			cur := dst[(v*r+fp)*k : (v*r+fp+1)*k]
			var prev []int32
			if v > 0 {
				prev = dst[((v-1)*r+fp)*k : ((v-1)*r+fp+1)*k]
			}
			w, err := decodeWalk(buf[pos:], cur, prev)
			if err != nil {
				return vlen, err
			}
			pos += w
		}
		vlen = append(vlen, uint32(pos-vstart))
	}
	if pos != len(buf) {
		return vlen, fmt.Errorf("walkindex: %d trailing bytes inside posting block", len(buf)-pos)
	}
	return vlen, nil
}

// writeV2 writes a v2 file: pre (the format header including the block
// size and count), the block directory derived from the block lengths, the
// blocks — emit(b, w) writes block b's lens[b] bytes — and the CRC trailer
// over everything before it.
func writeV2(w io.Writer, pre []byte, lens []int64, emit func(b int, w io.Writer) error, what string) error {
	crc := crc32.NewIEEE()
	bw := bufio.NewWriterSize(io.MultiWriter(w, crc), 1<<16)
	if _, err := bw.Write(pre); err != nil {
		return fmt.Errorf("walkindex: writing %s header: %w", what, err)
	}
	var tmp [8]byte
	off := uint64(0)
	binary.LittleEndian.PutUint64(tmp[:], 0)
	if _, err := bw.Write(tmp[:]); err != nil {
		return fmt.Errorf("walkindex: writing %s directory: %w", what, err)
	}
	for _, n := range lens {
		off += uint64(n)
		binary.LittleEndian.PutUint64(tmp[:], off)
		if _, err := bw.Write(tmp[:]); err != nil {
			return fmt.Errorf("walkindex: writing %s directory: %w", what, err)
		}
	}
	for b := range lens {
		if err := emit(b, bw); err != nil {
			return fmt.Errorf("walkindex: writing %s blocks: %w", what, err)
		}
	}
	if err := bw.Flush(); err != nil {
		return fmt.Errorf("walkindex: writing %s blocks: %w", what, err)
	}
	var sum [4]byte
	binary.LittleEndian.PutUint32(sum[:], crc.Sum32())
	if _, err := w.Write(sum[:]); err != nil {
		return fmt.Errorf("walkindex: writing %s checksum: %w", what, err)
	}
	return nil
}

// v2BlockLenPlausible reports whether blen can be the encoded byte length
// of a posting block of width vertices. Every walk costs at least its one
// header byte — so a header forging r or k over a short stream is refused
// before the block's width*r*k decoded entries are allocated, which caps
// the reader's allocation at 4k bytes per byte actually read, and the
// 4-byte encoded length it records per vertex at 4/r — and at most 2
// header bytes plus 5 bytes per explicit entry.
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
