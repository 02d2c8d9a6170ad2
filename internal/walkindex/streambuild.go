package walkindex

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"

	"oipsr/graph"
	"oipsr/internal/par"
)

// Out-of-core streaming builds.
//
// Build holds every walk of its range in memory (the ragged live
// prefixes) before anything reaches disk, which caps the graphs it can
// index at available memory — exactly the limit the compressed on-disk
// format was built to escape. BuildStreaming removes it: walks are
// generated in vertex-range slices sized to a caller-supplied byte budget
// and encoded straight to format-v2 posting blocks, so peak memory is
// bounded by the budget, never by n. The output is byte-identical to Save on a materialized Build of
// the same range — same header, same directory, same block bytes, same CRC
// trailer — because both sides share the walk hash (edgeChoice is a pure
// function of (seed, fingerprint, step, vertex), so any vertex range is
// computable independently) and the posting codec (appendWalk needs only
// the immediately preceding vertex's row, which the slice loop carries
// across slice boundaries and resets at block boundaries).
//
// The format places the block directory BEFORE the payload, but directory
// offsets are cumulative block lengths known only after encoding. The
// builder therefore writes through an io.WriterAt: header and meta land at
// offset 0 up front, posting blocks stream sequentially into the payload
// region, and each block's directory entry is patched into the directory
// region the moment the block's length is known. Directory entries are
// produced in file order, so the CRC over the head (header + meta +
// directory) streams alongside; the trailer is then CRC(head)‖CRC(payload)
// merged with crc32Combine, and the one-pass file carries the exact
// checksum a buffered writeV2 would have produced.

// StreamStats reports what a streaming build wrote, with the resolved
// build parameters (defaults filled, K derived from Eps) so callers can
// record what was actually built — shard.BuildAll builds its
// manifest entries from them.
type StreamStats struct {
	// Rows is the number of start vertices written, hi-lo.
	Rows  int
	K     int
	Walks int
	C     float64
	Seed  int64

	// Bytes is the total file size, CRC trailer included.
	Bytes int64
	// CRC32 is the trailer checksum — the CRC-32 (IEEE) of every byte
	// before the trailer, which is also the value a shard manifest records
	// for the file.
	CRC32 uint32

	// SliceVertices is the generation slice width the budget resolved to;
	// Slices and Blocks count what was generated and encoded.
	SliceVertices int
	Slices        int
	Blocks        int
}

// BuildStreaming builds the walk index of vertex range [lo, hi) of g and
// writes it to w as a file of the given kind, generating walks in vertex
// slices of at most budgetBytes of decoded path data instead of
// materializing the whole index. The bytes written are identical to
// Save(w, kind) on Build(g, opt, lo, hi) — for any budget and any worker
// count — so files from the two paths are interchangeable, byte for byte.
// Small fixed overheads (one encoded posting block, one carried row, the
// write buffer) ride on top of the budget; a budget below one row's 4*R*K
// bytes degrades to one-vertex slices rather than failing.
func BuildStreaming(g *graph.Graph, opt Options, lo, hi int, kind FileKind, w io.WriterAt, budget int64) (*StreamStats, error) {
	if err := opt.resolve(); err != nil {
		return nil, err
	}
	what := kind.String()
	if budget < 1 {
		return nil, fmt.Errorf("walkindex: streaming %s build budget %d bytes, want >= 1", what, budget)
	}
	hdr, err := writableHeader(kind, g.NumVertices(), lo, hi, opt.K, opt.Walks, opt.C, opt.Seed)
	if err != nil {
		return nil, err
	}
	rows := hi - lo
	k, r := opt.K, opt.Walks
	stride := r * k
	nb := int(v2NumBlocks(int64(rows), v2BlockVertices))

	// pre is exactly what writeV2 hashes and writes first.
	pre := hdr.preamble(v2BlockVertices, nb)
	dirOff := int64(len(pre))
	payloadOff := dirOff + 8*int64(nb+1)

	// The head CRC streams over pre and the directory entries in file
	// order — block b's end offset is known the moment block b finishes,
	// and entries are patched into the directory region as they appear, so
	// neither the directory nor the payload is ever held in memory.
	headCRC := crc32.NewIEEE()
	headCRC.Write(pre)
	if _, err := w.WriteAt(pre, 0); err != nil {
		return nil, fmt.Errorf("walkindex: writing %s header: %w", what, err)
	}
	writeDirEntry := func(i int, off int64) error {
		var e [8]byte
		binary.LittleEndian.PutUint64(e[:], uint64(off))
		headCRC.Write(e[:])
		if _, err := w.WriteAt(e[:], dirOff+8*int64(i)); err != nil {
			return fmt.Errorf("walkindex: writing %s directory: %w", what, err)
		}
		return nil
	}
	if err := writeDirEntry(0, 0); err != nil {
		return nil, err
	}

	payloadCRC := crc32.NewIEEE()
	pw := bufio.NewWriterSize(io.MultiWriter(io.NewOffsetWriter(w, payloadOff), payloadCRC), 1<<16)

	sliceW := streamSliceVertices(budget, stride, rows)
	sliceBuf := make([]int32, sliceW*stride)
	prevRow := make([]int32, stride) // last row of the previous slice
	var enc []byte                   // current posting block's encoding
	var curW, prevW [][]int32        // live prefixes of the row and of its predecessor
	payloadLen := int64(0)
	blocks, slices := 0, 0

	hseed := splitmix64(uint64(opt.Seed))
	for slo := 0; slo < rows; slo += sliceW {
		shi := min(slo+sliceW, rows)
		width := shi - slo
		slices++

		// Generate the slice exactly as Build generates its rows: the walk
		// hash makes every vertex independent, so any worker count (and any
		// slicing) produces the same paths bit for bit.
		workers := par.ResolveMax(opt.Workers, width)
		par.Do(workers, func(wk int) {
			wlo, whi := par.Range(width, workers, wk)
			for v := wlo; v < whi; v++ {
				walkBlock(g, hseed, lo+slo+v, k, sliceBuf[v*stride:(v+1)*stride])
			}
		})

		for v := slo; v < shi; v++ {
			row := sliceBuf[(v-slo)*stride : (v-slo+1)*stride]
			// The codec's predecessor row: none at a block boundary, the
			// carried copy at a slice boundary, the in-slice neighbor
			// otherwise — the same predecessor appendBlock sees.
			var prev []int32
			var p [][]int32
			switch {
			case v%v2BlockVertices == 0:
				prev = nil
			case v == slo:
				prev = prevRow
			default:
				prev = sliceBuf[(v-slo-1)*stride : (v-slo)*stride]
			}
			if prev != nil {
				prevW = liveWalks(prevW[:0], prev, k)
				p = prevW
			}
			curW = liveWalks(curW[:0], row, k)
			enc = appendVertexWalks(enc, curW, p)
			if (v+1)%v2BlockVertices == 0 || v+1 == rows {
				if err := checkBlockLen(len(enc)); err != nil {
					return nil, err
				}
				if _, err := pw.Write(enc); err != nil {
					return nil, fmt.Errorf("walkindex: writing %s blocks: %w", what, err)
				}
				payloadLen += int64(len(enc))
				blocks++
				if err := writeDirEntry(blocks, payloadLen); err != nil {
					return nil, err
				}
				enc = enc[:0]
			}
		}
		copy(prevRow, sliceBuf[(width-1)*stride:width*stride])
	}
	if err := pw.Flush(); err != nil {
		return nil, fmt.Errorf("walkindex: writing %s blocks: %w", what, err)
	}

	// The trailer covers head ‖ payload, which were hashed separately;
	// crc32Combine merges the two sums into the CRC of the concatenation.
	fileCRC := crc32Combine(headCRC.Sum32(), payloadCRC.Sum32(), payloadLen)
	var sum [4]byte
	binary.LittleEndian.PutUint32(sum[:], fileCRC)
	if _, err := w.WriteAt(sum[:], payloadOff+payloadLen); err != nil {
		return nil, fmt.Errorf("walkindex: writing %s checksum: %w", what, err)
	}

	return &StreamStats{
		Rows: rows, K: k, Walks: r, C: opt.C, Seed: opt.Seed,
		Bytes: payloadOff + payloadLen + 4, CRC32: fileCRC,
		SliceVertices: sliceW, Slices: slices, Blocks: blocks,
	}, nil
}

// liveWalks appends the live prefix of each k-entry walk of row to dst.
func liveWalks(dst [][]int32, row []int32, k int) [][]int32 {
	for w := 0; w+k <= len(row); w += k {
		dst = append(dst, livePrefix(row[w:w+k]))
	}
	return dst
}

// streamSliceVertices resolves the byte budget to a generation slice width
// in vertices: as many rows of 4*stride bytes as fit, at least one, at
// most rows — for an empty range too, so an unbounded budget never sizes the
// slice buffer.
func streamSliceVertices(budget int64, stride, rows int) int {
	s := budget / (4 * int64(stride))
	if s < 1 {
		s = 1
	}
	if most := int64(max(rows, 1)); s > most {
		s = most
	}
	return int(s)
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
