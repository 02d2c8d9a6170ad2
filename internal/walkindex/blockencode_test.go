package walkindex

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"slices"
	"testing"

	"oipsr/graph/gen"
)

// denseRow writes store-local vertex v's walks into dst as an r*k block,
// -1 from each walk's death onward, and returns it (dst is reallocated
// when short): the layout the padded encoder below and the tests that
// compare whole rows read.
func (ix *Index) denseRow(v int, dst []int32) []int32 {
	if cap(dst) < ix.r*ix.k {
		dst = make([]int32, ix.r*ix.k)
	}
	dst = dst[:ix.r*ix.k]
	row := ix.store.row(v)
	for fp := 0; fp < ix.r; fp++ {
		w := dst[fp*ix.k : (fp+1)*ix.k]
		for t := copy(w, row.walk(fp)); t < ix.k; t++ {
			w[t] = -1
		}
	}
	return dst
}

// paddedAppendWalk is the encoder the format was defined by, kept as the
// model of appendWalk: it reads k entries with a -1 tail, finds the live
// length by scanning for the death, and shares a tail with prev (the same
// fingerprint's padded walk of the previous vertex, nil for a block's
// first vertex) when that stores strictly fewer explicit entries.
func paddedAppendWalk(dst []byte, path, prev []int32) ([]byte, error) {
	k := len(path)
	live := 0
	for live < k && path[live] >= 0 {
		live++
	}
	for t := live; t < k; t++ {
		if path[t] != -1 {
			return nil, fmt.Errorf("non-canonical walk (entry %d after death is %d)", t, path[t])
		}
	}
	m, shared := live, false
	if prev != nil {
		s := k
		for s > 0 && path[s-1] == prev[s-1] {
			s--
		}
		if s < live {
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
	return dst, nil
}

// paddedAppendBlock encodes vertices [vlo, vlo+width) of rows, r*k entries
// per vertex with -1 tails, through paddedAppendWalk.
func paddedAppendBlock(t testing.TB, rows []int32, vlo, width, k, r int) []byte {
	t.Helper()
	var dst []byte
	for v := vlo; v < vlo+width; v++ {
		for fp := 0; fp < r; fp++ {
			var prev []int32
			if v > vlo {
				prev = rows[((v-1)*r+fp)*k : ((v-1)*r+fp+1)*k]
			}
			var err error
			if dst, err = paddedAppendWalk(dst, rows[(v*r+fp)*k:(v*r+fp+1)*k], prev); err != nil {
				t.Fatal(err)
			}
		}
	}
	return dst
}

// requireBlocksMatchModel encodes every posting block of rows (r*k entries
// per vertex, -1 tails) at block size blockB from the ragged store holding
// them and from the padded model, and fails unless the bytes are equal and
// decode back to rows.
func requireBlocksMatchModel(t testing.TB, rows []int32, r, k, blockB int, what string) {
	t.Helper()
	n := len(rows) / (r * k)
	s := buildRagged(newDenseStore(rows, r, k))
	for b := 0; b < int(v2NumBlocks(int64(n), int64(blockB))); b++ {
		vlo := b * blockB
		width := min(blockB, n-vlo)
		got, err := s.appendBlock(nil, b, blockB)
		if err != nil {
			t.Fatal(err)
		}
		if want := paddedAppendBlock(t, rows, vlo, width, k, r); !bytes.Equal(got, want) {
			t.Fatalf("%s: block %d encodes to %x, the padded model to %x", what, b, got, want)
		}
		dec := make([]int32, width*r*k)
		vlen, err := decodeV2Block(got, dec, width, k, r, nil)
		if err != nil {
			t.Fatalf("%s: block %d does not decode: %v", what, b, err)
		}
		if !slices.Equal(dec, rows[vlo*r*k:(vlo+width)*r*k]) {
			t.Fatalf("%s: block %d decodes to other walks", what, b)
		}
		// The recorded lengths tile the block, and each is the bytes
		// appendVertexWalks writes for its vertex: the write-back's splice
		// points.
		if len(vlen) != width {
			t.Fatalf("%s: block %d records %d vertex lengths for %d vertices", what, b, len(vlen), width)
		}
		off := 0
		var prev [][]int32
		for i, n := range vlen {
			cur := s.walks(vlo+i, nil)
			one := appendVertexWalks(nil, cur, prev)
			if end := off + int(n); end > len(got) || !bytes.Equal(one, got[off:end]) {
				t.Fatalf("%s: block %d vertex %d: recorded length %d at offset %d, appendVertexWalks writes %d bytes %x", what, b, i, n, off, len(one), one)
			}
			off += int(n)
			prev = cur
		}
		if off != len(got) {
			t.Fatalf("%s: block %d: vertex lengths sum to %d, the block is %d bytes", what, b, off, len(got))
		}
	}
}

// TestBlockEncodeMatchesPaddedModel: every block of real indexes — a web
// graph (most walks dead at once), a citation graph (long coalesced
// tails), and a shard range — encodes to the padded model's bytes.
func TestBlockEncodeMatchesPaddedModel(t *testing.T) {
	for _, tc := range []struct {
		name   string
		ix     func() (*Index, error)
		blockB int
	}{
		{"web", func() (*Index, error) { return buildFull(gen.WebGraph(300, 6, 3), Options{Walks: 20, Seed: 5}) }, v2BlockVertices},
		{"citation", func() (*Index, error) { return buildFull(gen.CitationGraph(400, 4, 2), Options{Walks: 16, Seed: 1}) }, v2BlockVertices},
		{"shard-odd-blocks", func() (*Index, error) {
			return Build(gen.CitationGraph(300, 3, 8), Options{Walks: 7, Seed: 2}, 41, 250)
		}, 13},
	} {
		ix, err := tc.ix()
		if err != nil {
			t.Fatal(err)
		}
		var rows []int32
		for v := 0; v < ix.Width(); v++ {
			rows = append(rows, ix.denseRow(v, nil)...)
		}
		requireBlocksMatchModel(t, rows, ix.r, ix.k, tc.blockB, tc.name)
	}
}

// FuzzBlockEncode: on any walks — dead, coalescing with the previous
// vertex's walk at any step, or unrelated — and any block size, the
// live-prefix encoder writes the padded model's bytes.
func FuzzBlockEncode(f *testing.F) {
	f.Add([]byte{0, 5, 4, 1, 2, 3, 0, 1, 2, 3})
	f.Add([]byte{17, 130, 63, 2, 2, 2, 2, 3, 3, 3, 1, 1, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 3 || len(data) > 1024 {
			t.Skip()
		}
		r, k := 1+int(data[0])%5, 1+int(data[0]/5)%9
		n, blockB := 1+int(data[1])%140, 1+int(data[2])%70
		data = data[3:]
		next := func(m int) int {
			if len(data) == 0 {
				return 0
			}
			b := int(data[0])
			data = data[1:]
			return b % m
		}
		rows := make([]int32, n*r*k)
		for v := 0; v < n; v++ {
			for fp := 0; fp < r; fp++ {
				w := rows[(v*r+fp)*k : (v*r+fp+1)*k]
				live := 0
				switch next(4) {
				case 0: // dead at once
				case 1, 2: // the previous vertex's walk from some step on
					if v > 0 {
						copy(w, rows[((v-1)*r+fp)*k:((v-1)*r+fp+1)*k])
						live = len(livePrefix(w))
					}
					for t := range min(next(k+1), live) {
						w[t] = int32(next(40))
					}
				default:
					live = next(k + 1)
					for t := range live {
						w[t] = int32(next(40))
					}
				}
				for t := live; t < k; t++ {
					w[t] = -1
				}
			}
		}
		requireBlocksMatchModel(t, rows, r, k, blockB, "fuzz")
	})
}
