package walkindex

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"fmt"
	"os"
	"runtime"
	"sync"
	"testing"

	"oipsr/graph/gen"
)

// loadErrorCase is a file with one or more faults in its posting blocks.
type loadErrorCase struct {
	name  string
	fault func(t *testing.T, o opening, data []byte) []byte
}

// blockSpan returns where posting block b of a saved file lies, from its
// directory.
func blockSpan(o opening, data []byte, b int) (start, end int) {
	nb := int(binary.LittleEndian.Uint32(data[o.headerSize()+4:]))
	payload := o.headerSize() + 8 + 8*(nb+1)
	entry := func(i int) int {
		return payload + int(binary.LittleEndian.Uint64(data[o.headerSize()+8+8*i:]))
	}
	return entry(b), entry(b + 1)
}

// undecodable makes block b structurally undecodable: its first walk
// declares more explicit entries than the horizon holds.
func undecodable(o opening, data []byte, b int) []byte {
	start, _ := blockSpan(o, data, b)
	data[start] = 0x7e
	return data
}

// truncatedIn cuts the file in the middle of block b.
func truncatedIn(o opening, data []byte, b int) []byte {
	start, end := blockSpan(o, data, b)
	return data[:(start+end)/2]
}

// implausible forges the directory so that block b is one byte long.
func implausible(o opening, data []byte, b int) []byte {
	start, _ := blockSpan(o, data, b)
	payload, _ := blockSpan(o, data, 0)
	binary.LittleEndian.PutUint64(data[o.headerSize()+8+8*(b+1):], uint64(start+1-payload))
	return data
}

// loadErrorCases put the faults around block 3 of 11: on its own, and
// followed by a later fault that a reader must not report first.
var loadErrorCases = []loadErrorCase{
	{"undecodable", func(_ *testing.T, o opening, d []byte) []byte { return undecodable(o, d, 3) }},
	{"undecodable-then-truncated", func(_ *testing.T, o opening, d []byte) []byte {
		return truncatedIn(o, undecodable(o, d, 3), 6)
	}},
	{"undecodable-then-implausible", func(_ *testing.T, o opening, d []byte) []byte {
		return implausible(o, undecodable(o, d, 3), 5)
	}},
	{"undecodable-then-undecodable", func(_ *testing.T, o opening, d []byte) []byte {
		return undecodable(o, undecodable(o, d, 3), 4)
	}},
	{"truncated", func(_ *testing.T, o opening, d []byte) []byte { return truncatedIn(o, d, 3) }},
	{"implausible", func(_ *testing.T, o opening, d []byte) []byte { return implausible(o, d, 3) }},
	{"implausible-last", func(_ *testing.T, o opening, d []byte) []byte { return implausible(o, d, 10) }},
	{"out-of-range", func(t *testing.T, o opening, _ []byte) []byte { return outOfRangeFile(t, o, 3, 6) }},
	{"out-of-range-then-undecodable", func(t *testing.T, o opening, _ []byte) []byte {
		return undecodable(o, outOfRangeFile(t, o, 3), 6)
	}},
	{"out-of-range-then-truncated", func(t *testing.T, o opening, _ []byte) []byte {
		return truncatedIn(o, outOfRangeFile(t, o, 3), 6)
	}},
	{"out-of-range-stale-checksum", func(t *testing.T, o opening, _ []byte) []byte {
		d := outOfRangeFile(t, o, 3)
		d[len(d)-1] ^= 1
		return d
	}},
}

// loadErrorIndexes are the golden indexes: eleven posting blocks over the
// full range and over the shard range [10, 690).
var loadErrorIndexes = sync.OnceValues(func() (full, ranged *Index) {
	g := gen.WebGraph(700, 5, 3)
	opt := Options{C: 0.7, K: 6, Walks: 6, Seed: 9}
	full, err := Build(g, opt, 0, 700)
	if err == nil {
		ranged, err = Build(g, opt, 10, 690)
	}
	if err != nil {
		panic(err)
	}
	return full, ranged
})

// loadErrorIndex is the golden index of o's kind.
func loadErrorIndex(o opening) *Index {
	full, ranged := loadErrorIndexes()
	if o.kind == ShardFile {
		return ranged
	}
	return full
}

// outOfRangeFile is the golden index of o's kind saved with an entry past
// n in the first walk of the first vertex of each of blocks.
func outOfRangeFile(t *testing.T, o opening, blocks ...int) []byte {
	ix := loadErrorIndex(o)
	paths := make([]int32, 0, ix.Width()*ix.r*ix.k)
	for v := 0; v < ix.Width(); v++ {
		paths = append(paths, ix.denseRow(v, nil)...)
	}
	for _, b := range blocks {
		paths[b*v2BlockVertices*ix.r*ix.k] = int32(ix.n + 1000*b)
	}
	bad := newIndex(ix.n, ix.lo, ix.hi, ix.k, ix.r, ix.c, ix.seed, storeOf(paths, ix.r, ix.k))
	return saveBytes(t, bad, o.kind)
}

// storeOf is a ragged store over dense rows.
func storeOf(paths []int32, r, k int) *raggedStore {
	return buildRagged(newDenseStore(paths, r, k), v2BlockShift)
}

// loadErrors returns one line per case and opening: the error the opening
// reports.
func loadErrors(t *testing.T) []byte {
	var out bytes.Buffer
	w := bufio.NewWriter(&out)
	for _, c := range loadErrorCases {
		for _, o := range openings {
			data := c.fault(t, o, saveBytes(t, loadErrorIndex(o), o.kind))
			_, err := o.open(t, data)
			fmt.Fprintf(w, "%s %s: %v\n", c.name, o.name, err)
		}
	}
	w.Flush()
	return out.Bytes()
}

// TestParentLoadErrors: a file with a fault in a posting block, and a
// later one that must not be reported first, fails every opening with the
// error the parent's block-by-block reader gave
// (testdata/parent/load-errors.txt, recorded at c025cb9): under 1, 2 and
// 8 CPUs, and whether the blocks are read one window each, a few to a
// window, or all in one.
func TestParentLoadErrors(t *testing.T) {
	const path = "testdata/parent/load-errors.txt"
	if *recordParent {
		if err := os.WriteFile(path, loadErrors(t), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	defer func(procs, window int) {
		runtime.GOMAXPROCS(procs)
		decodeWindow = window
	}(runtime.GOMAXPROCS(0), decodeWindow)
	for _, procs := range []int{1, 2, 8} {
		for _, window := range []int{1, 3000, decodeWindow} {
			runtime.GOMAXPROCS(procs)
			decodeWindow = window
			requireSameLines(t, loadErrors(t), want, fmt.Sprintf("GOMAXPROCS %d, window %d B", procs, window))
		}
	}
}
