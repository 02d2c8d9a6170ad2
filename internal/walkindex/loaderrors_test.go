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
	fault func(t *testing.T, data []byte) []byte
}

// blockSpan returns where posting block b of a saved file lies, from its
// directory.
func blockSpan(data []byte, b int) (start, end int) {
	nb := int(binary.LittleEndian.Uint32(data[headerSize+4:]))
	payload := headerSize + 8 + 8*(nb+1)
	entry := func(i int) int {
		return payload + int(binary.LittleEndian.Uint64(data[headerSize+8+8*i:]))
	}
	return entry(b), entry(b + 1)
}

// undecodable makes block b structurally undecodable: its first walk
// declares more explicit entries than the horizon holds.
func undecodable(data []byte, b int) []byte {
	start, _ := blockSpan(data, b)
	data[start] = 0x7e
	return data
}

// truncatedIn cuts the file in the middle of block b.
func truncatedIn(data []byte, b int) []byte {
	start, end := blockSpan(data, b)
	return data[:(start+end)/2]
}

// implausible forges the directory so that block b is one byte long.
func implausible(data []byte, b int) []byte {
	start, _ := blockSpan(data, b)
	payload, _ := blockSpan(data, 0)
	binary.LittleEndian.PutUint64(data[headerSize+8+8*(b+1):], uint64(start+1-payload))
	return data
}

// loadErrorCases put the faults around block 3 of 11: on its own, and
// followed by a later fault that a reader must not report first.
var loadErrorCases = []loadErrorCase{
	{"undecodable", func(_ *testing.T, d []byte) []byte { return undecodable(d, 3) }},
	{"undecodable-then-truncated", func(_ *testing.T, d []byte) []byte {
		return truncatedIn(undecodable(d, 3), 6)
	}},
	{"undecodable-then-implausible", func(_ *testing.T, d []byte) []byte {
		return implausible(undecodable(d, 3), 5)
	}},
	{"undecodable-then-undecodable", func(_ *testing.T, d []byte) []byte {
		return undecodable(undecodable(d, 3), 4)
	}},
	{"truncated", func(_ *testing.T, d []byte) []byte { return truncatedIn(d, 3) }},
	{"implausible", func(_ *testing.T, d []byte) []byte { return implausible(d, 3) }},
	{"implausible-last", func(_ *testing.T, d []byte) []byte { return implausible(d, 10) }},
	{"out-of-range", func(t *testing.T, _ []byte) []byte { return outOfRangeFile(t, 3, 6) }},
	{"out-of-range-then-undecodable", func(t *testing.T, _ []byte) []byte {
		return undecodable(outOfRangeFile(t, 3), 6)
	}},
	{"out-of-range-then-truncated", func(t *testing.T, _ []byte) []byte {
		return truncatedIn(outOfRangeFile(t, 3), 6)
	}},
	{"out-of-range-stale-checksum", func(t *testing.T, _ []byte) []byte {
		d := outOfRangeFile(t, 3)
		d[len(d)-1] ^= 1
		return d
	}},
}

// loadErrorIndex is the golden index: eleven posting blocks over the full
// range.
var loadErrorIndex = sync.OnceValue(func() *Index {
	ix, err := Build(gen.WebGraph(700, 5, 3), Options{C: 0.7, K: 6, Walks: 6, Seed: 9}, 0, 700)
	if err != nil {
		panic(err)
	}
	return ix
})

// outOfRangeFile is the golden index saved with an entry past n in the
// first walk of the first vertex of each of blocks.
func outOfRangeFile(t *testing.T, blocks ...int) []byte {
	ix := loadErrorIndex()
	paths := make([]int32, 0, ix.Width()*ix.r*ix.k)
	for v := 0; v < ix.Width(); v++ {
		paths = append(paths, ix.denseRow(v, nil)...)
	}
	for _, b := range blocks {
		paths[b*v2BlockVertices*ix.r*ix.k] = int32(ix.n + 1000*b)
	}
	bad := newIndex(ix.n, ix.lo, ix.hi, ix.k, ix.r, ix.c, ix.seed, storeOf(paths, ix.r, ix.k))
	return saveBytes(t, bad)
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
			data := c.fault(t, saveBytes(t, loadErrorIndex()))
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
// (testdata/parent/load-errors.txt, recorded at c025cb9, its lines of the
// retired shard openings not replayed): under 1, 2 and 8 CPUs, and
// whether the blocks are read one window each, a few to a window, or all
// in one.
func TestParentLoadErrors(t *testing.T) {
	const path = "testdata/parent/load-errors.txt"
	if *recordParent {
		if err := os.WriteFile(path, loadErrors(t), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	recorded, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var want []byte
	for _, line := range bytes.SplitAfter(recorded, []byte("\n")) {
		if record, _, _ := bytes.Cut(line, []byte(":")); !bytes.Contains(record, []byte(" shard-")) {
			want = append(want, line...)
		}
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
