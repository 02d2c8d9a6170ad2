package walkindex

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"flag"
	"fmt"
	"os"
	"testing"

	"oipsr/graph"
	"oipsr/graph/gen"
)

// recordParent rewrites the testdata/parent golden of the test run instead
// of comparing against it. forest.txt holds the coalescence order of
// commit a4d673c, the last one that sorted it by reading the stored walks,
// and is only ever recorded by checking that commit out, dropping this
// file into it and running `go test ./internal/walkindex -run
// TestParentForestGoldens -record-parent`; load-errors.txt is recorded
// the same way at c025cb9 (testdata/parent/README.md).
var recordParent = flag.Bool("record-parent", false, "rewrite the testdata/parent golden of the test run (run only at its parent commit; see testdata/parent/README.md)")

// forestGoldenCases are the indexes the order goldens cover: a web graph
// (most walks dead at once), a citation graph (long coalesced tails) and a
// coauthor graph (dense, undirected), each over its full range and two
// ranges whose first vertex is not a block boundary.
func forestGoldenCases() []struct {
	name string
	g    *graph.Graph
} {
	return []struct {
		name string
		g    *graph.Graph
	}{
		{"web-6000-11-1", gen.WebGraph(6000, 11, 1)},
		{"citation-15000-4-1", gen.CitationGraph(15000, 4, 1)},
		{"coauthor-4000-8-1", gen.CoauthorGraph(4000, 8, 1)},
	}
}

// forestGoldenOptions are the build parameters of every golden index.
var forestGoldenOptions = Options{Walks: 100, Seed: 1, Workers: 2}

// forestGoldenRanges are the ranges each golden graph is indexed over.
func forestGoldenRanges(n int) [][2]int {
	return [][2]int{{0, n}, {n/5 + 7, n / 2}, {n - 1000, n}}
}

// forestDigest writes one line per fingerprint of ix: the first 8 bytes of
// the SHA-256 of its live order, meeting steps and ranks (liveForest: the
// order without its empty slots, as the parent laid it out),
// little-endian.
func forestDigest(w *bufio.Writer, name string, ix *Index) {
	var buf []byte
	for fp := 0; fp < ix.r; fp++ {
		ord, mt, _, rk := liveForest(ix, fp)
		buf = buf[:0]
		for _, v := range ord {
			buf = binary.LittleEndian.AppendUint32(buf, uint32(v))
		}
		for _, m := range mt {
			buf = binary.LittleEndian.AppendUint16(buf, m)
		}
		for _, r := range rk {
			buf = binary.LittleEndian.AppendUint32(buf, uint32(r))
		}
		sum := sha256.Sum256(buf)
		fmt.Fprintf(w, "%s [%d,%d) fp %d %x\n", name, ix.lo, ix.hi, fp, sum[:8])
	}
}

// TestParentForestGoldens: Build, and AttachGraph on its rows reloaded
// (saved and loaded over the full range, copied over a ranged one; see
// reload), sort from the graph, fingerprint for fingerprint, the order,
// meeting steps and ranks the parent sorted from the stored walks, read
// through the live view, with the gapped layout sound.
func TestParentForestGoldens(t *testing.T) {
	if testing.Short() {
		t.Skip("builds nine indexes of up to 15000 vertices")
	}
	var built, loaded bytes.Buffer
	bw, lw := bufio.NewWriter(&built), bufio.NewWriter(&loaded)
	for _, c := range forestGoldenCases() {
		for _, r := range forestGoldenRanges(c.g.NumVertices()) {
			ix, err := Build(c.g, forestGoldenOptions, r[0], r[1])
			if err != nil {
				t.Fatal(err)
			}
			requireGappedLayout(t, ix, c.name)
			forestDigest(bw, c.name, ix)
			forestDigest(lw, c.name, reload(t, ix, c.g))
		}
	}
	bw.Flush()
	lw.Flush()
	const path = "testdata/parent/forest.txt"
	if *recordParent {
		if err := os.WriteFile(path, built.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	requireSameLines(t, built.Bytes(), want, "Build")
	requireSameLines(t, loaded.Bytes(), want, "reload → AttachGraph")
}

// requireSameLines fails at the first line where got differs from the
// recorded want.
func requireSameLines(t *testing.T, got, want []byte, what string) {
	t.Helper()
	gl, wl := bytes.Split(got, []byte("\n")), bytes.Split(want, []byte("\n"))
	for i := 0; i < len(gl) && i < len(wl); i++ {
		if !bytes.Equal(gl[i], wl[i]) {
			t.Fatalf("%s: line %d is %q, the parent recorded %q", what, i+1, gl[i], wl[i])
		}
	}
	if len(gl) != len(wl) {
		t.Fatalf("%s: %d lines, the parent recorded %d", what, len(gl), len(wl))
	}
}
