package core_test

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"flag"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"oipsr/graph"
	"oipsr/graph/gen"
	"oipsr/internal/core"
	"oipsr/internal/dsr"
	"oipsr/internal/simmat"
)

// recordParent rewrites the files under testdata/parent/ instead of
// comparing against them. sweeps.txt holds the results of commit f881ea1,
// the last one with the row-at-a-time sweep loops; sweeps-block.txt those
// of commit b8abb9e, the last one that swept all n^2 cells; sweeps-web.txt
// those of commit fbedcec, the last one whose procedure OP emitted one row
// per pass over the tree program. Each is only
// ever recorded by checking its commit out, dropping this file into
// internal/core/ and running its test with -record-parent
// (testdata/parent/README.md). The file uses nothing but the engines'
// exported Compute/ComputeTiled entry points, so it compiles on both sides.
var recordParent = flag.Bool("record-parent", false, "rewrite testdata/parent/ (run only at the parent commit; see testdata/parent/README.md)")

// goldenGraphs are the graphs every golden case runs on: two web graphs
// with real chain and tree sharing, and a hand-built one with identical
// in-sets (zero-cost derivations) and empty ones (zero rows and columns).
func goldenGraphs() []struct {
	name string
	g    *graph.Graph
} {
	hand := graph.MustFromEdges(12, [][2]int{
		{9, 0}, {10, 0},
		{5, 1}, {5, 2},
		{0, 3}, {1, 3}, {2, 3}, // I(3) = I(4)
		{0, 4}, {1, 4}, {2, 4},
		{0, 5}, {1, 5}, {2, 5}, {7, 5},
		{1, 7}, {2, 7},
		{3, 8}, {4, 8}, {5, 8}, // I(8) = I(9)
		{3, 9}, {4, 9}, {5, 9},
		{8, 10}, {10, 10},
		// 6 and 11 have empty in-sets
	})
	return []struct {
		name string
		g    *graph.Graph
	}{
		{"web300-s1", gen.WebGraph(300, 11, 1)},
		{"web300-s2", gen.WebGraph(300, 11, 2)},
		{"hand12", hand},
	}
}

// goldenRun is one recorded result: the score matrix and its counters.
type goldenRun struct {
	rows         func(i int, dst []float64) error
	n            int
	inner, outer int64
	iters        int
}

const goldenK = 6

// goldenMode is one backend configuration: the pool size, and block > 0
// for the tiled backend.
type goldenMode struct {
	name           string
	workers, block int
}

// goldenAlgo is one engine run in one backend configuration: workers for
// the pool size, block > 0 for the tiled backend.
type goldenAlgo struct {
	name string
	run  func(t *testing.T, g *graph.Graph, workers, block int) goldenRun
}

// goldenAlgos are the runs of the sweep goldens.
var goldenAlgos = []goldenAlgo{
	{"oip-sr", func(t *testing.T, g *graph.Graph, workers, block int) goldenRun {
		return runOIP(t, g, core.Options{C: 0.6, K: goldenK, Workers: workers}, block)
	}},
	{"oip-sr-disable-outer", func(t *testing.T, g *graph.Graph, workers, block int) goldenRun {
		return runOIP(t, g, core.Options{C: 0.6, K: goldenK, Workers: workers, DisableOuter: true}, block)
	}},
	{"oip-dsr", func(t *testing.T, g *graph.Graph, workers, block int) goldenRun {
		return runDSR(t, g, dsr.Options{C: 0.6, K: goldenK, Workers: workers}, block)
	}},
}

func runOIP(t *testing.T, g *graph.Graph, opt core.Options, block int) goldenRun {
	if block > 0 {
		opt.Tile = simmat.TileOptions{BlockSize: block}
		m, st, err := core.ComputeTiled(g, opt)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { m.Close() })
		return goldenRun{m.RowInto, m.N(), st.InnerAdds, st.OuterAdds, st.Iterations}
	}
	m, st, err := core.Compute(g, opt)
	if err != nil {
		t.Fatal(err)
	}
	return goldenRun{m.RowInto, m.N(), st.InnerAdds, st.OuterAdds, st.Iterations}
}

func runDSR(t *testing.T, g *graph.Graph, opt dsr.Options, block int) goldenRun {
	if block > 0 {
		opt.Tile = simmat.TileOptions{BlockSize: block}
		m, st, err := dsr.ComputeTiled(g, opt)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { m.Close() })
		return goldenRun{m.RowInto, m.N(), st.InnerAdds, st.OuterAdds, st.Iterations}
	}
	m, st, err := dsr.Compute(g, opt)
	if err != nil {
		t.Fatal(err)
	}
	return goldenRun{m.RowInto, m.N(), st.InnerAdds, st.OuterAdds, st.Iterations}
}

// line renders a run as "sha256 inner outer iterations", the hash taken
// over the little-endian math.Float64bits of every cell in row-major order.
func (r goldenRun) line(t *testing.T) string {
	h := sha256.New()
	row := make([]float64, r.n)
	buf := make([]byte, 8*r.n)
	for i := 0; i < r.n; i++ {
		if err := r.rows(i, row); err != nil {
			t.Fatal(err)
		}
		for j, v := range row {
			binary.LittleEndian.PutUint64(buf[8*j:], math.Float64bits(v))
		}
		h.Write(buf)
	}
	return fmt.Sprintf("%s inner=%d outer=%d iterations=%d", hex.EncodeToString(h.Sum(nil)), r.inner, r.outer, r.iters)
}

// TestParentSweepGoldens: every engine that drives the OIP Sweeper, on
// every golden graph, dense at one and three workers and tiled at block 64,
// reproduces the recorded parent's scores bit for bit and its operation
// counts exactly. Unlike the dense ≡ tiled and worker-count tests, which
// compare the current sweep with itself, this pins it to the row-at-a-time
// loops it replaced.
func TestParentSweepGoldens(t *testing.T) {
	var out strings.Builder
	for _, gc := range goldenGraphs() {
		for _, a := range goldenAlgos {
			for _, m := range []goldenMode{{"dense-w1", 1, 0}, {"dense-w3", 3, 0}, {"tiled-b64", 2, 64}} {
				r := a.run(t, gc.g, m.workers, m.block)
				fmt.Fprintf(&out, "%s %s %s %s\n", gc.name, a.name, m.name, r.line(t))
			}
		}
	}
	checkGolden(t, "sweeps.txt", out.String())
}

// blockGraphs are the graphs of the block goldens, chosen for the vertices
// whose in-set is empty: a hand-built graph whose in-sets hold such
// vertices (two of them with identical in-sets made only of them), an
// edgeless graph, a graph with a vertex whose only in-edge is a self-loop,
// and a citation graph, where most vertices have a non-empty in-set.
func blockGraphs() []struct {
	name string
	g    *graph.Graph
} {
	hand := graph.MustFromEdges(14, [][2]int{
		{0, 3}, {1, 3}, // I(3) = I(4) = {0, 1}, both with empty in-sets
		{0, 4}, {1, 4},
		{0, 5}, {1, 5}, {3, 5},
		{2, 6}, {3, 6}, {4, 6}, {5, 6},
		{7, 7}, // I(7) = {7}
		{7, 8}, {2, 8},
		{6, 9}, {8, 9}, {0, 9},
		{9, 10}, {10, 10}, {1, 10},
		{2, 11},
		{2, 12}, {11, 12},
		// 0, 1, 2 and 13 have empty in-sets; 13 has no edge at all
	})
	loop := graph.MustFromEdges(5, [][2]int{
		{1, 1}, // 1's only in-edge is its self-loop
		{1, 2}, {0, 2},
		{2, 3}, {1, 3},
	})
	return []struct {
		name string
		g    *graph.Graph
	}{
		{"hand14", hand},
		{"edgeless7", graph.MustFromEdges(7, nil)},
		{"selfloop5", loop},
		{"citation400", gen.CitationGraph(400, 8, 3)},
	}
}

// blockAlgos are the runs of the block goldens: OIP-SR after one sweep,
// after six, and stopped by StopDiff, its outer-sharing ablation, OIP-DSR
// after one sweep and after six (T_0 = I and the later T_k differ on the
// vertices with empty in-sets).
var blockAlgos = []goldenAlgo{
	{"oip-sr-k1", func(t *testing.T, g *graph.Graph, workers, block int) goldenRun {
		return runOIP(t, g, core.Options{C: 0.6, K: 1, Workers: workers}, block)
	}},
	{"oip-sr-k6", func(t *testing.T, g *graph.Graph, workers, block int) goldenRun {
		return runOIP(t, g, core.Options{C: 0.6, K: goldenK, Workers: workers}, block)
	}},
	{"oip-sr-stopdiff", func(t *testing.T, g *graph.Graph, workers, block int) goldenRun {
		return runOIP(t, g, core.Options{C: 0.8, K: 40, StopDiff: 1e-3, Workers: workers}, block)
	}},
	{"oip-sr-disable-outer", func(t *testing.T, g *graph.Graph, workers, block int) goldenRun {
		return runOIP(t, g, core.Options{C: 0.6, K: goldenK, Workers: workers, DisableOuter: true}, block)
	}},
	{"oip-dsr-k1", func(t *testing.T, g *graph.Graph, workers, block int) goldenRun {
		return runDSR(t, g, dsr.Options{C: 0.6, K: 1, Workers: workers}, block)
	}},
	{"oip-dsr-k6", func(t *testing.T, g *graph.Graph, workers, block int) goldenRun {
		return runDSR(t, g, dsr.Options{C: 0.6, K: goldenK, Workers: workers}, block)
	}},
}

// TestParentSweepGoldensBlock: the block goldens, recorded at the parent
// of the sweep over the vertices with a non-empty in-set, when the sweep
// still stored and swept all n^2 cells. Dense at one and three workers,
// tiled at block 64 and at block 7 (smaller than the number of vertices
// with a non-empty in-set on every graph that has more than seven).
func TestParentSweepGoldensBlock(t *testing.T) {
	blockModes := []goldenMode{{"dense-w1", 1, 0}, {"dense-w3", 3, 0}, {"tiled-b64", 2, 64}, {"tiled-b7", 3, 7}}
	var out strings.Builder
	for _, gc := range blockGraphs() {
		for _, a := range blockAlgos {
			for _, m := range blockModes {
				r := a.run(t, gc.g, m.workers, m.block)
				fmt.Fprintf(&out, "%s %s %s %s\n", gc.name, a.name, m.name, r.line(t))
			}
		}
	}
	checkGolden(t, "sweeps-block.txt", out.String())
}

// relabelled returns g with vertex v renamed perm[v], perm the seed's
// rand.Perm — the renumbering the sweep-web benchmark applies per seed.
func relabelled(t *testing.T, g *graph.Graph, seed int64) *graph.Graph {
	perm := rand.New(rand.NewSource(seed)).Perm(g.NumVertices())
	var edges [][2]int
	g.Edges(func(u, v int) bool {
		edges = append(edges, [2]int{perm[u], perm[v]})
		return true
	})
	h, err := graph.FromEdges(g.NumVertices(), edges)
	if err != nil {
		t.Fatal(err)
	}
	return h
}

// TestParentSweepGoldensWeb: the sweep-web benchmark's graph,
// gen.WebGraph(1500, 11, 1) relabelled by seeds 1 and 2, through OIP-SR at
// K = 13 and OIP-DSR at its default horizon, dense at one, two and three
// workers and tiled at block 64. Recorded at the parent of the four-row
// procedure OP, so every per-worker group size, tail groups included,
// is pinned to the one-row emit on a graph with real tree sharing.
func TestParentSweepGoldensWeb(t *testing.T) {
	base := gen.WebGraph(1500, 11, 1)
	modes := []goldenMode{{"dense-w1", 1, 0}, {"dense-w2", 2, 0}, {"dense-w3", 3, 0}, {"tiled-b64", 2, 64}}
	var out strings.Builder
	for _, seed := range []int64{1, 2} {
		g := relabelled(t, base, seed)
		for _, m := range modes {
			r := runOIP(t, g, core.Options{C: 0.6, K: 13, Workers: m.workers}, m.block)
			fmt.Fprintf(&out, "web1500-r%d oip-sr-k13 %s %s\n", seed, m.name, r.line(t))
		}
		for _, m := range modes {
			r := runDSR(t, g, dsr.Options{C: 0.6, Workers: m.workers}, m.block)
			fmt.Fprintf(&out, "web1500-r%d oip-dsr %s %s\n", seed, m.name, r.line(t))
		}
	}
	checkGolden(t, "sweeps-web.txt", out.String())
}

// TestParentSweepGoldensWebAblate: sweep-web's graph, relabelled by seeds
// 1 and 2, through OIP-SR's outer-sharing ablation at K = 13 and through
// OIP-SR stopped by StopDiff, dense at one and three workers and tiled at
// block 64. Recorded at the parent of procedure OP as row additions over
// the transposed inner sums, the last commit that emitted every row from
// its own partial vector.
func TestParentSweepGoldensWebAblate(t *testing.T) {
	base := gen.WebGraph(1500, 11, 1)
	modes := []goldenMode{{"dense-w1", 1, 0}, {"dense-w3", 3, 0}, {"tiled-b64", 2, 64}}
	var out strings.Builder
	for _, seed := range []int64{1, 2} {
		g := relabelled(t, base, seed)
		for _, m := range modes {
			r := runOIP(t, g, core.Options{C: 0.6, K: 13, Workers: m.workers, DisableOuter: true}, m.block)
			fmt.Fprintf(&out, "web1500-r%d oip-sr-disable-outer-k13 %s %s\n", seed, m.name, r.line(t))
		}
		for _, m := range modes {
			r := runOIP(t, g, core.Options{C: 0.8, K: 40, StopDiff: 1e-3, Workers: m.workers}, m.block)
			fmt.Fprintf(&out, "web1500-r%d oip-sr-stopdiff %s %s\n", seed, m.name, r.line(t))
		}
	}
	checkGolden(t, "sweeps-web-ablate.txt", out.String())
}

// checkGolden compares got line by line with testdata/parent/name, or
// writes it there under -record-parent.
func checkGolden(t *testing.T, name, got string) {
	t.Helper()
	path := filepath.Join("testdata", "parent", name)
	if *recordParent {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
	if len(gl) != len(wl) {
		t.Fatalf("%d golden lines, want %d", len(gl), len(wl))
	}
	for i := range wl {
		if gl[i] != wl[i] {
			t.Errorf("golden mismatch:\n got %s\nwant %s", gl[i], wl[i])
		}
	}
}
