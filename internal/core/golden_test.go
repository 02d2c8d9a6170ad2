package core_test

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"oipsr/graph"
	"oipsr/graph/gen"
	"oipsr/internal/core"
	"oipsr/internal/dsr"
	"oipsr/internal/prank"
	"oipsr/internal/simmat"
)

// recordParent rewrites testdata/parent/sweeps.txt instead of comparing
// against it. The file holds the results of commit f881ea1, the last one
// with the row-at-a-time sweep loops, and is only ever recorded by checking
// that commit out, dropping this file into internal/core/ and running
// `go test ./internal/core -run TestParentSweepGoldens -record-parent`
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

// goldenAlgos runs each engine in one backend configuration: workers for
// the pool size, block > 0 for the tiled backend (P-Rank has none).
var goldenAlgos = []struct {
	name  string
	tiled bool
	run   func(t *testing.T, g *graph.Graph, workers, block int) goldenRun
}{
	{"oip-sr", true, func(t *testing.T, g *graph.Graph, workers, block int) goldenRun {
		return runOIP(t, g, core.Options{C: 0.6, K: goldenK, Workers: workers}, block)
	}},
	{"oip-sr-disable-outer", true, func(t *testing.T, g *graph.Graph, workers, block int) goldenRun {
		return runOIP(t, g, core.Options{C: 0.6, K: goldenK, Workers: workers, DisableOuter: true}, block)
	}},
	{"oip-dsr", true, func(t *testing.T, g *graph.Graph, workers, block int) goldenRun {
		opt := dsr.Options{C: 0.6, K: goldenK, Workers: workers}
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
	}},
	{"p-rank", false, func(t *testing.T, g *graph.Graph, workers, _ int) goldenRun {
		m, st, err := prank.Compute(g, prank.Options{K: goldenK, Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		return goldenRun{m.RowInto, m.N(), st.InnerAdds, st.OuterAdds, st.Iterations}
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
			modes := []goldenMode{{"dense-w1", 1, 0}, {"dense-w3", 3, 0}}
			if a.tiled {
				modes = append(modes, goldenMode{"tiled-b64", 2, 64})
			}
			for _, m := range modes {
				r := a.run(t, gc.g, m.workers, m.block)
				fmt.Fprintf(&out, "%s %s %s %s\n", gc.name, a.name, m.name, r.line(t))
			}
		}
	}
	got := out.String()
	path := filepath.Join("testdata", "parent", "sweeps.txt")
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
