package partition_test

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
	"sort"
	"strings"
	"testing"

	"oipsr/graph"
	"oipsr/graph/gen"
	"oipsr/graph/gio"
	"oipsr/internal/partition"
)

// recordParent rewrites testdata/parent/plans.txt instead of comparing
// against it. The file holds the plans of commit 1a802a7, the last one that
// built DMST-Reduce's candidate edge list (overlapping pairs found through a
// pair map, each weighed by a sorted merge) and ran mst.GreedyAcyclic over
// it. It is only ever recorded by checking that commit out, dropping this
// file into internal/partition/ and running the test with -record-parent
// (testdata/parent/README.md). The file uses nothing but BuildPlan and the
// Plan's exported fields, so it compiles on both sides.
var recordParent = flag.Bool("record-parent", false, "rewrite testdata/parent/ (run only at the parent commit; see testdata/parent/README.md)")

// relabelled returns g with vertex v renamed perm[v], perm the seed's
// rand.Perm — the renumbering the sweep-web benchmark applies per seed.
func relabelled(t testing.TB, g *graph.Graph, seed int64) *graph.Graph {
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

// planGoldenGraphs are the graphs the plan goldens cover: sweep-web's graph
// under two relabellings (ties in the (in-degree, id) rank fall
// differently), the six engine-conformance fixtures, a citation graph (many
// small overlapping in-sets), a coauthor graph (symmetric, hub-heavy) and a
// hand-built graph with self-loops and duplicate in-sets.
func planGoldenGraphs(t *testing.T) []struct {
	name string
	g    *graph.Graph
} {
	type named = struct {
		name string
		g    *graph.Graph
	}
	web := gen.WebGraph(1500, 11, 1)
	out := []named{
		{"web1500-r1", relabelled(t, web, 1)},
		{"web1500-r2", relabelled(t, web, 2)},
	}
	files, err := filepath.Glob("../../simrank/testdata/conformance/*.edges")
	if err != nil || len(files) != 6 {
		t.Fatalf("conformance fixtures: %d files, err %v", len(files), err)
	}
	sort.Strings(files)
	for _, file := range files {
		f, err := os.Open(file)
		if err != nil {
			t.Fatal(err)
		}
		var n int
		fmt.Fscanf(f, "# n=%d", &n) // optional: trailing isolated vertices
		f.Seek(0, 0)
		g, err := gio.ReadEdgeListN(f, n)
		f.Close()
		if err != nil {
			t.Fatalf("%s: %v", file, err)
		}
		out = append(out, named{"conformance-" + strings.TrimSuffix(filepath.Base(file), ".edges"), g})
	}
	hand := graph.MustFromEdges(12, [][2]int{
		{0, 0}, {1, 0}, // I(0) = {0, 1}, a self-loop
		{0, 1}, {1, 1}, // I(1) = I(0), another self-loop
		{0, 2}, {1, 2}, {2, 2}, // I(2) = I(0) + {2}
		{3, 3},         // I(3) = {3}, only its self-loop
		{10, 7},        // 10 and 11 have empty in-sets; 10 feeds I(7)
		{3, 4}, {5, 4}, // I(4) = I(5) = I(6) = {3, 5}
		{3, 5}, {5, 5},
		{3, 6}, {5, 6},
		{0, 7}, {1, 7}, {2, 7}, {3, 7}, {7, 7}, // I(7) ⊇ I(2)
		{6, 8}, {7, 8}, {8, 8}, {9, 8},
		{6, 9}, {7, 9}, {8, 9}, {9, 9}, // I(9) = I(8)
	})
	return append(out,
		named{"citation3000", gen.CitationGraph(3000, 4, 1)},
		named{"coauthor400", gen.CoauthorGraph(400, 6, 1)},
		named{"hand12-loops", hand},
	)
}

// digest renders a sequence of integers as "len=N sha256=H", the hash
// taken over each value as a little-endian int64.
func digest(n int, at func(i int) int64) string {
	h := sha256.New()
	var buf [8]byte
	for i := 0; i < n; i++ {
		binary.LittleEndian.PutUint64(buf[:], uint64(at(i)))
		h.Write(buf[:])
	}
	return fmt.Sprintf("len=%d sha256=%s", n, hex.EncodeToString(h.Sum(nil)))
}

func ints(s []int) (int, func(int) int64) {
	return len(s), func(i int) int64 { return int64(s[i]) }
}

func int32s(s []int32) (int, func(int) int64) {
	return len(s), func(i int) int64 { return int64(s[i]) }
}

// steps hashes a step list as the pairs (Vertex, Parent).
func steps(s []partition.Step) (int, func(int) int64) {
	return 2 * len(s), func(i int) int64 {
		if i%2 == 0 {
			return int64(s[i/2].Vertex)
		}
		return int64(s[i/2].Parent)
	}
}

// chains hashes the chain index as the triples (Start, End, Cost).
func chains(s []partition.Chain) (int, func(int) int64) {
	return 3 * len(s), func(i int) int64 {
		c := s[i/3]
		return [3]int64{int64(c.Start), int64(c.End), c.Cost}[i%3]
	}
}

// planLines renders every exported field of p, one line each.
func planLines(name string, p *partition.Plan) string {
	var b strings.Builder
	field := func(f, v string) { fmt.Fprintf(&b, "%s %s %s\n", name, f, v) }
	field("Roots", digest(ints(p.Roots)))
	field("Parent", digest(ints(p.Parent)))
	field("TreeParent", digest(ints(p.TreeParent)))
	field("ChainSteps", digest(steps(p.ChainSteps)))
	field("TreeSteps", digest(steps(p.TreeSteps)))
	for _, d := range []struct {
		name string
		d    *partition.Diffs
	}{{"ChainDiffs", &p.ChainDiffs}, {"TreeDiffs", &p.TreeDiffs}} {
		field(d.name+".IDs", digest(int32s(d.d.IDs)))
		field(d.name+".Off", digest(int32s(d.d.Off)))
		field(d.name+".Split", digest(int32s(d.d.Split)))
	}
	field("Chains", digest(chains(p.Chains)))
	field("counts", fmt.Sprintf("NumSets=%d Additions=%d TreeWeight=%d ScratchAdditions=%d SharedEdges=%d AvgDiff=%016x",
		p.NumSets, p.Additions, p.TreeWeight, p.ScratchAdditions, p.SharedEdges, math.Float64bits(p.AvgDiff)))
	field("Bytes", fmt.Sprint(p.Bytes()))
	return b.String()
}

// TestParentPlanGoldens: BuildPlan reproduces, field for field, the plans
// the parent's candidate edge list and greedy arborescence built on every
// golden graph. The oracle test compares BuildPlan with a dense pair table
// kept in the tests; this pins both to the code they replaced.
func TestParentPlanGoldens(t *testing.T) {
	var out strings.Builder
	for _, gc := range planGoldenGraphs(t) {
		p, err := partition.BuildPlan(gc.g, partition.Options{})
		if err != nil {
			t.Fatalf("%s: %v", gc.name, err)
		}
		out.WriteString(planLines(gc.name, p))
	}
	checkGolden(t, "plans.txt", out.String())
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
