package partition

import (
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"testing/quick"

	"oipsr/graph"
	"oipsr/graph/gen"
	"oipsr/internal/mst"
)

// oraclePlan is DMST-Reduce as the paper's pseudocode states it: the dense
// table of every pair of non-empty in-sets, each weighed by a sorted merge,
// an edge a -> b (a ranked below b by (in-degree, id)) kept when it beats
// b's root edge, and the arborescence taken by mst.GreedyAcyclic. It
// returns the plan linearize makes of that tree and the table, so that
// mst.Edmonds can weigh the same cost graph.
func oraclePlan(t testing.TB, g *graph.Graph) (*Plan, []mst.Edge) {
	t.Helper()
	var verts []int
	for v := 0; v < g.NumVertices(); v++ {
		if g.InDegree(v) > 0 {
			verts = append(verts, v)
		}
	}
	sort.Slice(verts, func(i, j int) bool {
		di, dj := g.InDegree(verts[i]), g.InDegree(verts[j])
		if di != dj {
			return di < dj
		}
		return verts[i] < verts[j]
	})
	// Node 0 is the virtual empty root, node i+1 is verts[i].
	var edges []mst.Edge
	for i, v := range verts {
		edges = append(edges, mst.Edge{From: 0, To: i + 1, Weight: float64(ScratchCost(g.In(v)))})
	}
	for j, b := range verts {
		for i, a := range verts[:j] {
			if sd := SymmetricDiffSize(g.In(a), g.In(b)); sd < g.InDegree(b)-1 {
				edges = append(edges, mst.Edge{From: i + 1, To: j + 1, Weight: float64(sd)})
			}
		}
	}
	arb, err := mst.GreedyAcyclic(len(verts)+1, 0, edges)
	if err != nil {
		t.Fatal(err)
	}
	parent := make([]int32, len(verts))
	for i := range verts {
		parent[i] = int32(arb.Parent[i+1] - 1)
	}
	return linearize(g, verts, parent, int(arb.Total)), edges
}

// checkLossless reports whether BuildPlan's plan on g is DeepEqual to the
// dense-table oracle's.
func checkLossless(t testing.TB, name string, g *graph.Graph) bool {
	t.Helper()
	got, err := BuildPlan(g, Options{})
	if err != nil {
		t.Errorf("%s: %v", name, err)
		return false
	}
	want, _ := oraclePlan(t, g)
	if !reflect.DeepEqual(got, want) {
		t.Errorf("%s: plan differs from the dense-table oracle (TreeWeight %d vs %d, Additions %d vs %d)",
			name, got.TreeWeight, want.TreeWeight, got.Additions, want.Additions)
		return false
	}
	return true
}

// checkEdmondsOptimum reports whether BuildPlan's TreeWeight on g is the
// minimum mst.Edmonds finds on the dense table.
func checkEdmondsOptimum(t testing.TB, name string, g *graph.Graph) bool {
	t.Helper()
	got, err := BuildPlan(g, Options{})
	if err != nil {
		t.Errorf("%s: %v", name, err)
		return false
	}
	want, edges := oraclePlan(t, g)
	edm, err := mst.Edmonds(want.NumSets+1, 0, edges)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	if int(edm.Total) != got.TreeWeight {
		t.Errorf("%s: TreeWeight %d, Edmonds optimum %v", name, got.TreeWeight, edm.Total)
		return false
	}
	return true
}

// randomGraph draws n in [1, 1+maxN) vertices and up to perV·n edges,
// self-loops and duplicates included (the builder coalesces duplicates).
func randomGraph(rng *rand.Rand, maxN, perV int) *graph.Graph {
	n := 1 + rng.Intn(maxN)
	b := graph.NewBuilder(n, 0)
	b.EnsureVertices(n)
	for i := rng.Intn(perV*n + 1); i > 0; i-- {
		b.AddEdge(rng.Intn(n), rng.Intn(n))
	}
	return b.MustBuild()
}

// oracleCases are the degenerate shapes and the generated graphs with hubs
// both oracle tests run besides their quick-check graphs.
func oracleCases(t *testing.T) []struct {
	name string
	g    *graph.Graph
} {
	return []struct {
		name string
		g    *graph.Graph
	}{
		{"n=1", graph.MustFromEdges(1, nil)},
		{"n=1 self-loop", graph.MustFromEdges(1, [][2]int{{0, 0}})},
		{"edgeless", graph.MustFromEdges(6, nil)},
		{"self-loops", graph.MustFromEdges(4, [][2]int{{0, 0}, {1, 1}, {2, 2}, {0, 3}, {1, 3}, {3, 3}})},
		{"identical in-sets", graph.MustFromEdges(7, [][2]int{
			{0, 3}, {1, 3}, {2, 3}, {0, 4}, {1, 4}, {2, 4}, {0, 5}, {1, 5}, {2, 5}, {0, 6}, {1, 6},
		})},
		{"paper Fig. 1a", paperGraph(t)},
		{"web1500", gen.WebGraph(1500, 11, 1)},
		{"citation1500", gen.CitationGraph(1500, 4, 1)},
		{"coauthor300", gen.CoauthorGraph(300, 6, 2)},
		{"er400", gen.ErdosRenyi(400, 2400, 3)},
	}
}

// TestSparseCandidatesLossless: the counting pass over shared in-neighbors
// builds, field for field, the plan of the paper's dense O(m^2) pair table
// through GreedyAcyclic and linearize — on quick-check graphs, the
// degenerate shapes, and generated graphs with hubs.
func TestSparseCandidatesLossless(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		return checkLossless(t, "quick", randomGraph(rng, 40, 5))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
	for _, c := range oracleCases(t) {
		checkLossless(t, c.name, c.g)
	}
}

// TestEdmondsMatchesGreedy: the plan's tree weight is the minimum arborescence
// Edmonds finds on the dense pair table, on the same graphs.
func TestEdmondsMatchesGreedy(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		return checkEdmondsOptimum(t, "quick", randomGraph(rng, 40, 5))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
	for _, c := range oracleCases(t) {
		checkEdmondsOptimum(t, c.name, c.g)
	}
}

// FuzzBuildPlan: the plan of any small graph is the dense-table oracle's.
// The first byte sizes the graph (1 to 48 vertices), each following byte
// pair is an edge.
func FuzzBuildPlan(f *testing.F) {
	f.Add([]byte{8, 0, 3, 1, 3, 2, 3, 0, 4, 1, 4, 2, 4, 3, 5, 4, 5})
	f.Add([]byte{3, 0, 0, 1, 1, 2, 2, 0, 1})
	f.Add([]byte{0})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 || len(data) > 1+2*512 {
			return
		}
		n := 1 + int(data[0])%48
		b := graph.NewBuilder(n, 0)
		b.EnsureVertices(n)
		for i := 1; i+1 < len(data); i += 2 {
			b.AddEdge(int(data[i])%n, int(data[i+1])%n)
		}
		g := b.MustBuild()
		checkLossless(t, "fuzz", g)
		checkEdmondsOptimum(t, "fuzz", g)
	})
}
