package graph

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

// paperGraph is the 8-vertex citation network of Fig. 1a with the in-neighbor
// sets listed in Fig. 2a:
//
//	I(a)={b,g} I(b)={e,f,g,i} I(c)={b,d,g} I(d)={a,e,f,i} I(e)={f,g} I(h)={b,d}
//
// Vertex ids: a=0 b=1 c=2 d=3 e=4 f=5 g=6 h=7. f, g, i have empty in-sets;
// i=8 would make 9 vertices, but Fig. 2a uses only the 8 labeled a..h plus i;
// we include i as vertex 8.
func paperGraph(t testing.TB) *Graph {
	t.Helper()
	const (
		a, b, c, d, e, f, gg, h, i = 0, 1, 2, 3, 4, 5, 6, 7, 8
	)
	edges := [][2]int{
		{b, a}, {gg, a},
		{e, b}, {f, b}, {gg, b}, {i, b},
		{b, c}, {d, c}, {gg, c},
		{a, d}, {e, d}, {f, d}, {i, d},
		{f, e}, {gg, e},
		{b, h}, {d, h},
	}
	g, err := FromEdges(9, edges)
	if err != nil {
		t.Fatalf("building paper graph: %v", err)
	}
	return g
}

func TestPaperGraphInSets(t *testing.T) {
	g := paperGraph(t)
	want := map[int][]int{
		0: {1, 6},       // I(a) = {b, g}
		1: {4, 5, 6, 8}, // I(b) = {e, f, g, i}
		2: {1, 3, 6},    // I(c) = {b, d, g}
		3: {0, 4, 5, 8}, // I(d) = {a, e, f, i}
		4: {5, 6},       // I(e) = {f, g}
		5: nil,          // I(f) empty
		6: nil,          // I(g) empty
		7: {1, 3},       // I(h) = {b, d}
		8: nil,          // I(i) empty
	}
	for v, in := range want {
		got := g.In(v)
		if len(in) == 0 && len(got) == 0 {
			continue
		}
		if !reflect.DeepEqual(got, in) {
			t.Errorf("In(%d) = %v, want %v", v, got, in)
		}
	}
	if g.NumEdges() != 17 {
		t.Errorf("NumEdges = %d, want 17", g.NumEdges())
	}
	if err := g.Validate(); err != nil {
		t.Errorf("Validate: %v", err)
	}
}

func TestBuilderDeduplicates(t *testing.T) {
	b := NewBuilder(3, 4)
	b.AddEdge(0, 1)
	b.AddEdge(0, 1)
	b.AddEdge(1, 2)
	b.AddEdge(0, 1)
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	if g.NumEdges() != 2 {
		t.Fatalf("NumEdges = %d, want 2 after dedup", g.NumEdges())
	}
	if !g.HasEdge(0, 1) || !g.HasEdge(1, 2) || g.HasEdge(2, 0) {
		t.Error("HasEdge disagrees with inserted edges")
	}
}

func TestBuilderSelfLoops(t *testing.T) {
	b := NewBuilder(2, 2)
	b.AddEdge(0, 0)
	b.AddEdge(0, 1)
	g := b.MustBuild()
	if !g.HasEdge(0, 0) {
		t.Error("self loop should be kept by default")
	}
}

func TestBuilderRejectsNegativeIDs(t *testing.T) {
	b := NewBuilder(0, 1)
	b.AddEdge(-1, 0)
	if _, err := b.Build(); err == nil {
		t.Fatal("Build accepted a negative vertex id")
	}
}

func TestBuilderGrowsVertexSpace(t *testing.T) {
	b := NewBuilder(1, 1)
	b.AddEdge(0, 41)
	g := b.MustBuild()
	if g.NumVertices() != 42 {
		t.Fatalf("NumVertices = %d, want 42", g.NumVertices())
	}
}

func TestEnsureVerticesIsolated(t *testing.T) {
	b := NewBuilder(0, 0)
	b.EnsureVertices(5)
	g := b.MustBuild()
	if g.NumVertices() != 5 || g.NumEdges() != 0 {
		t.Fatalf("got n=%d m=%d, want n=5 m=0", g.NumVertices(), g.NumEdges())
	}
	for v := 0; v < 5; v++ {
		if g.InDegree(v) != 0 || g.OutDegree(v) != 0 {
			t.Errorf("vertex %d should be isolated", v)
		}
	}
}

func TestEdgesIterationOrderAndEarlyStop(t *testing.T) {
	g := MustFromEdges(3, [][2]int{{0, 1}, {0, 2}, {1, 2}, {2, 0}})
	var got [][2]int
	g.Edges(func(u, v int) bool {
		got = append(got, [2]int{u, v})
		return true
	})
	want := [][2]int{{0, 1}, {0, 2}, {1, 2}, {2, 0}}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("Edges order = %v, want %v", got, want)
	}
	count := 0
	g.Edges(func(u, v int) bool {
		count++
		return count < 2
	})
	if count != 2 {
		t.Errorf("early stop visited %d edges, want 2", count)
	}
}

// randomGraph builds a random graph for property tests.
func randomGraph(rng *rand.Rand, n, m int) *Graph {
	b := NewBuilder(n, m)
	b.EnsureVertices(n)
	for i := 0; i < m; i++ {
		b.AddEdge(rng.Intn(n), rng.Intn(n))
	}
	return b.MustBuild()
}

func TestPropertyCSRInvariants(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(50)
		m := rng.Intn(4 * n)
		g := randomGraph(rng, n, m)
		if err := g.Validate(); err != nil {
			t.Logf("seed %d: %v", seed, err)
			return false
		}
		// Degree sums match edge count in both directions.
		sumIn, sumOut := 0, 0
		for v := 0; v < n; v++ {
			sumIn += g.InDegree(v)
			sumOut += g.OutDegree(v)
		}
		return sumIn == g.NumEdges() && sumOut == g.NumEdges()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestPropertyInOutConsistency(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(40)
		g := randomGraph(rng, n, rng.Intn(3*n))
		// u in In(v) <=> v in Out(u)
		for v := 0; v < n; v++ {
			for _, u := range g.In(v) {
				found := false
				for _, w := range g.Out(u) {
					if w == v {
						found = true
						break
					}
				}
				if !found {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestComputeStatsPaperGraph(t *testing.T) {
	g := paperGraph(t)
	s := ComputeStats(g)
	if s.Vertices != 9 || s.Edges != 17 {
		t.Fatalf("stats n=%d m=%d, want 9/17", s.Vertices, s.Edges)
	}
	if s.EmptyInSets != 3 { // f, g, i
		t.Errorf("EmptyInSets = %d, want 3", s.EmptyInSets)
	}
	// Union of in-sets: {b,g,e,f,i,d,a} = 7 distinct vertices; total = 17.
	if s.InSetUnion != 7 {
		t.Errorf("InSetUnion = %d, want 7", s.InSetUnion)
	}
	if s.InSetTotal != 17 {
		t.Errorf("InSetTotal = %d, want 17", s.InSetTotal)
	}
	if s.OverlapRatio <= 0.5 {
		t.Errorf("OverlapRatio = %f, want > 0.5 for the paper graph", s.OverlapRatio)
	}
}

func TestHasEdgeBinarySearchBounds(t *testing.T) {
	g := MustFromEdges(5, [][2]int{{1, 3}, {2, 3}, {4, 3}})
	cases := []struct {
		u, v int
		want bool
	}{
		{1, 3, true}, {2, 3, true}, {4, 3, true},
		{0, 3, false}, {3, 3, false}, {1, 2, false},
	}
	for _, c := range cases {
		if got := g.HasEdge(c.u, c.v); got != c.want {
			t.Errorf("HasEdge(%d,%d) = %v, want %v", c.u, c.v, got, c.want)
		}
	}
}

func BenchmarkBuild10k(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	const n, m = 10000, 50000
	us := make([]int, m)
	vs := make([]int, m)
	for i := range us {
		us[i], vs[i] = rng.Intn(n), rng.Intn(n)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bld := NewBuilder(n, m)
		for j := 0; j < m; j++ {
			bld.AddEdge(us[j], vs[j])
		}
		if _, err := bld.Build(); err != nil {
			b.Fatal(err)
		}
	}
}
