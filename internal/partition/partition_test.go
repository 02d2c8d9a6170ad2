package partition

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"oipsr/graph"
)

func TestSetOps(t *testing.T) {
	a := []int{1, 3, 5, 7}
	b := []int{3, 4, 5, 8}
	if got := SortedIntersect(a, b); !reflect.DeepEqual(got, []int{3, 5}) {
		t.Errorf("intersect = %v", got)
	}
	if got := SortedDiff(a, b); !reflect.DeepEqual(got, []int{1, 7}) {
		t.Errorf("a\\b = %v", got)
	}
	if got := SortedDiff(b, a); !reflect.DeepEqual(got, []int{4, 8}) {
		t.Errorf("b\\a = %v", got)
	}
	if got := SymmetricDiffSize(a, b); got != 4 {
		t.Errorf("symdiff = %d, want 4", got)
	}
	if got := IntersectSize(a, b); got != 2 {
		t.Errorf("intersect size = %d, want 2", got)
	}
	if got := SymmetricDiffSize(nil, b); got != 4 {
		t.Errorf("symdiff(nil,b) = %d, want 4", got)
	}
	if got := SortedIntersect(nil, b); got != nil {
		t.Errorf("intersect(nil,b) = %v, want nil", got)
	}
}

// TestSetOpsProperties checks the algebra the sharing rewrite relies on:
// |A(+)B| = |A| + |B| - 2|A∩B| and B = (A∩B) ∪ (B\A) as a disjoint union.
func TestSetOpsProperties(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		mk := func() []int {
			m := make(map[int]bool)
			for i := 0; i < rng.Intn(12); i++ {
				m[rng.Intn(20)] = true
			}
			var s []int
			for k := 0; k < 20; k++ {
				if m[k] {
					s = append(s, k)
				}
			}
			return s
		}
		a, b := mk(), mk()
		if SymmetricDiffSize(a, b) != len(a)+len(b)-2*IntersectSize(a, b) {
			return false
		}
		// Disjoint union reconstruction (Eq. 8).
		shared, resid := SortedIntersect(b, a), SortedDiff(b, a)
		merged := append(append([]int(nil), shared...), resid...)
		m := make(map[int]bool)
		for _, x := range merged {
			if m[x] {
				return false // not disjoint
			}
			m[x] = true
		}
		if len(merged) != len(b) {
			return false
		}
		for _, x := range b {
			if !m[x] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// paperGraph is the Fig. 1a network; ids a=0 b=1 c=2 d=3 e=4 f=5 g=6 h=7 i=8.
func paperGraph(t testing.TB) *graph.Graph {
	t.Helper()
	const (
		a, b, c, d, e, f, gg, h, i = 0, 1, 2, 3, 4, 5, 6, 7, 8
	)
	return graph.MustFromEdges(9, [][2]int{
		{b, a}, {gg, a},
		{e, b}, {f, b}, {gg, b}, {i, b},
		{b, c}, {d, c}, {gg, c},
		{a, d}, {e, d}, {f, d}, {i, d},
		{f, e}, {gg, e},
		{b, h}, {d, h},
	})
}

// TestFig2bTransitionCosts checks the # cells of Fig. 2b: the transition
// costs that make sharing worthwhile.
func TestFig2bTransitionCosts(t *testing.T) {
	g := paperGraph(t)
	const (
		a, b, c, d, e, h = 0, 1, 2, 3, 4, 7
	)
	cases := []struct {
		from, to int
		want     int
	}{
		{a, c, 1}, // I(a)->I(c): symdiff {d}, cheaper than 2 from scratch
		{h, c, 1}, // I(h)->I(c): symdiff {g}
		{e, b, 2}, // I(e)->I(b): symdiff {e,i}, cheaper than 3
		{b, d, 2}, // I(b)->I(d): symdiff {g,a}, the footnote example
		{a, e, 1}, // min(|{b,f}|=2, |I(e)|-1=1) = 1: scratch wins
		{a, b, 3}, // min(4, 3) = 3
		{c, d, 3}, // min(7, 3) = 3
	}
	for _, cse := range cases {
		if got := TransitionCost(g.In(cse.from), g.In(cse.to)); got != cse.want {
			t.Errorf("TC I(%d)->I(%d) = %d, want %d", cse.from, cse.to, got, cse.want)
		}
	}
	if got := ScratchCost(g.In(b)); got != 3 {
		t.Errorf("scratch cost of I(b) = %d, want 3", got)
	}
	if got := ScratchCost(nil); got != 0 {
		t.Errorf("scratch cost of empty = %d, want 0", got)
	}
}

// TestFig3aPlan reproduces the partitions of Fig. 3a: the plan must make
// a, e, h roots and derive c from a, b from e, d from b with the exact
// Add/Sub lists of the figure.
func TestFig3aPlan(t *testing.T) {
	g := paperGraph(t)
	p, err := BuildPlan(g, Options{})
	if err != nil {
		t.Fatal(err)
	}
	const (
		a, b, c, d, e, h = 0, 1, 2, 3, 4, 7
	)
	wantParent := map[int]int{a: -1, e: -1, h: -1, c: a, b: e, d: b}
	for v, wp := range wantParent {
		if p.Parent[v] != wp {
			t.Errorf("parent of %d = %d, want %d", v, p.Parent[v], wp)
		}
	}
	// I(c) = I(a) + {d}: Add {3}, Sub {}.
	if add, sub := chainDiff(p, c); !reflect.DeepEqual(add, []int32{3}) || len(sub) != 0 {
		t.Errorf("c: add=%v sub=%v, want add=[3] sub=[]", add, sub)
	}
	// I(b) = I(e) + {e, i}: Add {4, 8}, Sub {}.
	if add, sub := chainDiff(p, b); !reflect.DeepEqual(add, []int32{4, 8}) || len(sub) != 0 {
		t.Errorf("b: add=%v sub=%v, want add=[4 8] sub=[]", add, sub)
	}
	// I(d) = I(b) - {g} + {a}: Add {0}, Sub {6}.
	if add, sub := chainDiff(p, d); !reflect.DeepEqual(add, []int32{0}) || !reflect.DeepEqual(sub, []int32{6}) {
		t.Errorf("d: add=%v sub=%v, want add=[0] sub=[6]", add, sub)
	}
	if p.Additions != 8 {
		t.Errorf("plan additions = %d, want 8 (Fig. 2c MST weight)", p.Additions)
	}
	if p.ScratchAdditions != 1+3+2+3+1+1 {
		t.Errorf("scratch additions = %d, want 11", p.ScratchAdditions)
	}
	if p.NumSets != 6 {
		t.Errorf("NumSets = %d, want 6", p.NumSets)
	}
	if p.SharedEdges != 3 {
		t.Errorf("SharedEdges = %d, want 3", p.SharedEdges)
	}
	// d_(+) over the three shared edges: (1 + 2 + 2)/3.
	if p.AvgDiff < 1.66 || p.AvgDiff > 1.67 {
		t.Errorf("AvgDiff = %g, want 5/3", p.AvgDiff)
	}
	if r := p.ShareRatio(); r < 0.27 || r > 0.28 {
		t.Errorf("ShareRatio = %g, want 3/11", r)
	}
}

func TestPartitionOfReconstructs(t *testing.T) {
	g := paperGraph(t)
	p, err := BuildPlan(g, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for v := 0; v < g.NumVertices(); v++ {
		if g.InDegree(v) == 0 {
			continue
		}
		shared, resid := p.PartitionOf(g, v)
		union := map[int]bool{}
		for _, x := range shared {
			union[x] = true
		}
		for _, x := range resid {
			if union[x] {
				t.Fatalf("vertex %d: partition blocks overlap at %d", v, x)
			}
			union[x] = true
		}
		if len(union) != g.InDegree(v) {
			t.Fatalf("vertex %d: partition covers %d elements, want %d", v, len(union), g.InDegree(v))
		}
		for _, x := range g.In(v) {
			if !union[x] {
				t.Fatalf("vertex %d: partition misses in-neighbor %d", v, x)
			}
		}
	}
}

// TestPlanNeverWorseThanScratch: sharing can only reduce additions, and the
// plan on disjoint in-neighbor sets degrades gracefully to psum-SR cost
// (the paper's worst-case claim in Proposition 5).
func TestPlanNeverWorseThanScratch(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(40)
		b := graph.NewBuilder(n, 0)
		b.EnsureVertices(n)
		for i := 0; i < rng.Intn(5*n); i++ {
			b.AddEdge(rng.Intn(n), rng.Intn(n))
		}
		g := b.MustBuild()
		p, err := BuildPlan(g, Options{})
		if err != nil {
			return false
		}
		return p.Additions <= p.ScratchAdditions
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}

	// Pairwise-disjoint in-sets: no sharing possible, cost equals scratch.
	g := graph.MustFromEdges(6, [][2]int{{0, 1}, {2, 1}, {3, 4}, {5, 4}})
	p, err := BuildPlan(g, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if p.Additions != p.ScratchAdditions {
		t.Errorf("disjoint sets: additions %d != scratch %d", p.Additions, p.ScratchAdditions)
	}
	if p.SharedEdges != 0 {
		t.Errorf("disjoint sets: SharedEdges = %d, want 0", p.SharedEdges)
	}
}

// TestIdenticalInSetsShareForFree: vertices with identical in-neighbor sets
// (common in copy-model web graphs) cost zero extra additions.
func TestIdenticalInSetsShareForFree(t *testing.T) {
	// Vertices 3 and 4 both have I = {0,1,2}.
	g := graph.MustFromEdges(5, [][2]int{
		{0, 3}, {1, 3}, {2, 3},
		{0, 4}, {1, 4}, {2, 4},
	})
	p, err := BuildPlan(g, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// One set from scratch (2 additions), the twin derived for free.
	if p.Additions != 2 {
		t.Errorf("additions = %d, want 2", p.Additions)
	}
	if p.SharedEdges != 1 || p.AvgDiff != 0 {
		t.Errorf("shared=%d avgDiff=%g, want 1 edge with zero diff", p.SharedEdges, p.AvgDiff)
	}
}

// chainDiff returns the chain view's add and sub lists of vertex v.
func chainDiff(p *Plan, v int) (add, sub []int32) {
	for i, s := range p.ChainSteps {
		if s.Vertex == v {
			return p.ChainDiffs.At(i)
		}
	}
	return nil, nil
}

// TestFig2PlanBytes pins Plan.Bytes on the paper's example: it counts the
// plan's arrays exactly, ids and offsets at 4 bytes.
func TestFig2PlanBytes(t *testing.T) {
	p := mustPlan(t, paperGraph(t), Options{})
	if len(p.Roots) != 3 || len(p.Chains) != 3 || len(p.ChainSteps) != 6 || len(p.TreeSteps) != 6 {
		t.Fatalf("roots %d chains %d steps %d/%d, want 3 3 6/6", len(p.Roots), len(p.Chains), len(p.ChainSteps), len(p.TreeSteps))
	}
	const (
		vertexArrays = (3 + 9 + 9) * 8 // Roots, Parent, TreeParent
		steps        = (6 + 6) * 16    // ChainSteps, TreeSteps
		chains       = 3 * 24
		// Each view: one id per unit of its cost (Additions = TreeWeight =
		// 8) plus one per from-scratch root (3), then Off (7) and Split (6).
		diffs = 2 * (8 + 3 + 7 + 6) * 4
	)
	if got, want := p.Bytes(), int64(vertexArrays+steps+chains+diffs); got != want {
		t.Errorf("Bytes() = %d, want %d", got, want)
	}
}

// TestStepViewsConsistent: the flattened ChainSteps/TreeSteps must cover
// every non-empty set exactly once, reference valid earlier parents, and
// agree with the Parent/TreeParent arrays.
func TestStepViewsConsistent(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(40)
		b := graph.NewBuilder(n, 0)
		b.EnsureVertices(n)
		for i := 0; i < rng.Intn(5*n); i++ {
			b.AddEdge(rng.Intn(n), rng.Intn(n))
		}
		g := b.MustBuild()
		for _, p := range []*Plan{mustPlan(t, g, Options{}), TrivialPlan(g)} {
			if len(p.ChainSteps) != p.NumSets || len(p.TreeSteps) != p.NumSets {
				t.Logf("seed %d: step count %d/%d != sets %d", seed, len(p.ChainSteps), len(p.TreeSteps), p.NumSets)
				return false
			}
			if !checkSteps(t, g, p.ChainSteps, p.Parent, true) {
				return false
			}
			if !checkSteps(t, g, p.TreeSteps, p.TreeParent, false) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func mustPlan(t *testing.T, g *graph.Graph, opt Options) *Plan {
	t.Helper()
	p, err := BuildPlan(g, opt)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func checkSteps(t *testing.T, g *graph.Graph, steps []Step, parent []int, chain bool) bool {
	seen := make(map[int]int) // vertex -> step index
	for i, s := range steps {
		if g.InDegree(s.Vertex) == 0 {
			t.Logf("step %d covers empty-set vertex %d", i, s.Vertex)
			return false
		}
		if _, dup := seen[s.Vertex]; dup {
			t.Logf("vertex %d appears twice in steps", s.Vertex)
			return false
		}
		seen[s.Vertex] = i
		switch {
		case s.Parent < 0:
			if parent[s.Vertex] != -1 {
				t.Logf("step %d: scratch step but parent array says %d", i, parent[s.Vertex])
				return false
			}
		case int(s.Parent) >= i:
			t.Logf("step %d references a later parent %d", i, s.Parent)
			return false
		default:
			pv := steps[s.Parent].Vertex
			if parent[s.Vertex] != pv {
				t.Logf("step %d: parent %d disagrees with array %d", i, pv, parent[s.Vertex])
				return false
			}
			if chain && int(s.Parent) != i-1 {
				t.Logf("chain step %d has non-consecutive parent %d", i, s.Parent)
				return false
			}
		}
	}
	return true
}

// TestChainCostMatchesAdditions: summing the per-step costs reproduces the
// Plan.Additions bookkeeping.
func TestChainCostMatchesAdditions(t *testing.T) {
	g := paperGraph(t)
	p := mustPlan(t, g, Options{})
	total := 0
	for i, s := range p.ChainSteps {
		if s.Parent < 0 {
			total += ScratchCost(g.In(s.Vertex))
		} else {
			add, sub := p.ChainDiffs.At(i)
			total += len(add) + len(sub)
		}
	}
	if total != p.Additions {
		t.Errorf("step cost sum %d != Additions %d", total, p.Additions)
	}
	// And the tree steps reproduce TreeWeight.
	total = 0
	for i, s := range p.TreeSteps {
		if s.Parent < 0 {
			total += ScratchCost(g.In(s.Vertex))
		} else {
			add, sub := p.TreeDiffs.At(i)
			total += len(add) + len(sub)
		}
	}
	if total != p.TreeWeight {
		t.Errorf("tree step cost sum %d != TreeWeight %d", total, p.TreeWeight)
	}
}

// TestLinearizationNeverWorseThanUndo: the chain cost is bounded by the
// tree weight plus the undo cost a branching traversal would pay (every
// shared edge applied and undone at most once more).
func TestLinearizationNeverWorseThanUndo(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(50)
		b := graph.NewBuilder(n, 0)
		b.EnsureVertices(n)
		for i := 0; i < rng.Intn(6*n); i++ {
			b.AddEdge(rng.Intn(n), rng.Intn(n))
		}
		g := b.MustBuild()
		p := mustPlan(t, g, Options{})
		if p.Additions > 2*p.TreeWeight {
			t.Logf("seed %d: chain cost %d > 2x tree weight %d", seed, p.Additions, p.TreeWeight)
			return false
		}
		return p.Additions <= p.ScratchAdditions
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}
