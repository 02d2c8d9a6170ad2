package naive

import (
	"math"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"oipsr/graph"
	"oipsr/internal/numeric"
	"oipsr/internal/simmat"
)

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

func TestDiagonalAlwaysOne(t *testing.T) {
	g := paperGraph(t)
	for _, k := range []int{0, 1, 5} {
		s, err := Compute(g, 0.6, k)
		if err != nil {
			t.Fatal(err)
		}
		for v := 0; v < g.NumVertices(); v++ {
			if s.At(v, v) != 1 {
				t.Errorf("k=%d: s(%d,%d) = %g, want 1", k, v, v, s.At(v, v))
			}
		}
	}
}

func TestEmptyInSetPairsZero(t *testing.T) {
	g := paperGraph(t)
	s, err := Compute(g, 0.6, 5)
	if err != nil {
		t.Fatal(err)
	}
	// f (5), g (6), i (8) have empty in-sets: any pair involving them and a
	// different vertex scores 0.
	for _, v := range []int{5, 6, 8} {
		for u := 0; u < g.NumVertices(); u++ {
			if u == v {
				continue
			}
			if s.At(u, v) != 0 || s.At(v, u) != 0 {
				t.Errorf("s(%d,%d) = %g / %g, want 0 (empty in-set)", u, v, s.At(u, v), s.At(v, u))
			}
		}
	}
}

// TestSiblingsClosedForm: two vertices fed by a single shared source have
// similarity exactly C from the first iteration on.
func TestSiblingsClosedForm(t *testing.T) {
	// 0 -> 1, 0 -> 2.
	g := graph.MustFromEdges(3, [][2]int{{0, 1}, {0, 2}})
	for _, k := range []int{1, 2, 7} {
		s, err := Compute(g, 0.8, k)
		if err != nil {
			t.Fatal(err)
		}
		if got := s.At(1, 2); math.Abs(got-0.8) > 1e-15 {
			t.Errorf("k=%d: s(1,2) = %g, want C=0.8", k, got)
		}
	}
}

// TestHalfSharedSources: I(u)={x,y}, I(v)={x,z} with x,y,z sources gives
// s(u,v) = C/4 exactly (one matching pair of four).
func TestHalfSharedSources(t *testing.T) {
	// x=0 y=1 z=2 u=3 v=4.
	g := graph.MustFromEdges(5, [][2]int{{0, 3}, {1, 3}, {0, 4}, {2, 4}})
	s, err := Compute(g, 0.6, 4)
	if err != nil {
		t.Fatal(err)
	}
	if got := s.At(3, 4); math.Abs(got-0.15) > 1e-15 {
		t.Errorf("s(u,v) = %g, want C/4 = 0.15", got)
	}
}

// TestTwoCycleIsZero: in the 2-cycle a<->b the only in-neighbor pair is
// (b,a) itself, so the score solves s = C*s and stays 0.
func TestTwoCycleIsZero(t *testing.T) {
	g := graph.MustFromEdges(2, [][2]int{{0, 1}, {1, 0}})
	s, err := Compute(g, 0.9, 20)
	if err != nil {
		t.Fatal(err)
	}
	if s.At(0, 1) != 0 {
		t.Errorf("s(0,1) = %g, want 0", s.At(0, 1))
	}
}

// TestFig4WorkedExample reproduces the last two columns of Fig. 4: the
// similarity scores s_{k+1}(x, a) and s_{k+1}(x, c) with C = 0.6 on the
// Fig. 1a network, where the table's partial sums are over s_1 (so the
// output is s_2). Table values are rounded to two decimals.
func TestFig4WorkedExample(t *testing.T) {
	g := paperGraph(t)
	s, err := Compute(g, 0.6, 2)
	if err != nil {
		t.Fatal(err)
	}
	const (
		a, b, c, d, e, h = 0, 1, 2, 3, 4, 7
	)
	want := []struct {
		x      int
		sa, sc float64
	}{
		{a, 1, 0.21},
		{e, 0.15, 0.1},
		{h, 0.17, 0.22},
		{c, 0.21, 1},
		{b, 0.09, 0.06},
		{d, 0.02, 0.02},
	}
	for _, w := range want {
		if got := s.At(w.x, a); math.Abs(got-w.sa) > 0.006 {
			t.Errorf("s_2(%d, a) = %.4f, want %.2f (Fig. 4)", w.x, got, w.sa)
		}
		if got := s.At(w.x, c); math.Abs(got-w.sc) > 0.006 {
			t.Errorf("s_2(%d, c) = %.4f, want %.2f (Fig. 4)", w.x, got, w.sc)
		}
	}
}

// TestPropertyInvariants checks on random graphs: scores in [0,1], symmetric,
// diagonal 1, and monotone non-decreasing in k (Jeh-Widom's convergence
// argument relies on monotonicity).
func TestPropertyInvariants(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(12)
		b := graph.NewBuilder(n, 0)
		b.EnsureVertices(n)
		for i := 0; i < rng.Intn(4*n); i++ {
			b.AddEdge(rng.Intn(n), rng.Intn(n))
		}
		g := b.MustBuild()
		c := 0.3 + 0.6*rng.Float64()
		prev, err := Compute(g, c, 3)
		if err != nil {
			return false
		}
		next, err := Compute(g, c, 4)
		if err != nil {
			return false
		}
		pt := prev.Copy()
		pt.Transpose(1)
		if simmat.MaxDiff(prev, pt) > 1e-12 || slices.ContainsFunc(prev.Data(), func(x float64) bool { return x < -1e-12 || x > 1+1e-12 }) {
			return false
		}
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				if next.At(i, j) < prev.At(i, j)-1e-12 {
					return false // must be monotone non-decreasing
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// TestConvergenceBound checks the Lizorkin accuracy guarantee the paper
// builds on: |s_k - s| <= C^(k+1), with s approximated by a deep iteration.
func TestConvergenceBound(t *testing.T) {
	g := paperGraph(t)
	c := 0.8
	ref, err := Compute(g, c, 80)
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range []int{1, 3, 6, 10} {
		s, err := Compute(g, c, k)
		if err != nil {
			t.Fatal(err)
		}
		maxd := 0.0
		for i := 0; i < g.NumVertices(); i++ {
			for j := 0; j < g.NumVertices(); j++ {
				if d := math.Abs(s.At(i, j) - ref.At(i, j)); d > maxd {
					maxd = d
				}
			}
		}
		if bound := numeric.GeometricTailBound(c, k); maxd > bound {
			t.Errorf("k=%d: max error %g exceeds bound C^(k+1)=%g", k, maxd, bound)
		}
	}
}

func TestBadInputs(t *testing.T) {
	g := paperGraph(t)
	if _, err := Compute(g, 1.5, 3); err == nil {
		t.Error("want error for C > 1")
	}
	if _, err := Compute(g, 0.5, -1); err == nil {
		t.Error("want error for negative K")
	}
	s, err := Compute(g, 0.5, 0)
	if err != nil {
		t.Fatal(err)
	}
	if s.At(0, 0) != 1 || s.At(0, 1) != 0 {
		t.Error("K=0 must return the identity")
	}
}
