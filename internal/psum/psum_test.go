package psum

import (
	"math/rand"
	"testing"
	"testing/quick"

	"oipsr/graph"
	"oipsr/internal/naive"
	"oipsr/internal/simmat"
)

func randomGraph(rng *rand.Rand, n, maxM int) *graph.Graph {
	b := graph.NewBuilder(n, 0)
	b.EnsureVertices(n)
	for i := 0; i < rng.Intn(maxM+1); i++ {
		b.AddEdge(rng.Intn(n), rng.Intn(n))
	}
	return b.MustBuild()
}

// TestMatchesNaive: partial-sums memoization is a pure reorganization of
// Eq. 2 and must agree with the naive oracle.
func TestMatchesNaive(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(15)
		g := randomGraph(rng, n, 4*n)
		c := 0.3 + 0.6*rng.Float64()
		k := 1 + rng.Intn(5)
		want, err := naive.Compute(g, c, k)
		if err != nil {
			return false
		}
		got, _, err := Compute(g, Options{C: c, K: k})
		if err != nil {
			return false
		}
		return simmat.MaxDiff(got, want) < 1e-10
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// TestFewerAddsThanNaive: the whole point of memoization — inner additions
// scale with d*n^2, not d^2*n^2. We check the counter is consistent with
// the analytic count.
func TestAdditionCounting(t *testing.T) {
	g := graph.MustFromEdges(4, [][2]int{{0, 2}, {1, 2}, {0, 3}, {1, 3}})
	// Workers is pinned: the partial-sum buffers are per worker, so AuxBytes
	// would otherwise follow the host's CPU count.
	_, st, err := Compute(g, Options{C: 0.6, K: 1, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	// Two vertices (2, 3) have |I|=2: inner = (2-1)*n = 4 each -> 8.
	if st.InnerAdds != 8 {
		t.Errorf("InnerAdds = %d, want 8", st.InnerAdds)
	}
	// Outer: for a in {2,3}, pairs b in {2,3}\{a} each cost |I(b)|-1 = 1.
	if st.OuterAdds != 2 {
		t.Errorf("OuterAdds = %d, want 2", st.OuterAdds)
	}
	if st.AuxBytes != 32 {
		t.Errorf("AuxBytes = %d, want 8*n = 32", st.AuxBytes)
	}
}

// TestThresholdSieve: sieving clamps small scores to zero and reports them.
func TestThresholdSieve(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	g := randomGraph(rng, 20, 60)
	exact, _, err := Compute(g, Options{C: 0.6, K: 4})
	if err != nil {
		t.Fatal(err)
	}
	sieved, st, err := Compute(g, Options{C: 0.6, K: 4, Threshold: 0.05})
	if err != nil {
		t.Fatal(err)
	}
	if st.SievedPairs == 0 {
		t.Skip("no pairs below threshold on this graph; widen the graph")
	}
	for i := 0; i < g.NumVertices(); i++ {
		for j := 0; j < g.NumVertices(); j++ {
			v := sieved.At(i, j)
			if v != 0 && v < 0.05 {
				t.Fatalf("sieved score %g below threshold survived at (%d,%d)", v, i, j)
			}
			// Sieving only ever reduces scores (monotone operator).
			if v > exact.At(i, j)+1e-12 {
				t.Fatalf("sieved score exceeds exact at (%d,%d): %g > %g", i, j, v, exact.At(i, j))
			}
		}
	}
}

func TestDiagAndEmptyRows(t *testing.T) {
	// Vertex 0 has an empty in-set; 1, 2 fed by 0.
	g := graph.MustFromEdges(3, [][2]int{{0, 1}, {0, 2}})
	s, _, err := Compute(g, Options{C: 0.8, K: 3})
	if err != nil {
		t.Fatal(err)
	}
	for v := 0; v < 3; v++ {
		if s.At(v, v) != 1 {
			t.Errorf("diag(%d) = %g", v, s.At(v, v))
		}
	}
	if s.At(0, 1) != 0 || s.At(2, 0) != 0 {
		t.Error("pairs with empty in-set must be zero")
	}
	if s.At(1, 2) != 0.8 {
		t.Errorf("s(1,2) = %g, want C = 0.8 (shared single source)", s.At(1, 2))
	}
}

func TestBadInputs(t *testing.T) {
	g := graph.MustFromEdges(2, [][2]int{{0, 1}})
	if _, _, err := Compute(g, Options{C: 0, K: 1}); err == nil {
		t.Error("want error for C=0")
	}
	if _, _, err := Compute(g, Options{C: 0.5, K: -2}); err == nil {
		t.Error("want error for K<0")
	}
	s, _, err := Compute(g, Options{C: 0.5, K: 0})
	if err != nil {
		t.Fatal(err)
	}
	if s.At(0, 0) != 1 || s.At(0, 1) != 0 {
		t.Error("K=0 must return identity")
	}
}
