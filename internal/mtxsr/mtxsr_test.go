package mtxsr

import (
	"math/rand"
	"testing"

	"oipsr/graph"
	"oipsr/graph/gen"
	"oipsr/internal/matrixform"
	"oipsr/internal/simmat"
)

func randomGraph(rng *rand.Rand, n, m int) *graph.Graph {
	b := graph.NewBuilder(n, m)
	b.EnsureVertices(n)
	for i := 0; i < m; i++ {
		b.AddEdge(rng.Intn(n), rng.Intn(n))
	}
	return b.MustBuild()
}

// TestFullRankRecoversSeries: with rank = n the SVD is exact and mtx-SR must
// reproduce the geometric series Eq. 12 (deep truncation as reference).
func TestFullRankRecoversSeries(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 5; trial++ {
		n := 4 + rng.Intn(8)
		g := randomGraph(rng, n, 3*n)
		want, err := matrixform.GeometricSum(g, 0.6, 120)
		if err != nil {
			t.Fatal(err)
		}
		got, st, err := Compute(g, Options{C: 0.6, Rank: n, PowerIters: 40, Seed: int64(trial)})
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if d := simmat.MaxDiff(got, want); d > 1e-6 {
			t.Errorf("trial %d (n=%d): full-rank error %g (solve iters %d, residual %g)",
				trial, n, d, st.SolveIters, st.Residual)
		}
	}
}

// TestLowRankApproximatesOnStructuredGraph: on a boilerplate web graph the
// transition structure is genuinely low-rank, so a small rank captures most
// of the similarity mass.
func TestLowRankApproximatesOnStructuredGraph(t *testing.T) {
	g := gen.WebGraph(150, 9, 5)
	want, err := matrixform.GeometricSum(g, 0.6, 60)
	if err != nil {
		t.Fatal(err)
	}
	got, _, err := Compute(g, Options{C: 0.6, Rank: 60, PowerIters: 12, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if d := simmat.MaxDiff(got, want); d > 0.05 {
		t.Errorf("rank-60 approximation error %g, want <= 0.05 on a low-rank graph", d)
	}
}

// TestErrorShrinksWithRank: the truncation error decreases (weakly) as the
// rank grows — the knob Li et al. trade accuracy with.
func TestErrorShrinksWithRank(t *testing.T) {
	g := gen.CoauthorGraph(80, 3, 9)
	want, err := matrixform.GeometricSum(g, 0.6, 60)
	if err != nil {
		t.Fatal(err)
	}
	prevErr := -1.0
	for _, r := range []int{5, 20, 80} {
		got, _, err := Compute(g, Options{C: 0.6, Rank: r, PowerIters: 25, Seed: 3})
		if err != nil {
			t.Fatalf("rank %d: %v", r, err)
		}
		e := simmat.MaxDiff(got, want)
		if prevErr >= 0 && e > prevErr+0.02 {
			t.Errorf("error grew with rank: %g -> %g", prevErr, e)
		}
		prevErr = e
	}
	if prevErr > 1e-4 {
		t.Errorf("full-rank error %g, want near zero", prevErr)
	}
}

// TestMemoryDominatedByU: the n x r factors dominate, the behaviour behind
// the paper's Fig. 6d observation that mtx-SR memory explodes.
func TestMemoryDominatedByU(t *testing.T) {
	g := gen.CoauthorGraph(200, 3, 1)
	_, st, err := Compute(g, Options{C: 0.6, Rank: 40, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if st.AuxBytes < int64(200*40*8) {
		t.Errorf("AuxBytes = %d, want at least n*r*8 = %d", st.AuxBytes, 200*40*8)
	}
	if st.SVDTime <= 0 || st.SolveTime <= 0 {
		t.Error("phase times not recorded")
	}
}

func TestDefaultRankSqrtN(t *testing.T) {
	g := gen.CoauthorGraph(100, 3, 2)
	_, st, err := Compute(g, Options{C: 0.6, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	if st.Rank != 10 {
		t.Errorf("default rank = %d, want ceil(sqrt(100)) = 10", st.Rank)
	}
}

func TestBadOptions(t *testing.T) {
	g := graph.MustFromEdges(3, [][2]int{{0, 1}, {1, 2}})
	if _, _, err := Compute(g, Options{C: 1.0}); err == nil {
		t.Error("want error for C = 1")
	}
	if _, _, err := Compute(g, Options{C: 0.5, Rank: 99}); err == nil {
		t.Error("want error for rank > n")
	}
}

// TestSymmetry: the output S is symmetric by construction (U M U^T with M
// symmetric up to the solve tolerance).
func TestSymmetry(t *testing.T) {
	g := gen.WebGraph(100, 8, 13)
	s, _, err := Compute(g, Options{C: 0.6, Rank: 30, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	st := s.Copy()
	st.Transpose(1)
	if d := simmat.MaxDiff(s, st); d > 1e-8 {
		t.Errorf("asymmetry %g > 1e-8", d)
	}
}

// TestParallelEquivalence pins the Workers contract: every stage of the
// pipeline (operator applies inside the SVD, the dense matmuls, the output
// materialization) assigns workers disjoint output rows with
// partition-independent per-row arithmetic, so scores and stats must be
// bit-identical for every worker count.
func TestParallelEquivalence(t *testing.T) {
	g := gen.WebGraph(70, 5, 4)
	base, baseStats, err := Compute(g, Options{C: 0.6, Rank: 12, Seed: 3, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{2, 3, 8} {
		m, st, err := Compute(g, Options{C: 0.6, Rank: 12, Seed: 3, Workers: workers})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if d := simmat.MaxDiff(base, m); d != 0 {
			t.Fatalf("workers=%d: max diff %g, want bit-identical", workers, d)
		}
		if st.SolveIters != baseStats.SolveIters || st.Residual != baseStats.Residual || st.Rank != baseStats.Rank {
			t.Fatalf("workers=%d: stats %+v differ from serial %+v", workers, st, baseStats)
		}
	}
}
