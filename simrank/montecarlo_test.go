package simrank

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"slices"
	"testing"

	"oipsr/graph"
	"oipsr/graph/gen"
	"oipsr/internal/naive"
	"oipsr/internal/simmat"
	"oipsr/internal/walkindex"
	"oipsr/simrank/query"
)

// monteCarlo runs the table's monte-carlo engine.
func monteCarlo(ctx context.Context, g *graph.Graph, o Options) (simmat.Source, *Stats, error) {
	return engines[MonteCarlo].compute(ctx, g, o)
}

// siblings is 0->1, 0->2: both walkers of 1 and 2 step onto 0 at step 1.
func siblings() *graph.Graph { return graph.MustFromEdges(3, [][2]int{{0, 1}, {0, 2}}) }

// TestMonteCarloIsTheWalkIndex: every row of the engine is the walk
// index's single-source answer under the same options, bit for bit, at any
// worker count, and the matrix is exactly symmetric.
func TestMonteCarloIsTheWalkIndex(t *testing.T) {
	ctx := context.Background()
	for name, g := range map[string]*graph.Graph{
		"web":      gen.WebGraph(120, 6, 3),
		"citation": gen.CitationGraph(150, 4, 9),
		"siblings": siblings(),
	} {
		n := g.NumVertices()
		ix, err := query.BuildIndex(g, query.Options{Walks: 37, Seed: 5})
		if err != nil {
			t.Fatal(err)
		}
		for _, workers := range []int{1, 3} {
			s, st, err := monteCarlo(ctx, g, Options{Walks: 37, Seed: 5, Workers: workers})
			if err != nil {
				t.Fatal(err)
			}
			if st.Iterations != 37 || st.AuxBytes != ix.Bytes()+ix.ForestBytes() {
				t.Errorf("%s workers=%d: Iterations %d, AuxBytes %d; want 37, %d",
					name, workers, st.Iterations, st.AuxBytes, ix.Bytes()+ix.ForestBytes())
			}
			for q := 0; q < n; q++ {
				want, err := ix.SingleSource(ctx, q)
				if err != nil {
					t.Fatal(err)
				}
				for v := 0; v < n; v++ {
					if got := s.At(q, v); math.Float64bits(got) != math.Float64bits(want[v]) {
						t.Fatalf("%s workers=%d: s(%d,%d) = %v, walk index says %v", name, workers, q, v, got, want[v])
					}
					if math.Float64bits(s.At(q, v)) != math.Float64bits(s.At(v, q)) {
						t.Fatalf("%s workers=%d: s(%d,%d) = %v but s(%d,%d) = %v", name, workers, q, v, s.At(q, v), v, q, s.At(v, q))
					}
				}
			}
		}
	}
}

// TestMonteCarloInvariants: estimates are exactly symmetric, in [0,1], and
// the diagonal is 1.
func TestMonteCarloInvariants(t *testing.T) {
	s, _, err := monteCarlo(context.Background(), gen.WebGraph(80, 6, 9), Options{Walks: 40, Seed: 6})
	if err != nil {
		t.Fatal(err)
	}
	m, ok := s.(*simmat.Matrix)
	if !ok {
		t.Fatalf("monte-carlo returned %T, want *simmat.Matrix", s)
	}
	mt := m.Copy()
	mt.Transpose(1)
	if d := simmat.MaxDiff(m, mt); d != 0 {
		t.Errorf("asymmetry %g", d)
	}
	if lo, hi := slices.Min(m.Data()), slices.Max(m.Data()); lo < -1e-12 || hi > 1+1e-12 {
		t.Errorf("entries in [%g,%g], outside [0,1]", lo, hi)
	}
	for v := 0; v < m.N(); v++ {
		if m.At(v, v) != 1 {
			t.Errorf("diag(%d) = %g", v, m.At(v, v))
		}
	}
}

// TestMonteCarloParallelBitIdentical: the worker count splits the index
// build and the rows, never a walk, so every worker count gives the serial
// matrix bit for bit.
func TestMonteCarloParallelBitIdentical(t *testing.T) {
	for name, g := range map[string]*graph.Graph{
		"web":      gen.WebGraph(100, 6, 3),
		"citation": gen.CitationGraph(120, 4, 9),
	} {
		p := Options{C: 0.6, K: 5, Walks: 30, Seed: 7, Workers: 1}
		want, _, err := monteCarlo(context.Background(), g, p)
		if err != nil {
			t.Fatal(err)
		}
		for _, workers := range []int{2, 4} {
			p.Workers = workers
			got, _, err := monteCarlo(context.Background(), g, p)
			if err != nil {
				t.Fatal(err)
			}
			if d, err := simmat.MaxDiffSource(want, got); err != nil || d != 0 {
				t.Errorf("%s workers=%d: estimates differ by %g (err %v), want bit-identical", name, workers, d, err)
			}
		}
	}
}

// TestMonteCarloApproximatesExact: the estimate converges to the iterative
// scores. The coupled-walk estimator carries a small coalescence bias, so
// the tolerance is statistical, not machine precision.
func TestMonteCarloApproximatesExact(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	b := graph.NewBuilder(25, 0)
	b.EnsureVertices(25)
	for i := 0; i < 80; i++ {
		b.AddEdge(rng.Intn(25), rng.Intn(25))
	}
	g := b.MustBuild()
	exact, err := naive.Compute(g, 0.6, 15)
	if err != nil {
		t.Fatal(err)
	}
	est, _, err := monteCarlo(context.Background(), g, Options{C: 0.6, K: 15, Walks: 3000, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	// Mean absolute error over all pairs.
	var sum float64
	var cnt int
	for i := 0; i < 25; i++ {
		for j := 0; j < 25; j++ {
			if i == j {
				continue
			}
			sum += math.Abs(est.At(i, j) - exact.At(i, j))
			cnt++
		}
	}
	if mae := sum / float64(cnt); mae > 0.03 {
		t.Errorf("mean absolute error %g, want <= 0.03 with 3000 fingerprints", mae)
	}
}

// TestMonteCarloExactCases: graphs whose coupled walks are deterministic,
// so the estimate is exact whatever the seed.
func TestMonteCarloExactCases(t *testing.T) {
	for _, tc := range []struct {
		name  string
		g     *graph.Graph
		p     Options
		pairs [][2]int
		want  float64
	}{
		// Both walkers meet on 0 at step 1 in every fingerprint. C is a
		// power of two, so the mean of R equal weights rounds to C exactly.
		{"siblings", siblings(), Options{C: 0.5, K: 5, Walks: 10, Seed: 1}, [][2]int{{1, 2}}, 0.5},
		// The walkers of the 2-cycle swap places forever.
		{"two-cycle", graph.MustFromEdges(2, [][2]int{{0, 1}, {1, 0}}),
			Options{C: 0.9, K: 50, Walks: 20, Seed: 2}, [][2]int{{0, 1}}, 0},
		// 0 -> 1 with 2 isolated: the walks of 0 and 2 die at step 1, and
		// a dead walker meets nobody.
		{"dead-walker", graph.MustFromEdges(3, [][2]int{{0, 1}}),
			Options{C: 0.6, K: 10, Walks: 25, Seed: 3}, [][2]int{{0, 1}, {0, 2}, {1, 2}}, 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s, _, err := monteCarlo(context.Background(), tc.g, tc.p)
			if err != nil {
				t.Fatal(err)
			}
			for _, pr := range tc.pairs {
				if got := s.At(pr[0], pr[1]); got != tc.want {
					t.Errorf("s(%d,%d) = %v, want exactly %v", pr[0], pr[1], got, tc.want)
				}
			}
		})
	}
}

// TestMonteCarloRejectsBadOptions: out-of-range damping, horizon,
// accuracy, and walk or horizon counts past the walk hash's 16-bit fields.
func TestMonteCarloRejectsBadOptions(t *testing.T) {
	g := graph.MustFromEdges(2, [][2]int{{0, 1}})
	for _, p := range []Options{{C: 1}, {K: -1}, {Eps: 2}, {Walks: 1 << 16}, {K: 1 << 16}} {
		if _, _, err := monteCarlo(context.Background(), g, p); err == nil {
			t.Errorf("%+v: want an error", p)
		}
	}
}

// TestMonteCarloSeed: the same seed gives the same matrix, another seed a
// different one.
func TestMonteCarloSeed(t *testing.T) {
	g := gen.CitationGraph(60, 3, 5)
	run := func(seed int64) simmat.Source {
		s, _, err := monteCarlo(context.Background(), g, Options{Walks: 50, Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	a := run(42)
	if d, err := simmat.MaxDiffSource(a, run(42)); err != nil || d != 0 {
		t.Errorf("same seed: estimates differ by %g (err %v)", d, err)
	}
	if d, err := simmat.MaxDiffSource(a, run(43)); err != nil || d == 0 {
		t.Errorf("different seeds: estimates differ by %g (err %v), want a difference", d, err)
	}
}

// TestCancelledMonteCarloCompute: a cancelled ctx ends Compute with its
// error.
func TestCancelledMonteCarloCompute(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, _, err := monteCarlo(ctx, gen.WebGraph(60, 5, 2), Options{}); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

// TestWalkIndexPrefixIdentity: fingerprints 0…R′−1 of an R-walk index are
// the R′-walk index, because a walk step hashes only (seed, fingerprint,
// step, vertex). So the monte-carlo engine at R′ walks reads exactly the
// first R′ fingerprints of any larger index.
func TestWalkIndexPrefixIdentity(t *testing.T) {
	g := gen.WebGraph(120, 6, 3)
	big, err := walkindex.Build(g, walkindex.Options{Walks: 100, Seed: 5}, 0, g.NumVertices())
	if err != nil {
		t.Fatal(err)
	}
	small, err := walkindex.Build(g, walkindex.Options{Walks: 37, Seed: 5}, 0, g.NumVertices())
	if err != nil {
		t.Fatal(err)
	}
	for v := 0; v < g.NumVertices(); v++ {
		for fp := 0; fp < 37; fp++ {
			if a, b := big.Walk(nil, v, fp), small.Walk(nil, v, fp); !slices.Equal(a, b) {
				t.Fatalf("vertex %d fingerprint %d: %v in the 100-walk index, %v in the 37-walk one", v, fp, a, b)
			}
		}
	}
}

// TestWalkIndexConvergesToOIPSRKIterate: the walk index's estimate of
// s(q, v) is the mean of R independent coupled-walk scores c^τ — τ ≤ K the
// first step the two walkers meet, 0 if they never do within the index's
// horizon K — each in [0, c], and their expectation is exactly the K-step
// SimRank that the paper's OIP-SR sweep computes in K iterations. So on
// sweep-web's graph (499 non-empty in-sets), against OIP-SR at the index's
// own horizon, the largest error over P = 60 sources × every other target
// stays inside Hoeffding's bound with a union bound over the pairs,
// c·√(ln(2P/δ)/2R) at δ = 1e-6, with no truncation term, at every R; and it
// shrinks like 1/√R: sixteen times the walks at least halve it.
func TestWalkIndexConvergesToOIPSRKIterate(t *testing.T) {
	const c, eps, delta = 0.6, 1e-3, 1e-6
	g := gen.WebGraph(1500, 11, 1)
	n := g.NumVertices()
	sources := make([]int, 60)
	for i := range sources {
		sources[i] = i * n / len(sources)
	}
	pairs := float64(len(sources) * (n - 1))
	ctx := context.Background()
	var ref *Scores
	worst := map[int]float64{}
	for _, r := range []int{25, 100, 400, 1600} {
		ix, err := query.BuildIndex(g, query.Options{C: c, Eps: eps, Walks: r, Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		if ref == nil {
			if ref, _, err = Compute(g, Options{Algorithm: OIPSR, C: c, K: ix.Horizon()}); err != nil {
				t.Fatal(err)
			}
		}
		for _, q := range sources {
			est, err := ix.SingleSource(ctx, q)
			if err != nil {
				t.Fatal(err)
			}
			for v, e := range est {
				if v != q {
					worst[r] = max(worst[r], math.Abs(e-ref.Score(q, v)))
				}
			}
		}
		if bound := c * math.Sqrt(math.Log(2*pairs/delta)/(2*float64(r))); worst[r] > bound {
			t.Errorf("R = %d: max |estimate - OIP-SR K-iterate| = %.4g over %.0f pairs, Hoeffding bound %.4g", r, worst[r], pairs, bound)
		}
	}
	if worst[1600] > worst[100]/2 {
		t.Errorf("max error %.4g at R = 1600 is more than half the %.4g at R = 100", worst[1600], worst[100])
	}
	t.Logf("max error by R: %v", worst)
}
