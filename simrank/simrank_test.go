package simrank

import (
	"math"
	"testing"

	"oipsr/graph"
	"oipsr/graph/gen"
)

func testGraph() *graph.Graph {
	return gen.WebGraph(120, 8, 42)
}

// TestAllAlgorithmsRun: every engine completes through the facade and
// produces a sane score matrix.
func TestAllAlgorithmsRun(t *testing.T) {
	g := testGraph()
	for _, alg := range []Algorithm{OIPSR, OIPDSR, PsumSR, Naive, MtxSR, PRank, MonteCarlo} {
		s, st, err := Compute(g, Options{Algorithm: alg, C: 0.6, K: 4, Seed: 1})
		if err != nil {
			t.Fatalf("%s: %v", alg, err)
		}
		if s.N() != g.NumVertices() {
			t.Errorf("%s: N = %d, want %d", alg, s.N(), g.NumVertices())
		}
		if st.Algorithm != alg {
			t.Errorf("stats algorithm = %q, want %q", st.Algorithm, alg)
		}
		if st.ComputeTime <= 0 {
			t.Errorf("%s: compute time not recorded", alg)
		}
	}
}

// TestGeometricEnginesAgree: OIP-SR, psum-SR and naive are the same
// mathematical iteration.
func TestGeometricEnginesAgree(t *testing.T) {
	g := testGraph()
	var ref *Scores
	for i, alg := range []Algorithm{Naive, PsumSR, OIPSR} {
		s, _, err := Compute(g, Options{Algorithm: alg, C: 0.6, K: 5})
		if err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			ref = s
			continue
		}
		if d := s.MaxDiff(ref); d > 1e-9 {
			t.Errorf("%s differs from naive by %g", alg, d)
		}
	}
}

func TestDefaultsAreOIPSRWithPaperParams(t *testing.T) {
	g := gen.CoauthorGraph(60, 3, 1)
	_, st, err := Compute(g, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if st.Algorithm != OIPSR {
		t.Errorf("default algorithm = %q", st.Algorithm)
	}
	if st.Iterations != 13 { // C=0.6, eps=1e-3
		t.Errorf("default iterations = %d, want 13", st.Iterations)
	}
}

func TestUnknownAlgorithmRejected(t *testing.T) {
	g := gen.CoauthorGraph(20, 3, 1)
	if _, _, err := Compute(g, Options{Algorithm: "page-rank"}); err == nil {
		t.Fatal("want error for unknown algorithm")
	}
}

func TestTopKOrderingAndExclusion(t *testing.T) {
	// 0 -> {1,2,3}: vertices 1,2,3 are mutually similar with score C.
	g := graph.MustFromEdges(4, [][2]int{{0, 1}, {0, 2}, {0, 3}})
	s, _, err := Compute(g, Options{C: 0.8, K: 3})
	if err != nil {
		t.Fatal(err)
	}
	top := s.TopK(1, 10)
	if len(top) != 3 {
		t.Fatalf("TopK length = %d, want 3 (query excluded)", len(top))
	}
	if top[0].Vertex != 2 || top[1].Vertex != 3 {
		t.Errorf("TopK = %+v, want vertices 2,3 first (ties by id)", top)
	}
	if math.Abs(top[0].Score-0.8) > 1e-12 {
		t.Errorf("top score = %g, want 0.8", top[0].Score)
	}
	if top[2].Vertex != 0 || top[2].Score != 0 {
		t.Errorf("last = %+v, want vertex 0 with score 0", top[2])
	}
}

func TestEstimateIterationsFig6f(t *testing.T) {
	est, err := EstimateIterations(0.8, 1e-4)
	if err != nil {
		t.Fatal(err)
	}
	if est.Conventional != 41 || est.Differential != 6 || est.Lambert != 7 || !est.LogValid || est.Log != 7 {
		t.Errorf("estimates = %+v, want {41 6 7 7 true}", est)
	}
	if _, err := EstimateIterations(2, 0.1); err == nil {
		t.Error("want error for C out of range")
	}
	if _, err := EstimateIterations(0.5, 0); err == nil {
		t.Error("want error for eps out of range")
	}
}

func TestErrorBoundsExported(t *testing.T) {
	if got := GeometricErrorBound(0.8, 1); math.Abs(got-0.64) > 1e-15 {
		t.Errorf("geometric bound = %g, want C^2 = 0.64", got)
	}
	if got := DifferentialErrorBound(0.8, 1); math.Abs(got-0.32) > 1e-15 {
		t.Errorf("differential bound = %g, want C^2/2 = 0.32", got)
	}
}

// TestDSRPreservesTopK: the Exp-4 claim through the public API — top-10 of
// OIP-DSR matches OIP-SR on a co-authorship graph for high-degree queries.
func TestDSRPreservesTopK(t *testing.T) {
	g := gen.CoauthorGraph(200, 3, 7)
	sr, _, err := Compute(g, Options{Algorithm: OIPSR, C: 0.6, Eps: 1e-6})
	if err != nil {
		t.Fatal(err)
	}
	ds, _, err := Compute(g, Options{Algorithm: OIPDSR, C: 0.6, Eps: 1e-6})
	if err != nil {
		t.Fatal(err)
	}
	query := 0
	best := 0
	for v := 0; v < g.NumVertices(); v++ {
		if d := g.InDegree(v); d > best {
			best, query = d, v
		}
	}
	a := make([]int, 0, 10)
	for _, r := range sr.TopK(query, 10) {
		a = append(a, r.Vertex)
	}
	b := make([]int, 0, 10)
	for _, r := range ds.TopK(query, 10) {
		b = append(b, r.Vertex)
	}
	if ov := TopKOverlap(a, b); ov < 0.8 {
		t.Errorf("top-10 overlap = %g, want >= 0.8", ov)
	}
}

func TestMetricsReexports(t *testing.T) {
	rel := GradeByRank(4, []int{2, 0}, []int{1, 2})
	if rel[2] != 2 || rel[0] != 1 || rel[1] != 0 {
		t.Errorf("GradeByRank = %v", rel)
	}
	if NDCG(rel, []int{2, 0, 1, 3}, 2) != 1 {
		t.Error("perfect NDCG != 1")
	}
	if KendallTau([]float64{1, 2}, []float64{3, 4}) != 1 {
		t.Error("KendallTau broken")
	}
	if SpearmanRho([]float64{1, 2}, []float64{3, 4}) != 1 {
		t.Error("SpearmanRho broken")
	}
	if Inversions([]int{1, 2}, []int{2, 1}) != 1 {
		t.Error("Inversions broken")
	}
}

func TestStatsFieldsByAlgorithm(t *testing.T) {
	g := testGraph()
	_, st, err := Compute(g, Options{Algorithm: OIPSR, C: 0.6, K: 3})
	if err != nil {
		t.Fatal(err)
	}
	if st.InnerAdds == 0 || st.ShareRatio <= 0 || st.NumSets == 0 {
		t.Errorf("OIPSR sharing stats missing: %+v", st)
	}
	_, st, err = Compute(g, Options{Algorithm: MtxSR, C: 0.6, Rank: 20, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	if st.Rank != 20 || st.AuxBytes == 0 {
		t.Errorf("MtxSR stats missing: %+v", st)
	}
	_, st, err = Compute(g, Options{Algorithm: PsumSR, C: 0.6, K: 3, Threshold: 0.01})
	if err != nil {
		t.Fatal(err)
	}
	if st.SievedPairs == 0 {
		t.Error("PsumSR sieving stats missing")
	}
}

// TestPRankLambdaOneMatchesSimRank: the facade's P-Rank with lambda = 1 is
// exactly SimRank.
func TestPRankLambdaOneMatchesSimRank(t *testing.T) {
	g := testGraph()
	sr, _, err := Compute(g, Options{Algorithm: OIPSR, C: 0.6, K: 5})
	if err != nil {
		t.Fatal(err)
	}
	pr, _, err := Compute(g, Options{Algorithm: PRank, C: 0.6, COut: 0.6, Lambda: 1, K: 5})
	if err != nil {
		t.Fatal(err)
	}
	if d := pr.MaxDiff(sr); d > 1e-9 {
		t.Errorf("P-Rank(lambda=1) differs from SimRank by %g", d)
	}
}

// TestMonteCarloApproximatesOIP: the sampling estimator lands near the
// iterative scores on the shared test workload.
func TestMonteCarloApproximatesOIP(t *testing.T) {
	g := testGraph()
	exact, _, err := Compute(g, Options{Algorithm: OIPSR, C: 0.6, K: 11})
	if err != nil {
		t.Fatal(err)
	}
	mc, st, err := Compute(g, Options{Algorithm: MonteCarlo, C: 0.6, K: 11, Walks: 1500, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if st.Iterations != 1500 {
		t.Errorf("walks = %d, want 1500", st.Iterations)
	}
	var sum float64
	var cnt int
	for i := 0; i < g.NumVertices(); i++ {
		for j := i + 1; j < g.NumVertices(); j++ {
			sum += mathAbs(mc.Score(i, j) - exact.Score(i, j))
			cnt++
		}
	}
	if mae := sum / float64(cnt); mae > 0.03 {
		t.Errorf("Monte Carlo mean absolute error %g, want <= 0.03", mae)
	}
}

func mathAbs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}

// TestRowDoesNotAliasBlockScores: OIP-SR and OIP-DSR scores live in a block
// over the vertices with a non-empty in-set, so Row hands out a fresh
// slice — writing into it, on a row inside the block and on one outside
// it, leaves Score unchanged — and Close releases their tiled form.
func TestRowDoesNotAliasBlockScores(t *testing.T) {
	g := testGraph()
	inside, outside := -1, -1
	for v := 0; v < g.NumVertices(); v++ {
		if g.InDegree(v) > 0 && inside < 0 {
			inside = v
		}
		if g.InDegree(v) == 0 && outside < 0 {
			outside = v
		}
	}
	if inside < 0 || outside < 0 {
		t.Fatalf("test graph lacks a vertex with (%d) or without (%d) in-edges", inside, outside)
	}
	for _, alg := range []Algorithm{OIPSR, OIPDSR} {
		for _, block := range []int{0, 16} {
			s, _, err := Compute(g, Options{Algorithm: alg, C: 0.6, K: 4, BlockSize: block})
			if err != nil {
				t.Fatal(err)
			}
			for _, a := range []int{inside, outside} {
				want := make([]float64, s.N())
				for b := range want {
					want[b] = s.Score(a, b)
				}
				row := s.Row(a)
				for b := range row {
					row[b] = -1
				}
				for b, w := range want {
					if got := s.Score(a, b); math.Float64bits(got) != math.Float64bits(w) {
						t.Fatalf("%s block=%d: writing Row(%d) moved Score(%d,%d) from %v to %v", alg, block, a, a, b, w, got)
					}
				}
			}
			if err := s.Close(); err != nil {
				t.Errorf("%s block=%d: Close: %v", alg, block, err)
			}
		}
	}
}
