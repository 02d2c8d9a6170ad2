package dsr

import (
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"
	"testing/quick"

	"oipsr/graph"
	"oipsr/graph/gen"
	"oipsr/internal/core"
	"oipsr/internal/matrixform"
	"oipsr/internal/numeric"
	"oipsr/internal/simmat"
)

// maxDiff is simmat.MaxDiffSource for tests: the engine returns expanded
// blocks, the oracles dense matrices.
func maxDiff(t testing.TB, a, b simmat.Source) float64 {
	t.Helper()
	d, err := simmat.MaxDiffSource(a, b)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func randomGraph(rng *rand.Rand, n, maxM int) *graph.Graph {
	b := graph.NewBuilder(n, 0)
	b.EnsureVertices(n)
	for i := 0; i < rng.Intn(maxM+1); i++ {
		b.AddEdge(rng.Intn(n), rng.Intn(n))
	}
	return b.MustBuild()
}

// TestMatchesExponentialSeries is the central correctness property: the
// iteration Eq. 15 must equal the truncated series Eq. 13 term by term
// ("the value of S^_k equals the sum of the first k terms", Section IV).
func TestMatchesExponentialSeries(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(15)
		g := randomGraph(rng, n, 4*n)
		c := 0.3 + float64(0.6*rng.Float64())
		k := 1 + rng.Intn(7) // K=0 means "derive from Eps" in Options
		want, err := matrixform.ExponentialSum(g, c, k)
		if err != nil {
			return false
		}
		got, _, err := Compute(g, Options{C: c, K: k})
		if err != nil {
			t.Logf("seed %d: %v", seed, err)
			return false
		}
		if d := maxDiff(t, got, want); d > 1e-10 {
			t.Logf("seed %d: max diff %g from exponential series", seed, d)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// TestSharingDoesNotChangeScores: OIP sharing is a reorganization; disabling
// it must yield identical values.
func TestSharingDoesNotChangeScores(t *testing.T) {
	g := gen.WebGraph(200, 9, 11)
	a, _, err := Compute(g, Options{C: 0.8, K: 6})
	if err != nil {
		t.Fatal(err)
	}
	b, _, err := Compute(g, Options{C: 0.8, K: 6, DisableSharing: true})
	if err != nil {
		t.Fatal(err)
	}
	if d := maxDiff(t, a, b); d > 1e-10 {
		t.Errorf("sharing changed scores by %g", d)
	}
}

// TestSharingSavesWork: with sharing enabled the inner additions drop.
func TestSharingSavesWork(t *testing.T) {
	g := gen.WebGraph(200, 9, 11)
	_, shared, err := Compute(g, Options{C: 0.8, K: 6})
	if err != nil {
		t.Fatal(err)
	}
	_, scratch, err := Compute(g, Options{C: 0.8, K: 6, DisableSharing: true})
	if err != nil {
		t.Fatal(err)
	}
	if shared.InnerAdds >= scratch.InnerAdds {
		t.Errorf("inner adds with sharing %d >= without %d", shared.InnerAdds, scratch.InnerAdds)
	}
	if shared.OuterAdds >= scratch.OuterAdds {
		t.Errorf("outer adds with sharing %d >= without %d", shared.OuterAdds, scratch.OuterAdds)
	}
}

// TestEpsDerivesFig6fIterations: requesting accuracies 1e-2..1e-6 at C=0.8
// must run exactly the OIP-DSR iteration counts of Fig. 6f.
func TestEpsDerivesFig6fIterations(t *testing.T) {
	g := gen.CoauthorGraph(120, 3, 2)
	want := map[float64]int{1e-2: 4, 1e-3: 5, 1e-4: 6, 1e-5: 7, 1e-6: 8}
	for eps, k := range want {
		_, st, err := Compute(g, Options{C: 0.8, Eps: eps})
		if err != nil {
			t.Fatal(err)
		}
		if st.Iterations != k {
			t.Errorf("eps=%g: ran %d iterations, want %d", eps, st.Iterations, k)
		}
	}
}

// TestErrorBoundProposition7: |S^_k - S^| <= C^(k+1)/(k+1)! against a
// deep-iteration reference, through the full OIP-DSR path.
func TestErrorBoundProposition7(t *testing.T) {
	g := gen.CitationGraph(150, 4, 3)
	c := 0.8
	ref, _, err := Compute(g, Options{C: c, K: 30})
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range []int{0, 1, 2, 4, 6, 9} {
		s, _, err := Compute(g, Options{C: c, K: k})
		if err != nil {
			t.Fatal(err)
		}
		if d, bound := maxDiff(t, s, ref), numeric.ExponentialTailBound(c, k); d > bound+1e-15 {
			t.Errorf("k=%d: error %g exceeds Proposition 7 bound %g", k, d, bound)
		}
	}
}

// kendallTau computes the rank correlation between two score vectors over
// the same candidate set (used for the relative-order claim of Exp-4).
func kendallTau(a, b []float64) float64 {
	n := len(a)
	concordant, discordant := 0, 0
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			pa, pb := a[i]-a[j], b[i]-b[j]
			switch {
			case pa*pb > 0:
				concordant++
			case pa*pb < 0:
				discordant++
			}
		}
	}
	if concordant+discordant == 0 {
		return 1
	}
	return float64(concordant-discordant) / float64(concordant+discordant)
}

// TestPreservesRelativeOrder verifies the paper's headline quality claim
// (Section IV, Exp-4): the differential model fairly preserves the relative
// order of conventional SimRank scores. We require high Kendall tau between
// the per-query rankings of converged OIP-SR and OIP-DSR.
func TestPreservesRelativeOrder(t *testing.T) {
	g := gen.CoauthorGraph(250, 3, 8)
	sr, _, err := core.Compute(g, core.Options{C: 0.6, Eps: 1e-6})
	if err != nil {
		t.Fatal(err)
	}
	ds, _, err := Compute(g, Options{C: 0.6, Eps: 1e-6})
	if err != nil {
		t.Fatal(err)
	}
	// Pick the 5 highest-degree query vertices, rank all others.
	type vd struct{ v, d int }
	var vds []vd
	for v := 0; v < g.NumVertices(); v++ {
		vds = append(vds, vd{v, g.InDegree(v)})
	}
	sort.Slice(vds, func(i, j int) bool { return vds[i].d > vds[j].d })
	for _, q := range vds[:5] {
		var a, b []float64
		for v := 0; v < g.NumVertices(); v++ {
			if v == q.v {
				continue
			}
			// Restrict to pairs with a meaningful score under either model
			// (comparing the ordering of structural zeros is noise).
			if sr.At(q.v, v) > 1e-9 || ds.At(q.v, v) > 1e-9 {
				a = append(a, sr.At(q.v, v))
				b = append(b, ds.At(q.v, v))
			}
		}
		if len(a) < 5 {
			continue
		}
		if tau := kendallTau(a, b); tau < 0.8 {
			t.Errorf("query %d: Kendall tau %.3f < 0.8 (%d candidates)", q.v, tau, len(a))
		}
	}
}

// TestInvariants: symmetry and non-negativity (the exponential series has
// non-negative terms); entries bounded by 1.
func TestInvariants(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(20)
		g := randomGraph(rng, n, 4*n)
		e, _, err := Compute(g, Options{C: 0.7, K: 5})
		if err != nil {
			return false
		}
		s, err := e.Dense()
		if err != nil {
			return false
		}
		st := s.Copy()
		st.Transpose(1)
		return simmat.MaxDiff(s, st) <= 1e-10 && !slices.ContainsFunc(s.Data(), func(x float64) bool { return x < -1e-10 || x > 1+1e-10 })
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// TestFewerIterationsThanConventional: the whole point of Section IV.
func TestFewerIterationsThanConventional(t *testing.T) {
	g := gen.CoauthorGraph(100, 3, 4)
	eps := 1e-4
	_, stSR, err := core.Compute(g, core.Options{C: 0.8, Eps: eps})
	if err != nil {
		t.Fatal(err)
	}
	_, stDSR, err := Compute(g, Options{C: 0.8, Eps: eps})
	if err != nil {
		t.Fatal(err)
	}
	if stDSR.Iterations*3 > stSR.Iterations {
		t.Errorf("DSR ran %d iterations vs SR %d; want >= 3x fewer", stDSR.Iterations, stSR.Iterations)
	}
}

func TestStateAccounting(t *testing.T) {
	g := gen.CoauthorGraph(50, 3, 4)
	_, st, err := Compute(g, Options{C: 0.6, K: 3})
	if err != nil {
		t.Fatal(err)
	}
	// The state is three blocks over the vertices with a non-empty in-set.
	var m int64
	for v := 0; v < g.NumVertices(); v++ {
		if g.InDegree(v) > 0 {
			m++
		}
	}
	if st.StateBytes != 3*m*m*8 {
		t.Errorf("StateBytes = %d, want 3*m^2*8 = %d", st.StateBytes, 3*m*m*8)
	}
	if st.AuxBytes <= 0 || st.AuxBytes >= st.StateBytes {
		t.Errorf("AuxBytes = %d, want positive and far below state %d", st.AuxBytes, st.StateBytes)
	}
}

func TestBadOptions(t *testing.T) {
	g := graph.MustFromEdges(2, [][2]int{{0, 1}})
	if _, _, err := Compute(g, Options{C: -1, K: 1}); err == nil {
		t.Error("want error for negative C")
	}
	if _, _, err := Compute(g, Options{C: 0.5, K: -1}); err == nil {
		t.Error("want error for negative K")
	}
	if _, _, err := Compute(g, Options{C: 0.5, Eps: 1}); err == nil {
		t.Error("want error for eps = 1")
	}
	s, _, err := Compute(g, Options{C: 0.5, K: 0})
	if err != nil {
		t.Fatal(err)
	}
	if got := s.At(0, 0); math.Abs(got-math.Exp(-0.5)) > 1e-15 {
		t.Errorf("K=0 diagonal = %g, want e^-C", got)
	}
}
