package core

import (
	"math"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"oipsr/graph"
	"oipsr/graph/gen"
	"oipsr/internal/naive"
	"oipsr/internal/partition"
	"oipsr/internal/psum"
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

// maxDiff is simmat.MaxDiffSource for tests: the engines return expanded
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

// TestMatchesNaiveOracle is the central correctness property: OIP-SR is a
// computational reorganization of Eq. 2 and must reproduce the naive
// iteration bit-for-bit up to floating-point reassociation.
func TestMatchesNaiveOracle(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(18)
		g := randomGraph(rng, n, 5*n)
		c := 0.3 + 0.6*rng.Float64()
		k := 1 + rng.Intn(5)

		want, err := naive.Compute(g, c, k)
		if err != nil {
			return false
		}
		got, _, err := Compute(g, Options{C: c, K: k})
		if err != nil {
			t.Logf("seed %d: %v", seed, err)
			return false
		}
		if d := maxDiff(t, got, want); d > 1e-9 {
			t.Logf("seed %d: max diff vs naive %g", seed, d)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Error(err)
	}
}

// TestMatchesPsum: psum-SR computes the same iteration, so all three
// engines agree.
func TestMatchesPsum(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	g := gen.WebGraph(200, 8, 3)
	_ = rng
	c, k := 0.6, 5
	ps, _, err := psum.Compute(g, psum.Options{C: c, K: k})
	if err != nil {
		t.Fatal(err)
	}
	oip, _, err := Compute(g, Options{C: c, K: k})
	if err != nil {
		t.Fatal(err)
	}
	if d := maxDiff(t, ps, oip); d > 1e-9 {
		t.Errorf("max diff vs psum = %g", d)
	}
}

// TestFig4ThroughOIP recomputes the Fig. 4 table through the full OIP path
// (MST plan, inner and outer sharing).
func TestFig4ThroughOIP(t *testing.T) {
	g := paperGraph(t)
	s, _, err := Compute(g, Options{C: 0.6, K: 2})
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
		{a, 1, 0.21}, {e, 0.15, 0.1}, {h, 0.17, 0.22},
		{c, 0.21, 1}, {b, 0.09, 0.06}, {d, 0.02, 0.02},
	}
	for _, w := range want {
		if got := s.At(w.x, a); math.Abs(got-w.sa) > 0.006 {
			t.Errorf("s_2(%d, a) = %.4f, want %.2f", w.x, got, w.sa)
		}
		if got := s.At(w.x, c); math.Abs(got-w.sc) > 0.006 {
			t.Errorf("s_2(%d, c) = %.4f, want %.2f", w.x, got, w.sc)
		}
	}
}

// TestAblationsProduceSameScores: disabling outer sharing must never change
// the result, only the cost.
func TestAblationsProduceSameScores(t *testing.T) {
	g := gen.WebGraph(150, 9, 7)
	base, _, err := Compute(g, Options{C: 0.6, K: 4})
	if err != nil {
		t.Fatal(err)
	}
	got, _, err := Compute(g, Options{C: 0.6, K: 4, DisableOuter: true})
	if err != nil {
		t.Fatal(err)
	}
	if d := maxDiff(t, base, got); d > 1e-9 {
		t.Errorf("no-outer: max diff %g from baseline", d)
	}
}

// TestAblateOuterAddsClosedForm pins the outer-add counts behind the root
// BenchmarkAblationOuterSharing, on sweep-web's graph: every iteration
// emits one row per vertex with a non-empty in-set, and a row costs
// procedure OP the plan's tree weight, or with outer sharing ablated the
// psum-SR per-target sums, ScratchAdditions.
func TestAblateOuterAddsClosedForm(t *testing.T) {
	g := sweepWebGraph(t, 1)
	plan, err := partition.BuildPlan(g, partition.Options{})
	if err != nil {
		t.Fatal(err)
	}
	const k = 10
	rows := int64(k * plan.NumSets)
	for _, c := range []struct {
		name         string
		disableOuter bool
		perRow       int
	}{
		{"oip-sr", false, plan.TreeWeight},
		{"disable-outer", true, plan.ScratchAdditions},
	} {
		_, st, err := Compute(g, Options{C: 0.6, K: k, DisableOuter: c.disableOuter, Workers: 2})
		if err != nil {
			t.Fatal(err)
		}
		if want := rows * int64(c.perRow); st.OuterAdds != want {
			t.Errorf("%s: OuterAdds %d, want K·m·%d = %d", c.name, st.OuterAdds, c.perRow, want)
		}
	}
}

// TestSharingBeatsScratchOps verifies the operation-count claim behind
// Proposition 5 on an overlap-heavy graph: OIP-SR spends strictly fewer
// inner additions than psum-SR, and outer sharing strictly fewer outer
// additions than the one-by-one fashion.
func TestSharingBeatsScratchOps(t *testing.T) {
	g := gen.WebGraph(300, 10, 1)
	k := 3
	_, stOIP, err := Compute(g, Options{C: 0.6, K: k})
	if err != nil {
		t.Fatal(err)
	}
	_, stPsum, err := psum.Compute(g, psum.Options{C: 0.6, K: k})
	if err != nil {
		t.Fatal(err)
	}
	if stOIP.InnerAdds >= stPsum.InnerAdds {
		t.Errorf("inner adds: OIP %d >= psum %d; sharing bought nothing", stOIP.InnerAdds, stPsum.InnerAdds)
	}
	if stOIP.OuterAdds >= stPsum.OuterAdds {
		t.Errorf("outer adds: OIP %d >= psum %d", stOIP.OuterAdds, stPsum.OuterAdds)
	}
	if stOIP.ShareRatio <= 0.3 {
		t.Errorf("share ratio = %g, want > 0.3 on a boilerplate web graph", stOIP.ShareRatio)
	}
	// Every shared edge must beat recomputing its set from scratch, so the
	// plan is strictly cheaper than psum-SR's per-sweep additions.
	if stOIP.PlanAdditions >= stOIP.ScratchAdditions {
		t.Errorf("plan additions %d >= scratch %d", stOIP.PlanAdditions, stOIP.ScratchAdditions)
	}
}

// TestWorstCaseDisjointSetsDegradesToPsum: with pairwise-disjoint in-sets
// the plan has no sharing and OIP-SR performs exactly psum-SR's additions
// (the worst-case bound of Proposition 5).
func TestWorstCaseDisjointSetsDegradesToPsum(t *testing.T) {
	// 0->4, 1->4 ; 2->5, 3->5 : I(4), I(5) disjoint.
	g := graph.MustFromEdges(6, [][2]int{{0, 4}, {1, 4}, {2, 5}, {3, 5}})
	k := 3
	s, stOIP, err := Compute(g, Options{C: 0.6, K: k})
	if err != nil {
		t.Fatal(err)
	}
	want, stPsum, err := psum.Compute(g, psum.Options{C: 0.6, K: k})
	if err != nil {
		t.Fatal(err)
	}
	if d := maxDiff(t, s, want); d > 1e-12 {
		t.Errorf("scores differ by %g", d)
	}
	if stOIP.InnerAdds != stPsum.InnerAdds {
		t.Errorf("inner adds OIP %d != psum %d on disjoint sets", stOIP.InnerAdds, stPsum.InnerAdds)
	}
	if stOIP.ShareRatio != 0 {
		t.Errorf("share ratio = %g, want 0", stOIP.ShareRatio)
	}
}

// TestEpsDerivesIterations: with K unset the engine must run the Lizorkin
// iteration count for the requested accuracy.
func TestEpsDerivesIterations(t *testing.T) {
	g := paperGraph(t)
	_, st, err := Compute(g, Options{C: 0.8, Eps: 1e-4})
	if err != nil {
		t.Fatal(err)
	}
	if st.Iterations != 41 { // the Section IV worked example
		t.Errorf("iterations = %d, want 41", st.Iterations)
	}
}

// TestStopDiffConvergence: the early-stop rule halts once successive
// iterates agree to within the threshold, and the reported diff honors it.
func TestStopDiffConvergence(t *testing.T) {
	g := gen.CoauthorGraph(200, 3, 5)
	_, st, err := Compute(g, Options{C: 0.8, K: 100, StopDiff: 1e-4})
	if err != nil {
		t.Fatal(err)
	}
	if st.Iterations >= 100 {
		t.Errorf("early stop never fired (ran %d iterations)", st.Iterations)
	}
	if st.FinalDiff > 1e-4 {
		t.Errorf("final diff %g above threshold", st.FinalDiff)
	}
}

// TestStopDiffMatchesFixedK: a run that StopDiff does not stop reports as
// FinalDiff exactly simmat.MaxDiff of the K- and (K-1)-iterates of two
// fixed-K runs, bit for bit, and returns the K-iterate — the copy of the
// iterate it compares against is taken before the sweep overwrites it.
// Dense at one and three workers, and tiled.
func TestStopDiffMatchesFixedK(t *testing.T) {
	g := gen.WebGraph(300, 11, 1)
	m := int64(0)
	for v := 0; v < g.NumVertices(); v++ {
		if g.InDegree(v) > 0 {
			m++
		}
	}
	for _, k := range []int{1, 2, 5} {
		for _, workers := range []int{1, 3} {
			fixed := func(k int) *simmat.Matrix {
				if k == 0 { // Options.K = 0 means "derive K from Eps"
					return simmat.NewIdentity(g.NumVertices())
				}
				e, _, err := Compute(g, Options{C: 0.8, K: k, Workers: workers})
				if err != nil {
					t.Fatal(err)
				}
				s, err := e.Dense()
				if err != nil {
					t.Fatal(err)
				}
				return s
			}
			want, before := fixed(k), fixed(k-1)
			opt := Options{C: 0.8, K: k, StopDiff: math.SmallestNonzeroFloat64, Workers: workers}
			e, st, err := Compute(g, opt)
			if err != nil {
				t.Fatal(err)
			}
			if st.Iterations != k {
				t.Fatalf("K=%d workers=%d: stopped after %d iterations", k, workers, st.Iterations)
			}
			if d := simmat.MaxDiff(want, before); math.Float64bits(st.FinalDiff) != math.Float64bits(d) {
				t.Errorf("K=%d workers=%d: FinalDiff %v, MaxDiff of the fixed-K iterates %v", k, workers, st.FinalDiff, d)
			}
			if err := sameCells(want, e); err != nil {
				t.Errorf("K=%d workers=%d: %v", k, workers, err)
			}
			if st.StateBytes != 3*m*m*8 {
				t.Errorf("K=%d workers=%d: StateBytes %d, want three %d x %d blocks", k, workers, st.StateBytes, m, m)
			}

			opt.Tile = simmat.TileOptions{BlockSize: 16}
			tiled, tst, err := Compute(g, opt)
			if err != nil {
				t.Fatal(err)
			}
			if math.Float64bits(tst.FinalDiff) != math.Float64bits(st.FinalDiff) {
				t.Errorf("K=%d workers=%d: tiled FinalDiff %v, dense %v", k, workers, tst.FinalDiff, st.FinalDiff)
			}
			tiled.Close()
		}
	}
}

// TestInvariants: symmetry, range, pinned diagonal, zero rows for empty
// in-sets — on random graphs through the full OIP path.
func TestInvariants(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(25)
		g := randomGraph(rng, n, 4*n)
		e, _, err := Compute(g, Options{C: 0.7, K: 4})
		if err != nil {
			return false
		}
		s, err := e.Dense()
		if err != nil {
			return false
		}
		st := s.Copy()
		st.Transpose(1)
		if simmat.MaxDiff(s, st) > 1e-10 || slices.ContainsFunc(s.Data(), func(x float64) bool { return x < -1e-10 || x > 1+1e-10 }) {
			return false
		}
		for v := 0; v < n; v++ {
			if s.At(v, v) != 1 {
				return false
			}
			if g.InDegree(v) == 0 {
				for u := 0; u < n; u++ {
					if u != v && s.At(u, v) != 0 {
						return false
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Error(err)
	}
}

func TestStatsPhases(t *testing.T) {
	g := gen.WebGraph(200, 8, 2)
	_, st, err := Compute(g, Options{C: 0.6, K: 3})
	if err != nil {
		t.Fatal(err)
	}
	if st.PlanTime <= 0 || st.SweepTime <= 0 {
		t.Errorf("phase times not recorded: plan=%v sweep=%v", st.PlanTime, st.SweepTime)
	}
	if st.AuxBytes <= 0 {
		t.Error("aux bytes not accounted")
	}
	if st.NumSets == 0 || st.PlanAdditions == 0 {
		t.Error("plan metrics not propagated")
	}
}

func TestBadOptions(t *testing.T) {
	g := paperGraph(t)
	if _, _, err := Compute(g, Options{C: 1.5, K: 1}); err == nil {
		t.Error("want error for C out of range")
	}
	if _, _, err := Compute(g, Options{C: 0.6, K: -1}); err == nil {
		t.Error("want error for negative K")
	}
	if _, _, err := Compute(g, Options{C: 0.6, Eps: 7}); err == nil {
		t.Error("want error for eps out of range")
	}
}

func TestDefaultsApplied(t *testing.T) {
	g := paperGraph(t)
	_, st, err := Compute(g, Options{}) // C=0.6, eps=1e-3
	if err != nil {
		t.Fatal(err)
	}
	// ceil(log_0.6(1e-3)) - 1 = ceil(13.52 - 1) = 13.
	if st.Iterations != 13 {
		t.Errorf("default iterations = %d, want 13 (C=0.6, eps=1e-3)", st.Iterations)
	}
}
