package core

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"oipsr/graph"
	"oipsr/internal/matrixform"
	"oipsr/internal/naive"
	"oipsr/internal/partition"
	"oipsr/internal/simmat"
)

// sweepOracle computes damp * Q * prev * Q^T with the matrixform package,
// the independent definition of what one Sweep must produce (pinDiag off).
func sweepOracle(g *graph.Graph, prev *simmat.Matrix, damp float64) *simmat.Matrix {
	n := g.NumVertices()
	tmp, out := simmat.New(n), simmat.New(n)
	matrixform.Conjugate(g, prev, tmp, out)
	d := out.Data()
	for i := range d {
		d[i] *= damp
	}
	return out
}

// TestSweepMatchesConjugation: a single sweep equals Q S Q^T on arbitrary
// (not just identity-derived) symmetric inputs — any n x n input for an
// all-rows sweeper, and for the block sweeper any block with d·δ rows
// outside it, d = 0 or 1.
func TestSweepMatchesConjugation(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(15)
		b := graph.NewBuilder(n, 0)
		b.EnsureVertices(n)
		for i := 0; i < rng.Intn(4*n); i++ {
			b.AddEdge(rng.Intn(n), rng.Intn(n))
		}
		g := b.MustBuild()
		plan, err := partition.BuildPlan(g, partition.Options{})
		if err != nil {
			return false
		}
		damp := 0.3 + 0.6*rng.Float64()

		prev := simmat.New(n)
		for i := 0; i < n; i++ {
			for j := i; j < n; j++ {
				v := rng.Float64()
				prev.Set(i, j, v)
				prev.Set(j, i, v)
			}
		}
		// The oracle comes first: Sweep overwrites prev.
		want := sweepOracle(g, prev, damp)
		next := simmat.New(n)
		NewSweeper(g, plan, true, false).Sweep(prev, next, 0, damp, false)
		if simmat.MaxDiff(next, want) >= 1e-10 {
			return false
		}

		sw := NewSweeper(g, plan, false, false)
		d := float64(rng.Intn(2))
		block, out := simmat.New(sw.Kept()), simmat.New(sw.Kept())
		for i := 0; i < sw.Kept(); i++ {
			for j := i; j < sw.Kept(); j++ {
				v := rng.Float64()
				block.Set(i, j, v)
				block.Set(j, i, v)
			}
		}
		full, err := simmat.Expand(sw.Slots(), block, d).Dense()
		if err != nil {
			return false
		}
		want = sweepOracle(g, full, damp)
		sw.Sweep(block, out, d, damp, false)
		got, err := simmat.Expand(sw.Slots(), out, 0).Dense()
		if err != nil {
			return false
		}
		return simmat.MaxDiff(got, want) < 1e-10
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// TestSweepBufferReuseInvariant: ping-pong reuse across many sweeps (the
// engines' pattern) stays consistent with fresh buffers every time.
func TestSweepBufferReuseInvariant(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	g := randomGraph(rng, 20, 60)
	plan, err := partition.BuildPlan(g, partition.Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, allRows := range []bool{false, true} {
		sw := NewSweeper(g, plan, allRows, false)
		m := sw.Kept()

		// Ping-pong from identity, like DSR's T recurrence.
		a, b := simmat.NewIdentity(m), simmat.New(m)
		for k := 0; k < 6; k++ {
			sw.Sweep(a, b, tDiag(k), 1, false)
			a, b = b, a
		}
		// Reference: fresh output buffer every sweep.
		ref := simmat.NewIdentity(m)
		for k := 0; k < 6; k++ {
			out := simmat.New(m)
			sw2 := NewSweeper(g, plan, allRows, false)
			sw2.Sweep(ref, out, tDiag(k), 1, false)
			ref = out
		}
		if d := simmat.MaxDiff(a, ref); d > 1e-12 {
			t.Errorf("allRows=%v: buffer reuse diverged from fresh buffers by %g", allRows, d)
		}
	}
}

// tDiag is OIP-DSR's diagonal outside the block: 1 for T_0 = I, 0 after.
func tDiag(k int) float64 {
	if k == 0 {
		return 1
	}
	return 0
}

// TestChainBreakStillCorrect: a graph engineered so the preorder jump
// between two dissimilar subtree siblings costs more than a from-scratch
// rebuild, forcing a chain break; scores must be unaffected.
func TestChainBreakStillCorrect(t *testing.T) {
	b := graph.NewBuilder(0, 0)
	// Hub sets: I(20) = {0..9}, derived twins I(21), I(22) = I(20) +/- one
	// element; a second unrelated family I(23) = {10..19}, I(24) twin.
	for x := 0; x < 10; x++ {
		b.AddEdge(x, 20)
		b.AddEdge(x, 21)
		if x != 0 {
			b.AddEdge(x, 22)
		}
		b.AddEdge(10+x, 23)
		b.AddEdge(10+x, 24)
	}
	g := b.MustBuild()
	plan, err := partition.BuildPlan(g, partition.Options{})
	if err != nil {
		t.Fatal(err)
	}
	// At least two chains must exist (the two families cannot share).
	if len(plan.Roots) < 2 {
		t.Fatalf("expected >= 2 chain roots, got %v", plan.Roots)
	}
	s, _, err := Compute(g, Options{C: 0.6, K: 3})
	if err != nil {
		t.Fatal(err)
	}
	// Twins fed by 10 identical sink sources: s = C/100 * 10 = C/10.
	if got := s.At(20, 21); got < 0.059 || got > 0.061 {
		t.Errorf("s(20,21) = %g, want C/10", got)
	}
	if got := s.At(23, 24); got < 0.059 || got > 0.061 {
		t.Errorf("s(23,24) = %g, want C/10", got)
	}
	// Cross-family pairs share nothing and their sources are all sinks,
	// so similarity stays 0.
	if got := s.At(20, 23); got != 0 {
		t.Errorf("s(20,23) = %g, want 0", got)
	}
	// And the whole matrix must agree with the naive oracle regardless of
	// where the plan broke its chains.
	want, err := naive.Compute(g, 0.6, 3)
	if err != nil {
		t.Fatal(err)
	}
	if d := maxDiff(t, s, want); d > 1e-12 {
		t.Errorf("chain-broken plan diverged from oracle by %g", d)
	}
}

// TestDisableOuterSweepEquivalence at the sweep level (not just
// end-to-end): on a graph with shared in-sets and in-neighbours outside
// the block, the sweep with outer sharing and its ablation, each from its
// own copy of a random symmetric block, agree for d = 0 and d = 1.
func TestDisableOuterSweepEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	g := sharedSetsGraph(rng, 60)
	plan, err := partition.BuildPlan(g, partition.Options{})
	if err != nil {
		t.Fatal(err)
	}
	shared, ablated := NewSweeper(g, plan, false, false), NewSweeper(g, plan, false, true)
	m := shared.Kept()
	if m < 20 || plan.SharedEdges == 0 {
		t.Fatalf("m = %d, %d shared edges: the graph does not exercise sharing", m, plan.SharedEdges)
	}
	for _, d := range []float64{0, 1} {
		prev := randomSymmetric(rng, m)
		a, b := simmat.New(m), simmat.New(m)
		shared.Sweep(prev.Copy(), a, d, 0.6, true)
		ablated.Sweep(prev, b, d, 0.6, true)
		if diff := simmat.MaxDiff(a, b); diff > 1e-12 {
			t.Errorf("d=%v: outer sharing changed sweep output by %g", d, diff)
		}
	}
}

// TestSweepIgnoresNextContents: the sweep writes every cell of next, so a
// NaN-filled next gives the same bits as a zero one, for the block and the
// all-rows sweeper, with and without outer sharing, at one and three
// workers.
func TestSweepIgnoresNextContents(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	g := sharedSetsGraph(rng, 40)
	plan, err := partition.BuildPlan(g, partition.Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, allRows := range []bool{false, true} {
		for _, disableOuter := range []bool{false, true} {
			for _, workers := range []int{1, 3} {
				sw := NewParallelSweeper(g, plan, allRows, disableOuter, workers)
				prev := randomSymmetric(rng, sw.Kept())
				zero, nan := simmat.New(sw.Kept()), simmat.New(sw.Kept())
				nan.Fill(math.NaN())
				sw.Sweep(prev.Copy(), zero, 1, 0.6, false)
				sw.Sweep(prev, nan, 1, 0.6, false)
				if err := sameCells(zero, nan); err != nil {
					t.Errorf("allRows=%v disableOuter=%v workers=%d: %v", allRows, disableOuter, workers, err)
				}
			}
		}
	}
}

// sharedSetsGraph returns a graph on n vertices whose in-sets overlap: a
// third of the vertices have no in-edge and feed the rest, and every other
// vertex copies most of the in-set of an earlier one, so the plan shares
// sums and the in-sets hold vertices outside the block.
func sharedSetsGraph(rng *rand.Rand, n int) *graph.Graph {
	b := graph.NewBuilder(n, 0)
	b.EnsureVertices(n)
	sources := n / 3
	var sets [][]int
	for v := sources; v < n; v++ {
		var in []int
		if len(sets) > 0 && rng.Intn(3) > 0 {
			for _, x := range sets[rng.Intn(len(sets))] {
				if rng.Intn(5) > 0 {
					in = append(in, x)
				}
			}
		}
		for k := 1 + rng.Intn(3); k > 0; k-- {
			in = append(in, rng.Intn(n))
		}
		for _, x := range in {
			b.AddEdge(x, v)
		}
		sets = append(sets, in)
	}
	return b.MustBuild()
}

// randomSymmetric returns an m x m symmetric matrix of values in [0, 1).
func randomSymmetric(rng *rand.Rand, m int) *simmat.Matrix {
	s := simmat.New(m)
	for i := 0; i < m; i++ {
		for j := i; j < m; j++ {
			v := rng.Float64()
			s.Set(i, j, v)
			s.Set(j, i, v)
		}
	}
	return s
}

// TestAuxBytesScalesLinearly: the sweeper's buffers are O(n), the claim of
// Proposition 5.
func TestAuxBytesScalesLinearly(t *testing.T) {
	small := graph.MustFromEdges(10, [][2]int{{0, 1}, {1, 2}})
	big := graph.MustFromEdges(1000, [][2]int{{0, 1}, {1, 2}})
	ps, err := partition.BuildPlan(small, partition.Options{})
	if err != nil {
		t.Fatal(err)
	}
	pb, err := partition.BuildPlan(big, partition.Options{})
	if err != nil {
		t.Fatal(err)
	}
	s := NewSweeper(small, ps, false, false).AuxBytes()
	bb := NewSweeper(big, pb, false, false).AuxBytes()
	if bb > 120*s {
		t.Errorf("aux bytes grew superlinearly: %d -> %d for 100x vertices", s, bb)
	}
}

// TestAuxBytesClosedForm: AuxBytes is exactly the sweeper's buffers — on
// the dense backend the slot map and 1/|I| by block row; a tiled sweep
// adds the slot-mapped tree program and, per worker, kernelRows partial
// vectors of m + e slots, kernelRows vals columns of one value per tree
// step, and kernelRows row buffers and staging rows of m values each. On
// sweep-web's graph OIP-SR's state and auxiliary memory come to the
// figure the benchmark reports as index_bytes_per_vertex.
func TestAuxBytesClosedForm(t *testing.T) {
	g := sweepWebGraph(t, 1)
	plan, err := partition.BuildPlan(g, partition.Options{})
	if err != nil {
		t.Fatal(err)
	}
	n, steps := g.NumVertices(), len(plan.TreeSteps)
	e := 0
	for v := 0; v < n; v++ {
		if g.InDegree(v) == 0 && g.OutDegree(v) > 0 {
			e++
		}
	}
	for _, workers := range []int{1, 3} {
		sw := NewParallelSweeper(g, plan, false, false, workers)
		m := sw.Kept()
		want := int64(n)*4 + int64(m)*8
		if got := sw.AuxBytes(); got != want {
			t.Errorf("workers=%d: AuxBytes %d, closed form %d", workers, got, want)
		}

		store, err := simmat.NewTileStore(simmat.TileOptions{BlockSize: 64})
		if err != nil {
			t.Fatal(err)
		}
		prev, err := store.NewIdentity(m)
		if err != nil {
			t.Fatal(err)
		}
		next, err := store.NewTiled(m)
		if err != nil {
			t.Fatal(err)
		}
		if err := sw.SweepTiled(prev, next, 1, 0.6, true); err != nil {
			t.Fatal(err)
		}
		want += int64(len(plan.TreeDiffs.IDs)+steps) * 4
		want += int64(workers*kernelRows*(m+e+steps+2*m)) * 8
		if got := sw.AuxBytes(); got != want {
			t.Errorf("workers=%d after a tiled sweep: AuxBytes %d, closed form %d", workers, got, want)
		}
		store.Close()
	}

	// Without outer sharing the sweeper holds a trivial plan of its own,
	// unless the plan it is given already is one.
	trivial := partition.TrivialPlan(g)
	for _, p := range []*partition.Plan{plan, trivial} {
		sw := NewSweeper(g, p, false, true)
		want := int64(n)*4 + int64(sw.Kept())*8
		if p != trivial {
			want += trivial.Bytes()
		}
		if got := sw.AuxBytes(); got != want {
			t.Errorf("disableOuter, trivial plan given %v: AuxBytes %d, closed form %d", p == trivial, got, want)
		}
	}

	// The plan's chains, and so its bytes, differ slightly between seeds.
	for seed, want := range map[int64]string{1: "2736.52", 2: "2736.49"} {
		_, st, err := Compute(sweepWebGraph(t, seed), Options{C: 0.6, K: 1})
		if err != nil {
			t.Fatal(err)
		}
		if got := fmt.Sprintf("%.2f", float64(st.StateBytes+st.AuxBytes)/float64(n)); got != want {
			t.Errorf("seed %d: %s B per vertex, want %s", seed, got, want)
		}
	}
}
