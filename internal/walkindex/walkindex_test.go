package walkindex

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"oipsr/graph"
	"oipsr/graph/gen"
	"oipsr/internal/naive"
	"oipsr/internal/sparserow"
)

// buildFull builds the single-node index: the range [0, n).
func buildFull(g *graph.Graph, opt Options) (*Index, error) {
	return Build(g, opt, 0, g.NumVertices())
}

// denseRows is SparseRows written out over the index's range, row[v-lo]
// being s(q, v): the form the tests compare two indexes' answers, and
// answers recorded as dense rows, in.
func denseRows(ctx context.Context, ix *Index, g *graph.Graph, sources []int, workers int) ([][]float64, error) {
	rows, err := ix.SparseRows(ctx, g, sources, workers)
	if err != nil {
		return nil, err
	}
	defer sparserow.Release(rows...)
	out := make([][]float64, len(rows))
	for i, row := range rows {
		out[i] = make([]float64, ix.Width())
		row.Densify(out[i], ix.lo)
	}
	return out, nil
}

// msRows is the test shorthand for an uncancellable denseRows call.
func msRows(t *testing.T, ix *Index, g *graph.Graph, sources []int, workers int) [][]float64 {
	t.Helper()
	rows, err := denseRows(context.Background(), ix, g, sources, workers)
	if err != nil {
		t.Fatal(err)
	}
	return rows
}

// ssRow is msRows for one source of a full-range index.
func ssRow(t *testing.T, ix *Index, q int) []float64 {
	t.Helper()
	return msRows(t, ix, nil, []int{q}, 1)[0]
}

// TestSiblingsExact: from 0->1, 0->2 both walkers step to vertex 0 with
// probability 1 and meet at step 1, so every fingerprint contributes
// exactly C and the estimate is C with zero variance.
func TestSiblingsExact(t *testing.T) {
	g := graph.MustFromEdges(3, [][2]int{{0, 1}, {0, 2}})
	ix, err := buildFull(g, Options{C: 0.8, K: 5, Walks: 10, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if got := ix.Pair(nil, 1, 2); math.Abs(got-0.8) > 1e-12 {
		t.Errorf("s(1,2) = %g, want exactly C = 0.8", got)
	}
	row := ssRow(t, ix, 1)
	if math.Abs(row[2]-0.8) > 1e-12 || row[1] != 1 {
		t.Errorf("row of 1 = %v, want s(1,1)=1, s(1,2)=0.8", row)
	}
}

// TestTwoCycleNeverMeets: walkers on the 2-cycle swap positions forever.
func TestTwoCycleNeverMeets(t *testing.T) {
	g := graph.MustFromEdges(2, [][2]int{{0, 1}, {1, 0}})
	ix, err := buildFull(g, Options{C: 0.9, K: 50, Walks: 20, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if got := ix.Pair(nil, 0, 1); got != 0 {
		t.Errorf("s(0,1) = %g, want 0", got)
	}
}

// TestDeadWalkersContributeZero: pairs involving a vertex whose walk
// reaches a source (empty in-set) before meeting score 0.
func TestDeadWalkersContributeZero(t *testing.T) {
	g := graph.MustFromEdges(3, [][2]int{{0, 1}}) // vertex 2 isolated
	ix, err := buildFull(g, Options{C: 0.6, K: 10, Walks: 25, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	for _, pair := range [][2]int{{0, 1}, {0, 2}, {1, 2}} {
		if got := ix.Pair(nil, pair[0], pair[1]); got != 0 {
			t.Errorf("s(%d,%d) = %g, want 0", pair[0], pair[1], got)
		}
	}
}

// TestApproximatesExact: single-source estimates converge to the iterative
// scores. The coupled-walk estimator carries a small coalescence bias, so
// the tolerance is statistical, not machine precision.
func TestApproximatesExact(t *testing.T) {
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
	ix, err := buildFull(g, Options{C: 0.6, K: 15, Walks: 3000, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	var sum float64
	var cnt int
	for q := 0; q < 25; q++ {
		row := ssRow(t, ix, q)
		for v := 0; v < 25; v++ {
			if v == q {
				continue
			}
			sum += math.Abs(row[v] - exact.At(q, v))
			cnt++
		}
	}
	if mae := sum / float64(cnt); mae > 0.02 {
		t.Errorf("mean absolute error %.4f vs exact, want <= 0.02", mae)
	}
}

// TestSymmetry: the estimator is symmetric by construction.
func TestSymmetry(t *testing.T) {
	g := gen.WebGraph(60, 5, 9)
	ix, err := buildFull(g, Options{Walks: 50, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	for a := 0; a < 60; a += 7 {
		row := ssRow(t, ix, a)
		for b := 0; b < 60; b += 3 {
			if got, want := ix.Pair(nil, b, a), row[b]; got != want {
				t.Fatalf("Pair(%d,%d) = %g, row of %d = %g", b, a, got, a, want)
			}
		}
	}
}

// TestBuildDeterministicAcrossWorkers: the hash-driven coupling makes the
// index bit-identical for every worker count.
func TestBuildDeterministicAcrossWorkers(t *testing.T) {
	g := gen.WebGraph(120, 6, 11)
	serial, err := buildFull(g, Options{Walks: 40, Seed: 17, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{2, 3, 7, 16} {
		par, err := buildFull(g, Options{Walks: 40, Seed: 17, Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		if !serial.Equal(par) {
			t.Fatalf("index with %d workers differs from serial build", workers)
		}
	}
}

// TestSeedChangesIndex: different seeds must produce different walks (else
// averaging fingerprints would be meaningless).
func TestSeedChangesIndex(t *testing.T) {
	g := gen.WebGraph(80, 6, 3)
	a, err := buildFull(g, Options{Walks: 30, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	b, err := buildFull(g, Options{Walks: 30, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if a.Equal(b) {
		t.Fatal("indexes with different seeds are identical")
	}
}

// TestCoalescence: once two walkers of one fingerprint stand on the same
// vertex they must move together for every remaining step.
func TestCoalescence(t *testing.T) {
	g := gen.WebGraph(100, 8, 21)
	ix, err := buildFull(g, Options{K: 12, Walks: 20, Seed: 6})
	if err != nil {
		t.Fatal(err)
	}
	n, k, r := ix.n, ix.k, ix.r
	for a := 0; a < n; a += 11 {
		for b := a + 1; b < n; b += 13 {
			for fp := 0; fp < r; fp++ {
				ap := ix.denseRow(a, nil)[fp*k : (fp+1)*k]
				bp := ix.denseRow(b, nil)[fp*k : (fp+1)*k]
				met := false
				for t2 := 0; t2 < k; t2++ {
					if ap[t2] < 0 || bp[t2] < 0 {
						break
					}
					if met && ap[t2] != bp[t2] {
						t.Fatalf("walkers %d,%d (fp %d) diverged after meeting at step %d", a, b, fp, t2)
					}
					if ap[t2] == bp[t2] {
						met = true
					}
				}
			}
		}
	}
}

// TestOptionDefaults: zero options mean C=0.6, eps=1e-3 horizon, 100 walks.
func TestOptionDefaults(t *testing.T) {
	g := gen.WebGraph(10, 3, 1)
	ix, err := buildFull(g, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if ix.C() != 0.6 || ix.Walks() != 100 {
		t.Errorf("defaults: C=%g walks=%d, want 0.6 and 100", ix.C(), ix.Walks())
	}
	// Smallest K with C^(K+1) <= 1e-3 for C=0.6 is 13.
	if ix.Horizon() != 13 {
		t.Errorf("default horizon %d, want 13", ix.Horizon())
	}
}

// TestBadOptions: invalid damping factors and negative counts are rejected.
func TestBadOptions(t *testing.T) {
	g := gen.WebGraph(10, 3, 1)
	for _, opt := range []Options{
		{C: 1.5},
		{C: -0.2},
		{K: -1},
		{Walks: -5},
		{Eps: 2},
		{K: 0x10000},     // would alias (fp, t) pairs in edgeChoice
		{Walks: 0x10000}, // likewise
	} {
		if _, err := buildFull(g, opt); err == nil {
			t.Errorf("buildFull(%+v) succeeded, want error", opt)
		}
	}
}
