package query

import (
	"context"
	"math/rand"
	"slices"
	"testing"

	"oipsr/graph/gen"
	"oipsr/internal/sparserow"
)

// sparseOf is the sparse row a dense one stands for.
func sparseOf(dense []float64) *sparserow.Row {
	row := &sparserow.Row{}
	row.AppendDense(0, dense)
	return row
}

// TestSparseSelectionMatchesTopByScore pins the padding trap before any
// consumer relies on it: on the serving graphs most rows have fewer
// non-zeros than a top-10 asks for, let alone a rerank pool of 40, and the
// dense selection fills the rest with zero-score vertices in ascending id
// order, skipping q. The sparse selection must return that list, entry for
// entry, for every shape of row the serving path produces.
func TestSparseSelectionMatchesTopByScore(t *testing.T) {
	rng := rand.New(rand.NewSource(26))
	scores := []float64{0.5, 0.25, 0.25, 0.01, 1e-9}
	check := func(dense []float64, q, m int) {
		t.Helper()
		got, want := sparseOf(dense).Top(m, q, len(dense)), topByScore(dense, q, m)
		if !slices.Equal(got, want) {
			t.Fatalf("n=%d q=%d m=%d row %v:\nsparse %v\n dense %v", len(dense), q, m, sparseOf(dense), got, want)
		}
	}
	for trial := 0; trial < 4000; trial++ {
		n := 1 + rng.Intn(60)
		dense := make([]float64, n)
		q := rng.Intn(n)
		// A missing shard range: no entries in one interval.
		holeLo := rng.Intn(n + 1)
		holeHi := holeLo + rng.Intn(n+1-holeLo)*rng.Intn(2)
		switch rng.Intn(5) {
		case 0: // all zero
		case 1: // q the only non-zero
			dense[q] = 1
		default:
			nonzeros := rng.Intn(n + 1)
			for i := 0; i < nonzeros; i++ {
				if v := rng.Intn(n); v < holeLo || v >= holeHi {
					dense[v] = scores[rng.Intn(len(scores))] // ties on score, broken by id
				}
			}
			if rng.Intn(2) == 0 {
				dense[q] = 1 // q present; otherwise absent (its owner's leg failed)
			}
		}
		for _, m := range []int{0, 1, rng.Intn(n + 1), n - 1, n, n + 7, RerankPool(n, 10, 0)} {
			check(dense, q, m)
		}
	}
}

// TestRankSparseMatchesRankScores: the whole ranking tail — selection, pool
// sizing, the exact rerank of a pool that is mostly padding — over real walk
// rows, sparse against dense, with == on every score.
func TestRankSparseMatchesRankScores(t *testing.T) {
	g := gen.WebGraph(150, 4, 9)
	ix, err := BuildIndex(g, Options{Walks: 30, Seed: 5, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	n := ix.N()
	sources := make([]int, n)
	for q := range sources {
		sources[q] = q
	}
	rows, err := ix.SparseRows(ctx, sources, 2)
	if err != nil {
		t.Fatal(err)
	}
	defer sparserow.Release(rows...)
	padded := 0
	for q := 0; q < n; q++ {
		dense, err := ix.SingleSource(ctx, q)
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(rows[q].IDs, sparseOf(dense).IDs) || !slices.Equal(rows[q].Scores, sparseOf(dense).Scores) {
			t.Fatalf("q=%d: SparseRows %v, non-zeros of SingleSource %v", q, rows[q], sparseOf(dense))
		}
		if rows[q].Len()-1 < RerankPool(n, 10, 0) {
			padded++
		}
		for _, k := range []int{1, 10, n - 1} {
			for _, rerank := range []bool{false, true} {
				if rerank && q%10 != 0 {
					continue // the rerank is the slow part; a tenth of the sources
				}
				opt := &TopKOptions{Rerank: rerank}
				want, err := RankScores(ctx, g, ix.C(), ix.Horizon(), dense, q, k, opt)
				if err != nil {
					t.Fatal(err)
				}
				got, err := RankSparse(ctx, g, ix.C(), ix.Horizon(), n, rows[q], q, k, opt)
				if err != nil {
					t.Fatal(err)
				}
				if !slices.Equal(got, want) {
					t.Fatalf("q=%d k=%d rerank=%v:\nsparse %v\n dense %v", q, k, rerank, got, want)
				}
			}
		}
	}
	if padded == 0 {
		t.Fatal("no source needed padding: the graph no longer exercises the trap this test pins")
	}
	if _, err := RankSparse(ctx, nil, ix.C(), ix.Horizon(), n, rows[0], 0, 5, &TopKOptions{Rerank: true}); err != errRerankNoGraph {
		t.Fatalf("rerank without a graph: %v, want %v", err, errRerankNoGraph)
	}
}
