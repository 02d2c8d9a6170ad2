package query

import (
	"context"
	"math"
	"testing"

	"oipsr/graph"
	"oipsr/graph/gen"
	"oipsr/internal/eval"
	"oipsr/simrank"
)

// exactScores runs the batch OIP-SR engine as ground truth, with the same
// damping factor and truncation the index uses.
func exactScores(t *testing.T, g *graph.Graph, c float64, k int) *simrank.Scores {
	t.Helper()
	scores, _, err := simrank.Compute(g, simrank.Options{
		Algorithm: simrank.OIPSR, C: c, K: k,
	})
	if err != nil {
		t.Fatal(err)
	}
	return scores
}

// precisionAtK adapts eval.PrecisionAtK (the tie-fair threshold metric the
// bench query workload also reports) to a []Ranked result list.
func precisionAtK(exactRow []float64, q int, got []Ranked, k int) float64 {
	ids := make([]int, len(got))
	for i, r := range got {
		ids[i] = r.Vertex
	}
	return eval.PrecisionAtK(exactRow, q, ids, k)
}

// TestTopKPrecisionVsExact is the accuracy gate of the satellite checklist:
// on <=200-vertex generated graphs with a fixed seed, index top-10 must
// reach precision@10 >= 0.9 against exact OIP-SR, both raw and reranked.
func TestTopKPrecisionVsExact(t *testing.T) {
	const k = 10
	cases := []struct {
		name  string
		g     *graph.Graph
		walks int
	}{
		{"web150", gen.WebGraph(150, 8, 101), 1200},
		{"citation200", gen.CitationGraph(200, 5, 102), 2400},
		{"coauthor180", gen.CoauthorGraph(180, 4, 103), 1200},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			ix, err := BuildIndex(tc.g, Options{Walks: tc.walks, Seed: 7})
			if err != nil {
				t.Fatal(err)
			}
			exact := exactScores(t, tc.g, ix.C(), ix.Horizon())

			queries := spread(tc.g.NumVertices(), 8)
			var sumRaw, sumRerank float64
			for _, q := range queries {
				row := exact.Row(q)
				raw, err := ix.TopK(context.Background(), q, k, nil)
				if err != nil {
					t.Fatal(err)
				}
				sumRaw += precisionAtK(row, q, raw, k)

				rr, err := ix.TopK(context.Background(), q, k, &TopKOptions{Rerank: true})
				if err != nil {
					t.Fatal(err)
				}
				sumRerank += precisionAtK(row, q, rr, k)
			}
			nq := float64(len(queries))
			if p := sumRaw / nq; p < 0.9 {
				t.Errorf("raw precision@%d = %.3f, want >= 0.9", k, p)
			}
			if p := sumRerank / nq; p < 0.9 {
				t.Errorf("reranked precision@%d = %.3f, want >= 0.9", k, p)
			}
			t.Logf("%s: precision@%d raw %.3f, reranked %.3f",
				tc.name, k, sumRaw/nq, sumRerank/nq)
		})
	}
}

// spread returns count query vertices spaced evenly over [0, n).
func spread(n, count int) []int {
	if count > n {
		count = n
	}
	qs := make([]int, count)
	for i := range qs {
		qs[i] = i * n / count
	}
	return qs
}

// TestExactScorerMatchesBatch: the pruned partial-sums recursion must
// reproduce the batch engine's truncated scores when the prune threshold
// is effectively off.
func TestExactScorerMatchesBatch(t *testing.T) {
	g := gen.WebGraph(60, 5, 55)
	const c, k = 0.6, 8
	exact := exactScores(t, g, c, k)
	ex := testScorer(t, g, c, k, 1e-15)
	for a := 0; a < 60; a += 5 {
		for b := 0; b < 60; b += 7 {
			got, _ := ex.pair(a, b)
			want := exact.Score(a, b)
			if math.Abs(got-want) > 1e-8 {
				t.Fatalf("exactScorer(%d,%d) = %.12f, batch = %.12f", a, b, got, want)
			}
		}
	}
}

// TestExactScorerPruning: coarser prune thresholds only degrade scores,
// and the default threshold stays close to the unpruned value.
func TestExactScorerPruning(t *testing.T) {
	g := gen.WebGraph(60, 5, 56)
	const c, k = 0.6, 10
	full := testScorer(t, g, c, k, 1e-15)
	def := testScorer(t, g, c, k, 1e-5) // the TopK default
	for a := 0; a < 60; a += 9 {
		for b := 0; b < 60; b += 4 {
			f, _ := full.pair(a, b)
			d, _ := def.pair(a, b)
			// Pruning only removes non-negative contribution mass.
			if d > f+1e-12 {
				t.Fatalf("pruned s(%d,%d) = %.9f exceeds unpruned %.9f", a, b, d, f)
			}
			if f-d > 1e-3 {
				t.Fatalf("default pruning changed s(%d,%d) by %.6f, want <= 1e-3", a, b, f-d)
			}
		}
	}
}

// TestRerankImprovesOrNotWorse: on a small graph with a deliberately
// noisy index (few walks), reranking must not lower mean precision.
func TestRerankImprovesOrNotWorse(t *testing.T) {
	g := gen.WebGraph(120, 7, 77)
	ix, err := BuildIndex(g, Options{Walks: 80, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	exact := exactScores(t, g, ix.C(), ix.Horizon())
	const k = 10
	var sumRaw, sumRerank float64
	queries := spread(120, 10)
	for _, q := range queries {
		row := exact.Row(q)
		raw, err := ix.TopK(context.Background(), q, k, nil)
		if err != nil {
			t.Fatal(err)
		}
		rr, err := ix.TopK(context.Background(), q, k, &TopKOptions{Rerank: true})
		if err != nil {
			t.Fatal(err)
		}
		sumRaw += precisionAtK(row, q, raw, k)
		sumRerank += precisionAtK(row, q, rr, k)
	}
	if sumRerank < sumRaw-1e-9 {
		t.Errorf("rerank lowered mean precision: raw %.3f, reranked %.3f",
			sumRaw/float64(len(queries)), sumRerank/float64(len(queries)))
	}
}
