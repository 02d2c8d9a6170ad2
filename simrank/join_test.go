package simrank

import (
	"cmp"
	"context"
	"math"
	"slices"
	"testing"

	"oipsr/graph/gen"
	"oipsr/simrank/query"
)

// TestJoinAgainstOIPSRKIterate pins the walk index's all-pairs join to the
// paper's engine on sweep-web's graph (n = 1500) at R = 100: the top 100
// pairs at threshold 0.1 against the top 100 pairs of the OIP-SR K-iterate
// at the index's own horizon. The graph is full of ties — 30 pairs score
// exactly C, siblings under one in-neighbor, and 168 pairs score at least
// 0.2 — so a joined pair counts as a hit when its s_K reaches the 100th
// largest s_K. Precision is 0.93. Every joined pair's estimate is within
// ARCHITECTURE.md's R = 100 Hoeffding bound (0.222) of its s_K; the worst
// is 0.094.
func TestJoinAgainstOIPSRKIterate(t *testing.T) {
	const k, threshold, bound = 100, 0.1, 0.222
	g := gen.WebGraph(1500, 11, 1)
	ix, err := query.BuildIndex(g, query.Options{Walks: 100, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	ref, _, err := Compute(g, Options{Algorithm: OIPSR, C: ix.C(), K: ix.Horizon()})
	if err != nil {
		t.Fatal(err)
	}
	var exact []float64 // every positive s_K(a, b), a < b
	for a := 0; a < g.NumVertices(); a++ {
		for b := a + 1; b < g.NumVertices(); b++ {
			if s := ref.Score(a, b); s > 0 {
				exact = append(exact, s)
			}
		}
	}
	slices.SortFunc(exact, func(x, y float64) int { return cmp.Compare(y, x) })
	kth := exact[k-1]

	pairs, err := ix.Join(context.Background(), k, threshold, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(pairs) != k {
		t.Fatalf("join returned %d pairs, want %d", len(pairs), k)
	}
	hits, worst := 0, 0.0
	for _, p := range pairs {
		s := ref.Score(p.A, p.B)
		if s >= kth-1e-12 {
			hits++
		}
		worst = max(worst, math.Abs(p.Score-s))
	}
	precision := float64(hits) / k
	if precision < 0.9 {
		t.Errorf("pair precision %.2f against the OIP-SR top %d (k-th s_K %.4f), want at least 0.9", precision, k, kth)
	}
	if worst > bound {
		t.Errorf("max |estimate - s_K| over the joined pairs = %.4f, above the R = 100 Hoeffding bound %.3f", worst, bound)
	}
	t.Logf("precision %.2f, max error %.4f, k-th s_K %.4f", precision, worst, kth)
}
