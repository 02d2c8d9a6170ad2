package query

import (
	"bytes"
	"context"
	"errors"
	"strings"
	"testing"

	"oipsr/graph"
	"oipsr/graph/gen"
)

// TestTopKBatchBitIdenticalToTopK: the batched path must reproduce every
// independent TopK call exactly — estimates and exact-reranked — for every
// worker count. This is the acceptance property of the whole batch layer.
func TestTopKBatchBitIdenticalToTopK(t *testing.T) {
	g := gen.CoauthorGraph(180, 4, 21)
	ix, err := BuildIndex(g, Options{Walks: 80, Seed: 6})
	if err != nil {
		t.Fatal(err)
	}
	sources := []int{0, 17, 17, 42, 99, 179}
	for _, opt := range []*TopKOptions{nil, {Rerank: true}, {Rerank: true, Candidates: 25, PruneEps: 1e-4}} {
		want := make([][]Ranked, len(sources))
		for i, q := range sources {
			want[i], err = ix.TopK(context.Background(), q, 7, opt)
			if err != nil {
				t.Fatal(err)
			}
		}
		for _, workers := range []int{1, 2, 5, 8} {
			got, err := ix.TopKBatch(context.Background(), sources, 7, opt, workers)
			if err != nil {
				t.Fatal(err)
			}
			for i := range sources {
				if len(got[i]) != len(want[i]) {
					t.Fatalf("opt=%+v workers=%d source %d: %d results, want %d", opt, workers, sources[i], len(got[i]), len(want[i]))
				}
				for j := range want[i] {
					if got[i][j] != want[i][j] {
						t.Fatalf("opt=%+v workers=%d source %d result %d: %+v, want %+v",
							opt, workers, sources[i], j, got[i][j], want[i][j])
					}
				}
			}
		}
	}
}

// TestBatchValidation: a bad source is rejected with its batch position
// named; bad k and rerank-without-graph fail the whole call.
func TestBatchValidation(t *testing.T) {
	g := gen.WebGraph(30, 4, 1)
	ix, err := BuildIndex(g, Options{Walks: 20, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ix.MultiSource(context.Background(), []int{0, 99}, 1); err == nil || !strings.Contains(err.Error(), "batch item 1") {
		t.Fatalf("MultiSource with bad source: %v, want error naming batch item 1", err)
	}
	if _, err := ix.TopKBatch(context.Background(), []int{0, -1}, 5, nil, 1); err == nil {
		t.Fatal("TopKBatch with negative source succeeded")
	}
	if _, err := ix.TopKBatch(context.Background(), []int{0}, 0, nil, 1); err == nil {
		t.Fatal("TopKBatch with k=0 succeeded")
	}

	// A loaded index has no graph attached: rerank must fail batch-wide.
	var buf bytes.Buffer
	if err := ix.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := loaded.TopKBatch(context.Background(), []int{0}, 5, &TopKOptions{Rerank: true}, 1); err == nil {
		t.Fatal("TopKBatch rerank without attached graph succeeded")
	}
}

// TestJoinPublicAPI: the query-layer Join applies defaults and surfaces
// ErrTooDense.
func TestJoinPublicAPI(t *testing.T) {
	g := gen.CoauthorGraph(100, 4, 9)
	ix, err := BuildIndex(g, Options{Walks: 60, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	pairs, err := ix.Join(context.Background(), 10, 0.1, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(pairs) == 0 {
		t.Fatal("Join returned no pairs on a community graph at threshold 0.1")
	}
	for i, p := range pairs {
		if p.A >= p.B {
			t.Fatalf("pair %d not canonical: %+v", i, p)
		}
		if p.Score < 0.1 {
			t.Fatalf("pair %d below threshold: %+v", i, p)
		}
		if i > 0 && pairs[i-1].Score < p.Score {
			t.Fatalf("pairs out of order at %d: %+v then %+v", i, pairs[i-1], p)
		}
		// Scores must be the index estimates, bitwise.
		got, err := ix.Pair(p.A, p.B)
		if err != nil {
			t.Fatal(err)
		}
		if got != p.Score {
			t.Fatalf("pair %d score %g, Pair says %g", i, p.Score, got)
		}
	}
	if _, err := ix.Join(context.Background(), 10, 0, &JoinOptions{MaxCandidates: 3}); !errors.Is(err, ErrTooDense) {
		t.Fatalf("Join with cap 3 returned %v, want ErrTooDense", err)
	}
	if _, err := ix.Join(context.Background(), 10, 0, &JoinOptions{MaxCandidates: -1}); err == nil {
		t.Fatal("Join with negative cap succeeded")
	}
}

// BenchmarkJoin times the top-k similarity join behind /v1/join (k = 50,
// θ = 0.1) over R = 200 walks on a web graph and a citation graph, and
// reports the pairs it returns.
func BenchmarkJoin(b *testing.B) {
	for _, wl := range []struct {
		name string
		g    *graph.Graph
	}{
		{"web", gen.WebGraph(2000, 11, 1)},
		{"citation", gen.CitationGraph(2600, 4, 1)},
	} {
		b.Run(wl.name, func(b *testing.B) {
			ix, err := BuildIndex(wl.g, Options{Walks: 200, Seed: 1})
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				pairs, err := ix.Join(context.Background(), 50, 0.1, nil)
				if err != nil {
					b.Fatal(err)
				}
				if i == 0 {
					b.ReportMetric(float64(len(pairs)), "pairs")
				}
			}
		})
	}
}
