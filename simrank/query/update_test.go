package query

import (
	"bytes"
	"context"
	"math/rand"
	"slices"
	"testing"

	"oipsr/graph"
	"oipsr/graph/gen"
)

// saveLoadQueryIndex round-trips an index through Save/Load, dropping the
// attached graph and any derived update state.
func saveLoadQueryIndex(t *testing.T, ix *Index) *Index {
	t.Helper()
	var buf bytes.Buffer
	if err := ix.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	return loaded
}

// TestApplyEditsMatchesRebuild: the public edit path (graph edit + index
// repair + generation bump) must leave the index, whatever range it owns,
// Equal() to a fresh build of that range on the edited graph, with queries
// agreeing exactly — its rows with the single node's, and on the full range
// reranked top-k, which exercises the re-attached graph. The ranges of one
// fleet see the same batches and count the same generations.
func TestApplyEditsMatchesRebuild(t *testing.T) {
	g := gen.WebGraph(120, 7, 21)
	opt := Options{Walks: 150, Seed: 4}
	ctx := context.Background()
	forEachRange(t, g.NumVertices(), func(t *testing.T, lo, hi int) {
		ix := buildRange(t, g, opt, lo, hi, true)
		if ix.Generation() != 0 {
			t.Fatalf("fresh index generation = %d", ix.Generation())
		}
		rng := rand.New(rand.NewSource(77))
		cur := g
		for batch := 1; batch <= 3; batch++ {
			edits := make([]graph.Edit, 8)
			for i := range edits {
				edits[i] = graph.Edit{Op: graph.EditOp(rng.Intn(2)), U: rng.Intn(120), V: rng.Intn(120)}
			}
			stats, err := ix.ApplyEdits(edits, 2)
			if err != nil {
				t.Fatal(err)
			}
			if stats.Generation != uint64(batch) || ix.Generation() != uint64(batch) {
				t.Fatalf("batch %d: generation = %d/%d", batch, stats.Generation, ix.Generation())
			}

			cur, _, err = cur.ApplyEdits(edits)
			if err != nil {
				t.Fatal(err)
			}
			if ix.Graph().NumEdges() != cur.NumEdges() {
				t.Fatalf("batch %d: attached graph has %d edges, want %d", batch, ix.Graph().NumEdges(), cur.NumEdges())
			}
			if !ix.Equal(buildRange(t, cur, opt, lo, hi, true)) {
				t.Fatalf("batch %d: updated index != fresh build", batch)
			}
			fresh, err := BuildIndex(cur, opt)
			if err != nil {
				t.Fatal(err)
			}
			sources := []int{0, 33, 119}
			rows, err := ix.MultiSource(ctx, sources, 2)
			if err != nil {
				t.Fatal(err)
			}
			for i, q := range sources {
				want, err := fresh.SingleSource(ctx, q)
				if err != nil {
					t.Fatal(err)
				}
				if !slices.Equal(rows[i], want[lo:hi]) {
					t.Fatalf("batch %d q %d: repaired rows differ from a fresh single node's", batch, q)
				}
				if hi-lo < 120 {
					continue
				}
				got, err := ix.TopK(ctx, q, 10, &TopKOptions{Rerank: true})
				if err != nil {
					t.Fatal(err)
				}
				wantTop, err := fresh.TopK(ctx, q, 10, &TopKOptions{Rerank: true})
				if err != nil {
					t.Fatal(err)
				}
				if !slices.Equal(got, wantTop) {
					t.Fatalf("batch %d q %d: reranked %+v, want %+v", batch, q, got, wantTop)
				}
			}
		}

		// A batch of pure no-ops keeps the generation, and with it every
		// response cached downstream.
		noop := []graph.Edit{{Op: graph.EditRemove, U: 5, V: 5}}
		if cur.HasEdge(5, 5) {
			noop[0].Op = graph.EditAdd
		}
		stats, err := ix.ApplyEdits(noop, 1)
		if err != nil {
			t.Fatal(err)
		}
		if stats.Generation != 3 || ix.Generation() != 3 || stats.WalksRepaired != 0 {
			t.Fatalf("no-op batch: stats %+v, generation %d", stats, ix.Generation())
		}
	})
}

// TestApplyEditsErrors: error paths leave graph, index, and generation
// untouched, on every range.
func TestApplyEditsErrors(t *testing.T) {
	g := gen.WebGraph(30, 4, 5)
	opt := Options{Walks: 40, Seed: 1}
	forEachRange(t, g.NumVertices(), func(t *testing.T, lo, hi int) {
		ix := buildRange(t, g, opt, lo, hi, true)
		before := buildRange(t, g, opt, lo, hi, true)
		if _, err := ix.ApplyEdits([]graph.Edit{{Op: graph.EditAdd, U: 0, V: 99}}, 1); err == nil {
			t.Fatal("ApplyEdits accepted an out-of-range edit")
		}
		if ix.Generation() != 0 || ix.Graph() != g || !ix.Equal(before) {
			t.Fatal("failed ApplyEdits mutated the index")
		}
		bare := buildRange(t, g, opt, lo, hi, false)
		if _, err := bare.ApplyEdits([]graph.Edit{{Op: graph.EditAdd, U: 0, V: 1}}, 1); err == nil {
			t.Fatal("ApplyEdits worked without an attached graph")
		}
	})

	ix, err := BuildIndex(g, opt)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := saveLoadQueryIndex(t, ix).ApplyEdits([]graph.Edit{{Op: graph.EditAdd, U: 0, V: 1}}, 1); err == nil {
		t.Fatal("ApplyEdits worked on a loaded index without an attached graph")
	}
}

// TestUpdateAfterLoadFile: a loaded index plus AttachGraph supports the
// full update path.
func TestUpdateAfterLoadFile(t *testing.T) {
	g := gen.CitationGraph(60, 4, 9)
	ix, err := BuildIndex(g, Options{Walks: 60, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	loaded := saveLoadQueryIndex(t, ix)
	if err := loaded.AttachGraph(g); err != nil {
		t.Fatal(err)
	}
	if err := loaded.PrepareUpdates(1); err != nil {
		t.Fatal(err)
	}
	stats, err := loaded.ApplyEdits([]graph.Edit{
		{Op: graph.EditAdd, U: 10, V: 20},
		{Op: graph.EditRemove, U: 10, V: 20},
		{Op: graph.EditAdd, U: 3, V: 50},
	}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if stats.EdgesAdded != 1 || stats.EdgesRemoved != 0 {
		t.Fatalf("stats = %+v, want one net add", stats)
	}
	g2, _, err := g.ApplyEdits([]graph.Edit{{Op: graph.EditAdd, U: 3, V: 50}})
	if err != nil {
		t.Fatal(err)
	}
	fresh, err := BuildIndex(g2, Options{Walks: 60, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if !loaded.Equal(fresh) {
		t.Fatal("loaded+updated index != fresh build on edited graph")
	}
}
