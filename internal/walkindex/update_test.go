package walkindex

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"oipsr/graph"
	"oipsr/graph/gen"
)

// saveLoadRoundTrip serializes ix and loads it back, so tests can exercise
// behavior on an index without in-memory derived state.
func saveLoadRoundTrip(t *testing.T, ix *Index) *Index {
	t.Helper()
	loaded, err := Load(bytes.NewReader(saveBytes(t, ix, IndexFile)), IndexFile)
	if err != nil {
		t.Fatal(err)
	}
	return loaded
}

// randomEdits draws a mixed add/remove batch against g: removals of
// existing edges, additions of arbitrary pairs (which may be no-ops).
func randomEdits(rng *rand.Rand, g *graph.Graph, count int) []graph.Edit {
	n := g.NumVertices()
	var existing [][2]int
	g.Edges(func(u, v int) bool {
		existing = append(existing, [2]int{u, v})
		return true
	})
	edits := make([]graph.Edit, count)
	for i := range edits {
		if len(existing) > 0 && rng.Intn(2) == 0 {
			e := existing[rng.Intn(len(existing))]
			edits[i] = graph.Edit{Op: graph.EditRemove, U: e[0], V: e[1]}
		} else {
			edits[i] = graph.Edit{Op: graph.EditAdd, U: rng.Intn(n), V: rng.Intn(n)}
		}
	}
	return edits
}

// TestUpdateBitIdenticalProperty is the acceptance property: for random
// edit batches on random graphs, Update produces an index Equal() to a
// fresh Build on the edited graph, for every worker count — including
// across chains of successive batches, where each batch probes walks an
// earlier batch repaired — and the patched coalescence order is, entry
// for entry, the one that fresh Build sorted ("patched ≡ rebuilt").
func TestUpdateBitIdenticalProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for trial := 0; trial < 25; trial++ {
		n := 5 + rng.Intn(60)
		g := gen.ErdosRenyi(n, 2+rng.Intn(5*n), rng.Int63())
		opt := Options{Walks: 10 + rng.Intn(30), Seed: rng.Int63(), Workers: 1}

		for _, workers := range []int{1, 2, 3, 7} {
			opt.Workers = workers
			ix, err := buildFull(g, opt)
			if err != nil {
				t.Fatal(err)
			}
			cur := g
			for batch := 0; batch < 3; batch++ {
				edits := randomEdits(rng, cur, 1+rng.Intn(12))
				next, sum, err := cur.ApplyEdits(edits)
				if err != nil {
					t.Fatal(err)
				}
				if _, err := ix.Update(next, sum.DirtyIn, workers); err != nil {
					t.Fatal(err)
				}
				fresh, err := buildFull(next, opt)
				if err != nil {
					t.Fatal(err)
				}
				if !ix.Equal(fresh) {
					t.Fatalf("trial %d workers %d batch %d: Update != fresh Build (n=%d, %d edits, %d dirty)",
						trial, workers, batch, n, len(edits), len(sum.DirtyIn))
				}
				requireSameForest(t, ix, fresh, fmt.Sprintf("trial %d workers %d batch %d", trial, workers, batch))
				cur = next
			}
		}
	}
}

// TestUpdateResurrectsDeadWalks: adding an in-edge to a previously
// in-degree-0 vertex must revive the walks that died there.
func TestUpdateResurrectsDeadWalks(t *testing.T) {
	// 0 <- 1 <- 2; vertex 0 has in-degree 0, so every walk from any vertex
	// eventually dies at 0.
	g := graph.MustFromEdges(3, [][2]int{{0, 1}, {1, 2}})
	ix, err := buildFull(g, Options{Walks: 20, K: 6, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	// All of vertex 0's walks are dead from the first step.
	for fp := 0; fp < 20; fp++ {
		if ix.denseRow(0, nil)[fp*6] != -1 {
			t.Fatalf("walk (0,%d) alive on a source vertex", fp)
		}
	}
	g2, sum, err := g.ApplyEdits([]graph.Edit{{Op: graph.EditAdd, U: 2, V: 0}})
	if err != nil {
		t.Fatal(err)
	}
	changed, err := ix.Update(g2, sum.DirtyIn, 1)
	if err != nil {
		t.Fatal(err)
	}
	if changed == 0 {
		t.Fatal("cycle-closing edit repaired no walks")
	}
	fresh, err := buildFull(g2, Options{Walks: 20, K: 6, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if !ix.Equal(fresh) {
		t.Fatal("resurrected index != fresh build")
	}
	// On the 0->1->2->0 cycle no walk can die anymore.
	for v := 0; v < ix.n; v++ {
		for i, p := range ix.denseRow(v, nil) {
			if p == -1 {
				t.Fatalf("path entry %d of vertex %d still dead after the cycle closed", i, v)
			}
		}
	}
}

// TestUpdateNoopBatch: a dirty set that changes nothing repairs nothing
// and leaves the index bit-identical.
func TestUpdateNoopBatch(t *testing.T) {
	g := gen.WebGraph(40, 5, 3)
	ix, err := buildFull(g, Options{Walks: 15, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	before, err := buildFull(g, Options{Walks: 15, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	changed, err := ix.Update(g, nil, 1)
	if err != nil {
		t.Fatal(err)
	}
	if changed != 0 {
		t.Fatalf("empty dirty set repaired %d walks", changed)
	}
	// Extra dirty vertices whose in-lists did not change are harmless.
	changed, err = ix.Update(g, []int{0, 1, 2}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !ix.Equal(before) {
		t.Fatalf("no-op update changed the index (%d walks repaired)", changed)
	}
}

// TestUpdateAfterLoad: Update needs nothing but the stored walks and the
// graph, so it must work on a Load()ed index exactly as on the original.
func TestUpdateAfterLoad(t *testing.T) {
	g := gen.CitationGraph(50, 4, 8)
	opt := Options{Walks: 25, Seed: 13}
	ix, err := buildFull(g, opt)
	if err != nil {
		t.Fatal(err)
	}
	loaded := saveLoadRoundTrip(t, ix)

	g2, sum, err := g.ApplyEdits([]graph.Edit{
		{Op: graph.EditAdd, U: 7, V: 3},
		{Op: graph.EditRemove, U: g.In(1)[0], V: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := loaded.Update(g2, sum.DirtyIn, 2); err != nil {
		t.Fatal(err)
	}
	fresh, err := buildFull(g2, opt)
	if err != nil {
		t.Fatal(err)
	}
	if !loaded.Equal(fresh) {
		t.Fatal("update after Load != fresh build")
	}
}

func TestUpdateValidation(t *testing.T) {
	g := gen.WebGraph(20, 4, 1)
	ix, err := buildFull(g, Options{Walks: 5, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	other := gen.WebGraph(21, 4, 1)
	if _, err := ix.Update(other, nil, 1); err == nil {
		t.Error("Update accepted a graph with a different vertex count")
	}
	if _, err := ix.Update(g, []int{-1}, 1); err == nil {
		t.Error("Update accepted a negative dirty vertex")
	}
	if _, err := ix.Update(g, []int{20}, 1); err == nil {
		t.Error("Update accepted an out-of-range dirty vertex")
	}
}
