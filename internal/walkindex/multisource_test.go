package walkindex

import (
	"testing"

	"oipsr/graph"
	"oipsr/graph/gen"
)

// TestMultiSourceBitIdenticalToSingleSource: every row of a batched query
// must equal the corresponding independent SingleSource call bitwise, for
// every batch shape and worker count — the acceptance criterion of the
// shared-traversal sweep.
func TestMultiSourceBitIdenticalToSingleSource(t *testing.T) {
	g := gen.WebGraph(150, 6, 13)
	ix, err := buildFull(g, Options{Walks: 60, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	all := make([]int, 0, 15)
	for q := 0; q < 150; q += 10 {
		all = append(all, q)
	}
	batches := [][]int{
		{5},                // a batch of one
		{3, 3},             // duplicate sources
		{0, 7, 33, 149, 7}, // mixed, with a repeat
		all,                // a wide batch
	}
	for _, sources := range batches {
		for _, workers := range []int{1, 2, 3, 7} {
			rows := msRows(t, ix, sources, workers)
			if len(rows) != len(sources) {
				t.Fatalf("MultiSource(%v) returned %d rows", sources, len(rows))
			}
			for i, q := range sources {
				want := ssRow(t, ix, q)
				for v := range want {
					if rows[i][v] != want[v] {
						t.Fatalf("workers=%d sources=%v: row %d (q=%d) differs at v=%d: %g vs %g",
							workers, sources, i, q, v, rows[i][v], want[v])
					}
				}
			}
		}
	}
}

// TestMultiSourceDeadAndIsolated: sources whose walks die immediately (and
// fully isolated vertices) behave exactly like SingleSource — score 1 for
// the source itself, 0 everywhere else.
func TestMultiSourceDeadAndIsolated(t *testing.T) {
	g := graph.MustFromEdges(4, [][2]int{{0, 1}}) // 2 and 3 isolated, 0 a source
	ix, err := buildFull(g, Options{Walks: 20, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	rows := msRows(t, ix, []int{0, 2, 3}, 2)
	for i, q := range []int{0, 2, 3} {
		want := ssRow(t, ix, q)
		for v := range want {
			if rows[i][v] != want[v] {
				t.Fatalf("q=%d v=%d: %g vs %g", q, v, rows[i][v], want[v])
			}
		}
		if rows[i][q] != 1 {
			t.Fatalf("q=%d: self score %g, want 1", q, rows[i][q])
		}
	}
}

// TestMultiSourceEmptyBatch: an empty batch is a clean no-op.
func TestMultiSourceEmptyBatch(t *testing.T) {
	g := gen.WebGraph(20, 4, 1)
	ix, err := buildFull(g, Options{Walks: 10, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if rows := msRows(t, ix, nil, 3); len(rows) != 0 {
		t.Fatalf("MultiSource(nil) returned %d rows, want 0", len(rows))
	}
}
