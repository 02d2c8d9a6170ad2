package walkindex

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"testing"

	"oipsr/graph"
	"oipsr/graph/gen"
	"oipsr/graph/gio"
	"oipsr/internal/sparserow"
)

// sweepRows is the model of the coalescence order: the sweep that answered
// before it, every source against every owned target's stored row. Per
// target the first-meeting weights C^(t+1) are added in fingerprint order
// and the sum is scaled by 1/R; an owned source's own cell is exactly 1.
// Foreign sources are recomputed from g. Tests compare the order against
// it with ==.
func sweepRows(ix *Index, g *graph.Graph, sources []int) [][]float64 {
	inv := 1 / float64(ix.r)
	out := make([][]float64, len(sources))
	for i, q := range sources {
		src := ix.sourceRow(g, q, nil)
		row := make([]float64, ix.Width())
		for v := range row {
			if ix.lo+v == q {
				row[v] = 1
				continue
			}
			target := ix.store.row(v)
			var s float64
			for fp := 0; fp < ix.r; fp++ {
				if t := meetStep(src.walk(fp), target.walk(fp)); t >= 0 {
					s += ix.pow[t]
				}
			}
			row[v] = s * inv
		}
		out[i] = row
	}
	return out
}

// sweepRow is sweepRows for one source of a full-range index.
func sweepRow(ix *Index, q int) []float64 { return sweepRows(ix, nil, []int{q})[0] }

// requireSameForest fails unless got's order and meeting steps are, entry
// for entry, the ones a from-scratch build (want) sorted.
func requireSameForest(t *testing.T, got, want *Index, what string) {
	t.Helper()
	if !slices.Equal(got.forest.order, want.forest.order) {
		t.Fatalf("%s: patched order differs from a rebuild", what)
	}
	if !slices.Equal(got.forest.meet, want.forest.meet) {
		t.Fatalf("%s: patched meeting steps differ from a rebuild", what)
	}
}

// requireCanonicalForest checks the structure against its definition, with
// no reference to how it was built: every fingerprint's order is strictly
// ascending by key and every meeting step is the neighbours' first meeting.
func requireCanonicalForest(t *testing.T, ix *Index) {
	t.Helper()
	width := ix.Width()
	for fp := 0; fp < ix.r; fp++ {
		ord, mt := ix.forest.order[fp*width:(fp+1)*width], ix.forest.meet[fp*width:(fp+1)*width]
		for i, v := range ord {
			var want uint16
			if i+1 < width {
				next := ord[i+1]
				if !keyLess(ix.path(v, fp), int(v), ix.path(next, fp), int(next)) {
					t.Fatalf("fingerprint %d: ranks %d and %d out of key order", fp, i, i+1)
				}
				want = firstMeet(ix.path(v, fp), ix.path(next, fp))
			}
			if mt[i] != want {
				t.Fatalf("fingerprint %d rank %d: meeting step %d, the paths say %d", fp, i, mt[i], want)
			}
		}
	}
}

// requireSparseRows fails unless ix.SparseRows answers exactly the non-zero
// cells of dense (MultiSource rows over ix's range), under global vertex
// ids, ascending, scores compared with ==.
func requireSparseRows(t *testing.T, ix *Index, g *graph.Graph, sources []int, workers int, dense [][]float64, what string) {
	t.Helper()
	rows, err := ix.SparseRows(context.Background(), g, sources, workers)
	if err != nil {
		t.Fatal(err)
	}
	defer sparserow.Release(rows...)
	for i, row := range rows {
		want := &sparserow.Row{}
		want.AppendDense(int32(ix.lo), dense[i])
		if !slices.Equal(row.IDs, want.IDs) || !slices.Equal(row.Scores, want.Scores) {
			t.Fatalf("%s: SparseRows row %d (q=%d) = %v, the dense row's non-zeros are %v", what, i, sources[i], row, want)
		}
	}
}

// requireForestEqualsSweep is the "order ≡ sweep" gate on one graph:
// SingleSource for every source, Pair, and MultiSource on the full range
// and on every range of a 2- and a 3-way split (owned, foreign and
// duplicate sources; workers 1, 2, 8), all compared with == against the
// sweep over the same rows — and SparseRows, from the order and converted
// from the sweep, against the non-zero cells of those rows.
func requireForestEqualsSweep(t *testing.T, g *graph.Graph, opt Options) {
	t.Helper()
	n := g.NumVertices()
	full, err := buildFull(g, opt)
	if err != nil {
		t.Fatal(err)
	}
	if full.ForestBytes() != int64(6*n*full.r) {
		t.Fatalf("build: forest of %d bytes, want 6·n·R = %d", full.ForestBytes(), 6*n*full.r)
	}
	requireCanonicalForest(t, full)
	want := make([][]float64, n)
	for q := 0; q < n; q++ {
		want[q] = sweepRow(full, q)
		if got := ssRow(t, full, q); !slices.Equal(got, want[q]) {
			t.Fatalf("SingleSource(%d): order %v != sweep %v", q, got, want[q])
		}
		requireSparseRows(t, full, nil, []int{q}, 1, want[q:q+1], "full range, order")
		for v := 0; v < n; v++ {
			if p := full.Pair(nil, q, v); p != want[q][v] {
				t.Fatalf("Pair(%d,%d) = %g, sweep row has %g", q, v, p, want[q][v])
			}
		}
	}
	// A reused buffer holding stale scores must be overwritten, not added to.
	stale := slices.Repeat([]float64{0.5}, n)
	if got, err := full.SingleSource(context.Background(), n/2, stale); err != nil || !slices.Equal(got, want[n/2]) {
		t.Fatalf("SingleSource into a dirty buffer: %v, err %v", got, err)
	}

	sources := []int{0, n - 1, n / 2, n / 3, 0, n / 2} // both edges, duplicates
	for _, parts := range []int{1, 2, 3} {
		for _, r := range shardRanges(n, parts) {
			sx, err := Build(g, opt, r[0], r[1])
			if err != nil {
				t.Fatal(err)
			}
			requireCanonicalForest(t, sx)
			for _, workers := range []int{1, 2, 8} {
				rows, err := sx.MultiSource(context.Background(), g, sources, workers)
				if err != nil {
					t.Fatal(err)
				}
				swept := sweepRows(sx, g, sources)
				for i, q := range sources {
					if !slices.Equal(rows[i], swept[i]) || !slices.Equal(rows[i], want[q][r[0]:r[1]]) {
						t.Fatalf("range [%d,%d) workers %d: MultiSource row %d (q=%d) differs from the sweep", r[0], r[1], workers, i, q)
					}
				}
				what := fmt.Sprintf("range [%d,%d) workers %d", r[0], r[1], workers)
				requireSparseRows(t, sx, g, sources, workers, rows, what)
			}
		}
	}
}

// conformanceGraphs loads the six engine-conformance fixtures.
func conformanceGraphs(t *testing.T) map[string]*graph.Graph {
	t.Helper()
	files, err := filepath.Glob("../../simrank/testdata/conformance/*.edges")
	if err != nil || len(files) != 6 {
		t.Fatalf("conformance fixtures: %d files, err %v", len(files), err)
	}
	out := map[string]*graph.Graph{}
	for _, file := range files {
		f, err := os.Open(file)
		if err != nil {
			t.Fatal(err)
		}
		var n int
		fmt.Fscanf(f, "# n=%d", &n) // optional: trailing isolated vertices
		f.Seek(0, 0)
		g, err := gio.ReadEdgeListN(f, n)
		f.Close()
		if err != nil {
			t.Fatalf("%s: %v", file, err)
		}
		out[filepath.Base(file)] = g
	}
	return out
}

// TestForestEqualsSweep runs the gate over the fixtures every other test of
// this package uses, the conformance corpus, and the shapes that stress
// the order: dead walkers, walks that revisit a vertex, degenerate sizes.
func TestForestEqualsSweep(t *testing.T) {
	ring := make([][2]int, 7)
	for i := range ring {
		ring[i] = [2]int{i, (i + 1) % 7}
	}
	cases := []struct {
		name string
		g    *graph.Graph
		opt  Options
	}{
		{"siblings", graph.MustFromEdges(3, [][2]int{{0, 1}, {0, 2}}), Options{C: 0.8, K: 5, Walks: 10, Seed: 1}},
		{"two-cycle", graph.MustFromEdges(2, [][2]int{{0, 1}, {1, 0}}), Options{C: 0.9, K: 50, Walks: 20, Seed: 2}},
		{"dead-and-isolated", graph.MustFromEdges(4, [][2]int{{0, 1}}), Options{Walks: 20, Seed: 5}},
		{"chain-dies", graph.MustFromEdges(3, [][2]int{{0, 1}, {1, 2}}), Options{Walks: 20, K: 6, Seed: 5}},
		{"all-dead", graph.MustFromEdges(5, nil), Options{Walks: 4, K: 3, Seed: 1}},
		{"ring-revisits", graph.MustFromEdges(7, ring), Options{Walks: 6, K: 20, Seed: 3}},
		{"ring-with-chords", graph.MustFromEdges(7, append(ring[:7:7], [2]int{0, 3}, [2]int{5, 3}, [2]int{3, 3})), Options{Walks: 30, K: 25, Seed: 4}},
		{"n=1", graph.MustFromEdges(1, nil), Options{Walks: 3, Seed: 1}},
		{"n=1-selfloop", graph.MustFromEdges(1, [][2]int{{0, 0}}), Options{Walks: 3, Seed: 1}},
		{"K=1", gen.WebGraph(40, 5, 3), Options{Walks: 15, K: 1, Seed: 11}},
		{"K=2", gen.WebGraph(40, 5, 3), Options{Walks: 15, K: 2, Seed: 11}},
		{"fuzz-seed", graph.MustFromEdges(6, [][2]int{{0, 1}, {1, 2}, {2, 0}, {3, 1}, {4, 2}, {5, 4}}), Options{C: 0.6, K: 4, Walks: 3, Seed: 1}},
		{"web", gen.WebGraph(150, 6, 13), Options{Walks: 60, Seed: 3}},
		{"citation", gen.CitationGraph(120, 4, 8), Options{Walks: 25, Seed: 13}},
		{"parent-fixture", gen.WebGraph(130, 5, 7), Options{C: 0.7, K: 6, Walks: 8, Seed: 42}},
		{"underflowing-weights", gen.WebGraph(30, 4, 9), Options{C: 1e-200, K: 4, Walks: 12, Seed: 6}},
	}
	for name, g := range conformanceGraphs(t) {
		cases = append(cases, struct {
			name string
			g    *graph.Graph
			opt  Options
		}{name, g, Options{Walks: 12, K: 11, Seed: 7}})
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) { requireForestEqualsSweep(t, c.g, c.opt) })
	}
}

// TestForestEqualsSweepRandom: random web, citation and sparse
// Erdős–Rényi graphs (the last full of in-degree-0 vertices, so of dead
// walkers), random parameters.
func TestForestEqualsSweepRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for trial := 0; trial < 12; trial++ {
		n := 3 + rng.Intn(90)
		var g *graph.Graph
		switch trial % 3 {
		case 0:
			g = gen.WebGraph(n, 2+rng.Intn(6), rng.Int63())
		case 1:
			g = gen.CitationGraph(n, 2+rng.Intn(4), rng.Int63())
		default:
			g = gen.ErdosRenyi(n, rng.Intn(2*n), rng.Int63())
		}
		opt := Options{Walks: 1 + rng.Intn(30), K: 1 + rng.Intn(14), Seed: rng.Int63(), Workers: 1 + rng.Intn(4)}
		t.Run(fmt.Sprintf("trial%d-n%d", trial, n), func(t *testing.T) { requireForestEqualsSweep(t, g, opt) })
	}
}

// TestForestAfterLoadAndUpdate: the order Load rebuilds is the one Build
// sorted, and the order Update patched still answers like the sweep.
func TestForestAfterLoadAndUpdate(t *testing.T) {
	g := gen.CitationGraph(80, 4, 8)
	opt := Options{Walks: 25, Seed: 13}
	ix, err := buildFull(g, opt)
	if err != nil {
		t.Fatal(err)
	}
	loaded := saveLoadRoundTrip(t, ix)
	requireSameForest(t, loaded, ix, "Load")

	rng := rand.New(rand.NewSource(4))
	for batch := 0; batch < 4; batch++ {
		next, sum, err := g.ApplyEdits(randomEdits(rng, g, 6))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := loaded.Update(next, sum.DirtyIn, 2); err != nil {
			t.Fatal(err)
		}
		g = next
		for q := 0; q < g.NumVertices(); q++ {
			if !slices.Equal(ssRow(t, loaded, q), sweepRow(loaded, q)) {
				t.Fatalf("batch %d: SingleSource(%d) from the patched order differs from the sweep", batch, q)
			}
		}
	}
}

// TestForestConcurrentReaders: queries share the order read-only and the
// touched-list pool; many at once must each get the serial answer (run
// under -race).
func TestForestConcurrentReaders(t *testing.T) {
	g := gen.WebGraph(200, 6, 5)
	ix, err := buildFull(g, Options{Walks: 40, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	want := make([][]float64, g.NumVertices())
	for q := range want {
		want[q] = ssRow(t, ix, q)
	}
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			dst := make([]float64, len(want))
			for q := w; q < len(want); q += 8 {
				got, err := ix.SingleSource(context.Background(), q, dst)
				if err != nil || !slices.Equal(got, want[q]) {
					t.Errorf("concurrent SingleSource(%d) differs (err %v)", q, err)
					return
				}
				rows, err := ix.MultiSource(context.Background(), nil, []int{q, (q + 1) % len(want)}, 2)
				if err != nil || !slices.Equal(rows[0], want[q]) || !slices.Equal(rows[1], want[(q+1)%len(want)]) {
					t.Errorf("concurrent MultiSource(%d) differs (err %v)", q, err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
}

// forestFuzzGraph decodes fuzz bytes into a small graph, index options and
// an edit batch: three parameter bytes, then (u, v) byte pairs — the first
// two thirds are the graph's edges, the rest toggle edges as edits.
func forestFuzzGraph(data []byte) (*graph.Graph, Options, []graph.Edit) {
	for len(data) < 4 {
		data = append(data, 0)
	}
	n := 1 + int(data[0])%20
	opt := Options{K: 1 + int(data[1])%7, Walks: 1 + int(data[2])%5, Seed: int64(data[3]), Workers: 2}
	pairs := data[4:]
	var edges [][2]int
	var edits []graph.Edit
	for i := 0; i+1 < len(pairs); i += 2 {
		u, v := int(pairs[i])%n, int(pairs[i+1])%n
		if i < len(pairs)*2/3 {
			edges = append(edges, [2]int{u, v})
		} else {
			edits = append(edits, graph.Edit{Op: graph.EditOp(i / 2 % 2), U: u, V: v})
		}
	}
	return graph.MustFromEdges(n, edges), opt, edits
}

// FuzzForest: on any small graph the coalescence order answers every
// source exactly like the sweep, on the full range and on an interior
// range, before and after an edit batch, and the patched order is the
// rebuilt one.
func FuzzForest(f *testing.F) {
	f.Add([]byte{6, 3, 2, 1, 0, 1, 1, 2, 2, 0, 3, 1, 4, 2, 5, 4})                    // the FuzzLoad seed graph
	f.Add([]byte{1, 0, 0, 0})                                                        // n=1, no edges
	f.Add([]byte{1, 2, 2, 9, 0, 0})                                                  // n=1 self-loop
	f.Add([]byte{5, 2, 3, 7})                                                        // all walks dead
	f.Add([]byte{7, 6, 4, 3, 0, 1, 1, 2, 2, 3, 3, 4, 4, 5, 5, 6, 6, 0, 0, 3, 6, 0})  // ring: walks revisit vertices; edits cut it
	f.Add([]byte{9, 0, 4, 5, 0, 1, 0, 2, 0, 3, 0, 4, 5, 6, 6, 7, 7, 8, 1, 0, 8, 5})  // K=1 star + chain
	f.Add([]byte{19, 5, 4, 2, 3, 1, 3, 2, 3, 4, 1, 5, 2, 5, 9, 9, 4, 3, 3, 1, 9, 9}) // in-degree-0 hubs, self-loop edit
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 256 {
			t.Skip("keep graphs small")
		}
		g, opt, edits := forestFuzzGraph(data)
		n := g.NumVertices()
		lo, hi := n/3, n-n/4
		check := func(g *graph.Graph, full, part *Index, when string) {
			sources := make([]int, n)
			for q := range sources {
				sources[q] = q
				if !slices.Equal(ssRow(t, full, q), sweepRow(full, q)) {
					t.Fatalf("%s: SingleSource(%d) differs from the sweep", when, q)
				}
			}
			rows, err := part.MultiSource(context.Background(), g, sources, 2)
			if err != nil {
				t.Fatal(err)
			}
			swept := sweepRows(part, g, sources)
			for q := range rows {
				if !slices.Equal(rows[q], swept[q]) {
					t.Fatalf("%s: range [%d,%d) row %d differs from the sweep", when, lo, hi, q)
				}
			}
			requireSparseRows(t, part, g, sources, 2, rows, when)
		}
		full, err := buildFull(g, opt)
		if err != nil {
			t.Fatal(err)
		}
		part, err := Build(g, opt, lo, hi)
		if err != nil {
			t.Fatal(err)
		}
		check(g, full, part, "built")

		g2, sum, err := g.ApplyEdits(edits)
		if err != nil {
			t.Fatal(err)
		}
		for _, ix := range []*Index{full, part} {
			if _, err := ix.Update(g2, sum.DirtyIn, 2); err != nil {
				t.Fatal(err)
			}
			fresh, err := Build(g2, opt, ix.lo, ix.hi)
			if err != nil {
				t.Fatal(err)
			}
			if !ix.Equal(fresh) {
				t.Fatal("repaired index differs from a rebuild")
			}
			requireSameForest(t, ix, fresh, fmt.Sprintf("range [%d,%d)", ix.lo, ix.hi))
		}
		check(g2, full, part, "patched")
	})
}
