package walkindex

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math"
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

// liveForest returns fingerprint fp's live view: its walkers in key order,
// each one's meeting step with the next and key head, and each walker's
// rank in that order — what the order would hold without its empty slots.
func liveForest(ix *Index, fp int) (ord []int32, mt []uint16, hd []uint32, rk []int32) {
	slots, meets, heads, _ := ix.forest.fingerprint(fp)
	rk = make([]int32, ix.Width())
	for i, v := range slots {
		if v >= 0 {
			rk[v] = int32(len(ord))
			ord, mt, hd = append(ord, v), append(mt, meets[i]), append(hd, heads[i])
		}
	}
	return ord, mt, hd, rk
}

// requireGappedLayout checks the slots behind the live view: every
// fingerprint has orderSlots(width) slots of which width/gapEvery are
// empty, every empty slot holds -1 and meeting step 1, and every walker's
// rank is its slot.
func requireGappedLayout(t *testing.T, ix *Index, what string) {
	t.Helper()
	width := ix.Width()
	for fp := 0; fp < ix.r; fp++ {
		ord, mt, hd, rk := ix.forest.fingerprint(fp)
		if len(ord) != orderSlots(width) || len(mt) != len(ord) || len(hd) != len(ord) || len(rk) != width {
			t.Fatalf("%s: fingerprint %d has %d slots, %d meeting steps, %d heads and %d ranks over %d walkers", what, fp, len(ord), len(mt), len(hd), len(rk), width)
		}
		empty := 0
		for i, v := range ord {
			if v < 0 {
				empty++
				if v != -1 || mt[i] != 1 {
					t.Fatalf("%s: fingerprint %d empty slot %d holds %d / %d, want -1 / 1", what, fp, i, v, mt[i])
				}
			}
		}
		if empty != width/gapEvery {
			t.Fatalf("%s: fingerprint %d has %d empty slots, want %d", what, fp, empty, width/gapEvery)
		}
		for v, at := range rk {
			if at < 0 || int(at) >= len(ord) || ord[at] != int32(v) {
				t.Fatalf("%s: fingerprint %d: walker %d ranked at slot %d, which does not hold it", what, fp, v, at)
			}
		}
	}
}

// requireSameForest fails unless got's live order, meeting steps, key
// heads and ranks are, entry for entry, the ones a from-scratch build
// (want) sorted, and both layouts are sound.
func requireSameForest(t *testing.T, got, want *Index, what string) {
	t.Helper()
	requireGappedLayout(t, got, what)
	requireGappedLayout(t, want, what+", the rebuild")
	for fp := 0; fp < got.r; fp++ {
		gord, gmt, ghd, grk := liveForest(got, fp)
		word, wmt, whd, wrk := liveForest(want, fp)
		if !slices.Equal(gord, word) {
			t.Fatalf("%s: fingerprint %d: patched order differs from a rebuild", what, fp)
		}
		if !slices.Equal(gmt, wmt) {
			t.Fatalf("%s: fingerprint %d: patched meeting steps differ from a rebuild", what, fp)
		}
		if !slices.Equal(ghd, whd) {
			t.Fatalf("%s: fingerprint %d: patched key heads differ from a rebuild", what, fp)
		}
		if !slices.Equal(grk, wrk) {
			t.Fatalf("%s: fingerprint %d: patched ranks differ from a rebuild", what, fp)
		}
	}
}

// requireCanonicalForest checks the structure against its definition, with
// no reference to how it was built: the layout is sound, every
// fingerprint's live order is strictly ascending by key and holds every
// walker, every meeting step is the neighbours' first meeting, every key
// head is the head of its walker's path, heads never decrease along the
// order, neighbours meet if and only if their heads are equal (short of
// the clamp), and the ranks are the order's inverse.
func requireCanonicalForest(t *testing.T, ix *Index) {
	t.Helper()
	requireGappedLayout(t, ix, "canonical")
	width := ix.Width()
	for fp := 0; fp < ix.r; fp++ {
		ord, mt, hd, rk := liveForest(ix, fp)
		if len(ord) != width {
			t.Fatalf("fingerprint %d: %d walkers in the order, want %d", fp, len(ord), width)
		}
		for i, v := range ord {
			if int(rk[v]) != i {
				t.Fatalf("fingerprint %d: walker %d at rank %d, its rank entry says %d", fp, v, i, rk[v])
			}
			if h := keyHead(ix.path(v, fp), int(v), ix.n); hd[i] != h {
				t.Fatalf("fingerprint %d rank %d: key head %d, walker %d's path says %d", fp, i, hd[i], v, h)
			}
			var want uint16
			if i+1 < width {
				next := ord[i+1]
				if !keyLess(ix.path(v, fp), int(v), ix.path(next, fp), int(next)) {
					t.Fatalf("fingerprint %d: ranks %d and %d out of key order", fp, i, i+1)
				}
				want = firstMeet(ix.path(v, fp), ix.path(next, fp))
				if hd[i] > hd[i+1] {
					t.Fatalf("fingerprint %d: key heads fall from %d to %d between ranks %d and %d", fp, hd[i], hd[i+1], i, i+1)
				}
				if (want != 0) != (hd[i] == hd[i+1]) && hd[i] != math.MaxUint32 {
					t.Fatalf("fingerprint %d: ranks %d and %d meet at step %d with heads %d and %d", fp, i, i+1, want, hd[i], hd[i+1])
				}
			}
			if mt[i] != want {
				t.Fatalf("fingerprint %d rank %d: meeting step %d, the paths say %d", fp, i, mt[i], want)
			}
		}
	}
}

// requireSparseRows fails unless ix.SparseRows answers exactly the non-zero
// cells of dense (model rows over ix's range, sweepRows'), under global
// vertex ids, ascending, scores compared with ==.
func requireSparseRows(t *testing.T, ix *Index, g *graph.Graph, sources []int, workers int, dense [][]float64, what string) {
	t.Helper()
	rows, err := ix.SparseRows(context.Background(), g, sources, workers)
	if err != nil {
		t.Fatal(err)
	}
	defer sparserow.Release(rows...)
	for i, row := range rows {
		want := sparseOf(int32(ix.lo), dense[i])
		if !slices.Equal(row.IDs, want.IDs) || !slices.Equal(row.Scores, want.Scores) {
			t.Fatalf("%s: SparseRows row %d (q=%d) = %v, the dense row's non-zeros are %v", what, i, sources[i], row, want)
		}
	}
}

// requireForestEqualsSweep is the "order ≡ sweep" gate on one graph:
// SparseRows for every source alone and Pair on the full range, and
// SparseRows batches on every range of a 2- and a 3-way split (owned,
// foreign and duplicate sources; workers 1, 2, 8), against the non-zero
// cells of the sweep over the same rows, scores compared with ==; a
// range's sweep is also the slice of the full range's.
func requireForestEqualsSweep(t *testing.T, g *graph.Graph, opt Options) {
	t.Helper()
	n := g.NumVertices()
	full, err := buildFull(g, opt)
	if err != nil {
		t.Fatal(err)
	}
	if want := int64(10*orderSlots(n)*full.r + 4*n*full.r); full.ForestBytes() != want {
		t.Fatalf("build: forest of %d bytes, want 10·(n + n/%d)·R + 4·n·R = %d", full.ForestBytes(), gapEvery, want)
	}
	requireCanonicalForest(t, full)
	want := make([][]float64, n)
	for q := 0; q < n; q++ {
		want[q] = sweepRow(full, q)
		requireSparseRows(t, full, nil, []int{q}, 1, want[q:q+1], "full range, order")
		for v := 0; v < n; v++ {
			if p := full.Pair(nil, q, v); p != want[q][v] {
				t.Fatalf("Pair(%d,%d) = %g, sweep row has %g", q, v, p, want[q][v])
			}
		}
	}

	sources := []int{0, n - 1, n / 2, n / 3, 0, n / 2} // both edges, duplicates
	for _, parts := range []int{1, 2, 3} {
		for _, r := range shardRanges(n, parts) {
			sx, err := Build(g, opt, r[0], r[1])
			if err != nil {
				t.Fatal(err)
			}
			requireCanonicalForest(t, sx)
			swept := sweepRows(sx, g, sources)
			for i, q := range sources {
				if !slices.Equal(swept[i], want[q][r[0]:r[1]]) {
					t.Fatalf("range [%d,%d): the sweep of q=%d is not the slice of the full range's", r[0], r[1], q)
				}
			}
			for _, workers := range []int{1, 2, 8} {
				what := fmt.Sprintf("range [%d,%d) workers %d", r[0], r[1], workers)
				requireSparseRows(t, sx, g, sources, workers, swept, what)
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

// TestKeyHeadNearClamp: on vertex counts so large that the heads of the
// longest walks pass 2³²−1 (n·(K+1) ≥ 2³², a synthetic n: no graph is
// built), a key head is monotone in the key order — head(a) < head(b)
// implies keyLess(a, b) — and is L·n + pos_L below the clamp, 2³²−1 from
// it on, and the store-local id of a walk dead before step 1, whether the
// walk is its live prefix or padded with -1 to the horizon.
func TestKeyHeadNearClamp(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, k := range []int{2, 3, 5, 13, 40} {
		for _, div := range []int{k + 1, k, k - 1} {
			n := int(min((1<<32+uint64(div)-1)/uint64(div), math.MaxInt32))
			if uint64(n)*uint64(k+1) < 1<<32 {
				continue
			}
			// Positions drawn from a few values, so that keys tie on their
			// head and differ further down; the last ones straddle the
			// clamp for the longest walks.
			var near []int32
			for _, p := range []int{0, 1, n / 2, n - 2, n - 1} {
				near = append(near, int32(p))
			}
			for l := max(1, k-1); l <= k; l++ {
				if edge := 1<<32 - 1 - l*n; edge >= 0 && edge < n {
					near = append(near, int32(edge), int32(max(edge-1, 0)), int32(min(edge+1, n-1)))
				}
			}
			walk := func() ([]int32, int) {
				l := k - rng.Intn(3)
				if rng.Intn(8) == 0 {
					l = rng.Intn(k + 1)
				}
				w := make([]int32, l, k)
				for i := range w {
					w[i] = near[rng.Intn(len(near))]
				}
				if rng.Intn(2) == 0 {
					for len(w) < k {
						w = append(w, -1)
					}
				}
				return w, rng.Intn(1000)
			}
			var clamped, exact int
			for range 4000 {
				a, ia := walk()
				b, ib := walk()
				ha, hb := keyHead(a, ia, n), keyHead(b, ib, n)
				for _, c := range []struct {
					w  []int32
					id int
					h  uint32
				}{{a, ia, ha}, {b, ib, hb}} {
					live := livePrefix(c.w)
					want := uint64(c.id)
					if l := len(live); l > 0 {
						want = min(uint64(l)*uint64(n)+uint64(live[l-1]), math.MaxUint32)
						if want == math.MaxUint32 {
							clamped++
						} else {
							exact++
						}
					}
					if uint64(c.h) != want {
						t.Fatalf("K=%d n=%d: head of %v (id %d) = %d, want %d", k, n, c.w, c.id, c.h, want)
					}
				}
				if ha < hb && !keyLess(a, ia, b, ib) || hb < ha && !keyLess(b, ib, a, ia) {
					t.Fatalf("K=%d n=%d: heads %d and %d of %v and %v disagree with the key order", k, n, ha, hb, a, b)
				}
			}
			if clamped == 0 || exact == 0 {
				t.Fatalf("K=%d n=%d: %d clamped and %d exact heads, want both", k, n, clamped, exact)
			}
		}
	}
}

// TestForestAfterLoadAndUpdate: the order AttachGraph sorts for a loaded
// index is the one Build sorted, and the order Update patched still
// answers like the sweep.
func TestForestAfterLoadAndUpdate(t *testing.T) {
	g := gen.CitationGraph(80, 4, 8)
	opt := Options{Walks: 25, Seed: 13}
	ix, err := buildFull(g, opt)
	if err != nil {
		t.Fatal(err)
	}
	loaded := saveLoadRoundTrip(t, ix)
	attach(t, loaded, g)
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
			requireSparseRows(t, loaded, nil, []int{q}, 1, [][]float64{sweepRow(loaded, q)}, fmt.Sprintf("batch %d, the patched order", batch))
		}
	}
}

// TestForestLongEditStream: a patched order stays the rebuilt one over a
// long edit stream. 300 random 8-edit batches on a citation graph move
// walkers all over the order — and, as the graph densifies, steadily from
// walkers that die early to walkers that live long, draining the slack at
// one end — then 100 batches aimed at one hub, each adding or removing
// edges from it to random vertices, reroute the walkers they move onto
// the hub and so all into a few classes, draining the empty slots there.
// After every batch the live order, meeting steps and ranks are the
// rebuild's and the layout is sound. The most walkers one insertion moved
// is logged per stream, and the hub stream must have run its
// neighbourhood dry (a re-spread wider than shiftReach).
func TestForestLongEditStream(t *testing.T) {
	g := gen.CitationGraph(1500, 4, 5)
	opt := Options{Walks: 16, Seed: 3}
	ix, err := buildFull(g, opt)
	if err != nil {
		t.Fatal(err)
	}
	n := g.NumVertices()
	hub := 0
	for v := range n {
		if g.OutDegree(v) > g.OutDegree(hub) {
			hub = v
		}
	}
	rng := rand.New(rand.NewSource(11))
	aimed := func(g *graph.Graph) []graph.Edit {
		edits := make([]graph.Edit, 8)
		for i := range edits {
			v := rng.Intn(n)
			op := graph.EditAdd
			if slices.Contains(g.In(v), hub) {
				op = graph.EditRemove
			}
			edits[i] = graph.Edit{Op: op, U: hub, V: v}
		}
		return edits
	}
	for _, stream := range []struct {
		name    string
		batches int
		edits   func(*graph.Graph) []graph.Edit
	}{
		{"random", 300, func(g *graph.Graph) []graph.Edit { return editBatch(rng, g, 8) }},
		{"hub", 100, aimed},
	} {
		var reranked, widest, keyReads int
		for batch := range stream.batches {
			next, sum, err := g.ApplyEdits(stream.edits(g))
			if err != nil {
				t.Fatal(err)
			}
			g = next
			_, ps := ix.repair(g, sum.DirtyIn, 1+batch%3)
			reranked += ps.reranked
			widest = max(widest, ps.widest)
			keyReads += ps.keyReads
			fresh, err := buildFull(g, opt)
			if err != nil {
				t.Fatal(err)
			}
			if !ix.Equal(fresh) {
				t.Fatalf("%s batch %d: repaired walks differ from a rebuild", stream.name, batch)
			}
			requireSameForest(t, ix, fresh, fmt.Sprintf("%s batch %d", stream.name, batch))
		}
		t.Logf("%s stream: %d batches, %d ranks written and %d stored walks read by key searches and meeting steps a batch, at most %d walkers moved by one insertion", stream.name, stream.batches, reranked/stream.batches, keyReads/stream.batches, widest)
		if stream.name == "hub" && widest <= shiftReach {
			t.Fatalf("the hub stream never ran its neighbourhood dry (at most %d walkers moved, the shift reaches %d)", widest, shiftReach)
		}
	}
}

// TestForestConcurrentReaders: queries share the order read-only and the
// touched-list pool; many at once must each get the sweep's answer (run
// under -race).
func TestForestConcurrentReaders(t *testing.T) {
	g := gen.WebGraph(200, 6, 5)
	ix, err := buildFull(g, Options{Walks: 40, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	want := make([][]float64, g.NumVertices())
	for q := range want {
		want[q] = sweepRow(ix, q)
	}
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for q := w; q < len(want); q += 8 {
				one, err := denseRows(context.Background(), ix, nil, []int{q}, 1)
				if err != nil || !slices.Equal(one[0], want[q]) {
					t.Errorf("concurrent row of %d differs (err %v)", q, err)
					return
				}
				rows, err := denseRows(context.Background(), ix, nil, []int{q, (q + 1) % len(want)}, 2)
				if err != nil || !slices.Equal(rows[0], want[q]) || !slices.Equal(rows[1], want[(q+1)%len(want)]) {
					t.Errorf("concurrent batch of %d differs (err %v)", q, err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
}

// forestFuzzGraph decodes fuzz bytes into a graph of up to 64 vertices
// (so that ranges of more than gapEvery walkers, whose orders have empty
// slots, occur), index options and edits: three parameter bytes, then (u,
// v) byte pairs — the first two thirds are the graph's edges, the rest
// toggle edges as edits.
func forestFuzzGraph(data []byte) (*graph.Graph, Options, []graph.Edit) {
	for len(data) < 4 {
		data = append(data, 0)
	}
	n := 1 + int(data[0])%64
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

// reload saves ix as the file kind of its range, loads it back and attaches
// g, the graph its walks were taken on.
func reload(t testing.TB, ix *Index, g *graph.Graph) *Index {
	t.Helper()
	kind := ShardFile
	if ix.lo == 0 && ix.hi == ix.n {
		kind = IndexFile
	}
	loaded, err := Load(bytes.NewReader(saveBytes(t, ix, kind)), kind)
	if err != nil {
		t.Fatal(err)
	}
	attach(t, loaded, g)
	return loaded
}

// FuzzForest: on any small graph the coalescence order answers every
// source exactly like the sweep, on the full range and on an interior
// range, before and after each of three edit batches (the edits split in
// order); the order Save → Load → AttachGraph sorts is the built one, and
// after every batch the patched order — of the built index and of the
// loaded one — and the order of the patched index saved and reloaded are
// the rebuilt one.
func FuzzForest(f *testing.F) {
	f.Add([]byte{6, 3, 2, 1, 0, 1, 1, 2, 2, 0, 3, 1, 4, 2, 5, 4})                    // the FuzzLoad seed graph
	f.Add([]byte{1, 0, 0, 0})                                                        // n=1, no edges
	f.Add([]byte{1, 2, 2, 9, 0, 0})                                                  // n=1 self-loop
	f.Add([]byte{5, 2, 3, 7})                                                        // all walks dead
	f.Add([]byte{7, 6, 4, 3, 0, 1, 1, 2, 2, 3, 3, 4, 4, 5, 5, 6, 6, 0, 0, 3, 6, 0})  // ring: walks revisit vertices; edits cut it
	f.Add([]byte{9, 0, 4, 5, 0, 1, 0, 2, 0, 3, 0, 4, 5, 6, 6, 7, 7, 8, 1, 0, 8, 5})  // K=1 star + chain
	f.Add([]byte{19, 5, 4, 2, 3, 1, 3, 2, 3, 4, 1, 5, 2, 5, 9, 9, 4, 3, 3, 1, 9, 9}) // in-degree-0 hubs, self-loop edit
	f.Add(gappedFuzzSeed())                                                          // 63 vertices: both ranges have empty slots
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
				requireSparseRows(t, full, nil, []int{q}, 1, [][]float64{sweepRow(full, q)}, when+", full range")
			}
			requireSparseRows(t, part, g, sources, 2, sweepRows(part, g, sources), fmt.Sprintf("%s, range [%d,%d)", when, lo, hi))
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
		loaded := []*Index{reload(t, full, g), reload(t, part, g)}
		for i, ix := range []*Index{full, part} {
			requireSameForest(t, loaded[i], ix, fmt.Sprintf("range [%d,%d), loaded", ix.lo, ix.hi))
		}

		for b := range 3 {
			g2, sum, err := g.ApplyEdits(edits[b*len(edits)/3 : (b+1)*len(edits)/3])
			if err != nil {
				t.Fatal(err)
			}
			for i, ix := range []*Index{full, part} {
				fresh, err := Build(g2, opt, ix.lo, ix.hi)
				if err != nil {
					t.Fatal(err)
				}
				for _, jx := range []*Index{ix, loaded[i]} {
					if _, err := jx.Update(g2, sum.DirtyIn, 2); err != nil {
						t.Fatal(err)
					}
					if !jx.Equal(fresh) {
						t.Fatalf("batch %d: repaired index differs from a rebuild", b)
					}
				}
				what := fmt.Sprintf("batch %d, range [%d,%d)", b, ix.lo, ix.hi)
				requireSameForest(t, ix, fresh, what)
				requireSameForest(t, loaded[i], fresh, what+", loaded then patched")
				requireSameForest(t, reload(t, ix, g2), fresh, what+", patched then reloaded")
			}
			g = g2
			check(g, full, part, fmt.Sprintf("patched by batch %d", b))
		}
	})
}

// gappedFuzzSeed is a FuzzForest input on 63 vertices, a ring with chords
// and 24 edits, so that both indexed ranges are wider than gapEvery.
func gappedFuzzSeed() []byte {
	data := []byte{62, 5, 3, 4}
	for v := range 63 {
		data = append(data, byte(v), byte((v+1)%63))
	}
	for v := 0; v < 63; v += 3 {
		data = append(data, byte(v), byte((v*7)%63))
	}
	for v := 0; v < 48; v += 2 {
		data = append(data, byte(v), byte((v*5+1)%63))
	}
	return data
}

// TestAttachGraphRefusesOtherGraph: the order of a loaded index comes from
// the graph attached to it, so a graph with the index's vertex count on
// which one stored walk goes elsewhere — an in-edge removed from a sink
// that opens no posting block, which moves that sink's walks only — is
// refused, and the index keeps refusing queries and repairs until its own
// graph is attached.
func TestAttachGraphRefusesOtherGraph(t *testing.T) {
	g := gen.ErdosRenyi(300, 900, 3)
	opt := Options{Walks: 20, Seed: 5}
	ctx := context.Background()
	for _, r := range [][2]int{{0, 300}, {70, 250}} {
		ix, err := Build(g, opt, r[0], r[1])
		if err != nil {
			t.Fatal(err)
		}
		kind := ShardFile
		if r[0] == 0 {
			kind = IndexFile
		}
		loaded, err := Load(bytes.NewReader(saveBytes(t, ix, kind)), kind)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := loaded.SparseRows(ctx, g, []int{r[0]}, 1); !errors.Is(err, errNoGraph) {
			t.Fatalf("[%d,%d): SparseRows before AttachGraph: err = %v, want errNoGraph", r[0], r[1], err)
		}
		if _, err := loaded.Update(g, []int{r[0]}, 1); !errors.Is(err, errNoGraph) {
			t.Fatalf("[%d,%d): Update before AttachGraph: err = %v, want errNoGraph", r[0], r[1], err)
		}
		if err := loaded.AttachGraph(gen.ErdosRenyi(301, 900, 3), 1); !errors.Is(err, ErrGraphMismatch) {
			t.Fatalf("[%d,%d): a graph of another size: err = %v, want ErrGraphMismatch", r[0], r[1], err)
		}

		// A vertex v that opens no posting block and has no out-edges, so
		// that no other vertex's walk ever stands on it: removing the edge
		// u -> v its first live walk leaves over changes v's walks and no
		// one else's.
		v, u := -1, -1
		for b := ix.Width() - 1; b >= 0 && v < 0; b-- {
			if b%v2BlockVertices == 0 || g.OutDegree(r[0]+b) > 0 {
				continue
			}
			for fp := 0; fp < ix.r; fp++ {
				if w := ix.Walk(nil, r[0]+b, fp); len(w) > 0 {
					v, u = r[0]+b, int(w[0])
					break
				}
			}
		}
		if v < 0 {
			t.Fatalf("[%d,%d): no owned sink with a live walk opens no block", r[0], r[1])
		}
		cut, _, err := g.ApplyEdits([]graph.Edit{{Op: graph.EditRemove, U: u, V: v}})
		if err != nil {
			t.Fatal(err)
		}
		if err := loaded.AttachGraph(cut, 1); !errors.Is(err, ErrGraphMismatch) {
			t.Fatalf("[%d,%d): edge %d->%d removed: err = %v, want ErrGraphMismatch", r[0], r[1], u, v, err)
		}
		if _, err := loaded.SparseRows(ctx, g, []int{r[0]}, 1); !errors.Is(err, errNoGraph) {
			t.Fatalf("[%d,%d): SparseRows after a refused graph: err = %v, want errNoGraph", r[0], r[1], err)
		}
		attach(t, loaded, g)
		requireSameForest(t, loaded, ix, "attached after a refusal")
	}
}
