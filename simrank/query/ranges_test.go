package query

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"oipsr/graph"
	"oipsr/graph/gen"
	"oipsr/internal/par"
	"oipsr/internal/sparserow"
	"oipsr/internal/walkindex"
)

// forEachRange runs f over the full range [0, n) and over each part of the
// 3-way split of it: one suite over ranges, where there used to be one over
// query.Index and one over shard.Shard. The split is shard.Plan's — that
// package imports this one, so par.Range, which Plan calls, stands in.
func forEachRange(t *testing.T, n int, f func(t *testing.T, lo, hi int)) {
	t.Helper()
	t.Run("full", func(t *testing.T) { f(t, 0, n) })
	for i := 0; i < 3; i++ {
		lo, hi := par.Range(n, 3, i)
		t.Run(fmt.Sprintf("part%d", i), func(t *testing.T) { f(t, lo, hi) })
	}
}

// buildRange is BuildIndex over [lo, hi): what shard.Build does. Without
// attach the handle has no graph, as after a load.
func buildRange(t *testing.T, g *graph.Graph, opt Options, lo, hi int, attach bool) *Index {
	t.Helper()
	wi, err := walkindex.Build(g, opt, lo, hi)
	if err != nil {
		t.Fatal(err)
	}
	if !attach {
		g = nil
	}
	ix, err := NewIndex(wi, g)
	if err != nil {
		t.Fatal(err)
	}
	return ix
}

// TestMultiSourceBitIdenticalToSingleSource: SingleSource (also into a
// buffer holding stale scores) is the row Pair scores cell by cell, and
// MultiSource and SparseRows on any range — owned sources, foreign ones,
// duplicates — return the [Lo, Hi) slice of it, bit for bit, for every
// worker count; and Pair scores any pair as the single node does.
func TestMultiSourceBitIdenticalToSingleSource(t *testing.T) {
	g := gen.WebGraph(120, 6, 3)
	opt := Options{Walks: 50, Seed: 2}
	full, err := BuildIndex(g, opt)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	sources := []int{3, 60, 3, 119, 41, 80}
	want := make([][]float64, len(sources))
	stale := slices.Repeat([]float64{0.5}, g.NumVertices())
	for i, q := range sources {
		want[i] = pairRow(t, full, q)
		got, err := full.SingleSource(ctx, q)
		if err != nil {
			t.Fatal(err)
		}
		into, err := full.SingleSourceInto(ctx, q, stale)
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(got, want[i]) || !slices.Equal(into, want[i]) {
			t.Fatalf("q=%d: SingleSource or SingleSourceInto differs from the Pair row", q)
		}
	}
	forEachRange(t, g.NumVertices(), func(t *testing.T, lo, hi int) {
		ix := buildRange(t, g, opt, lo, hi, true)
		if ix.Lo() != lo || ix.Hi() != hi || ix.N() != 120 || ix.Owns(lo) != (hi > lo) || ix.Owns(hi) {
			t.Fatalf("range accessors: [%d,%d) of %d, Owns(lo)=%v Owns(hi)=%v", ix.Lo(), ix.Hi(), ix.N(), ix.Owns(lo), ix.Owns(hi))
		}
		for _, workers := range []int{1, 3} {
			rows, err := ix.MultiSource(ctx, sources, workers)
			if err != nil {
				t.Fatal(err)
			}
			sparse, err := ix.SparseRows(ctx, sources, workers)
			if err != nil {
				t.Fatal(err)
			}
			for i, q := range sources {
				if !slices.Equal(rows[i], want[i][lo:hi]) {
					t.Fatalf("workers=%d q=%d: MultiSource row is not the [%d,%d) slice of the full row", workers, q, lo, hi)
				}
				run := sparseOf(int32(lo), want[i][lo:hi])
				if !slices.Equal(sparse[i].IDs, run.IDs) || !slices.Equal(sparse[i].Scores, run.Scores) {
					t.Fatalf("workers=%d q=%d: SparseRows %v, want the run %v of the full row", workers, q, sparse[i], run)
				}
			}
			sparserow.Release(sparse...)
		}
		for _, p := range [][2]int{{3, 60}, {41, 80}, {0, 119}, {60, 61}} {
			wantScore, _ := full.Pair(p[0], p[1])
			got, err := ix.Pair(p[0], p[1])
			if err != nil {
				t.Fatal(err)
			}
			if got != wantScore {
				t.Fatalf("pair %v: Pair %v, single node %v", p, got, wantScore)
			}
		}
	})
}

// TestRangeJoinHalvesComposeToJoin: the walk index under every range's
// handle, given the handle's graph, answers the single node's Join bit for
// bit — candidate enumeration and scoring, the two halves, run on any range
// because foreign walk prefixes are recomputed from the graph — and fails
// with the same ErrTooDense text. (query.Index.Join itself stays a
// full-range call; TestPartialRangeRefusals checks the refusal.)
func TestRangeJoinHalvesComposeToJoin(t *testing.T) {
	g := gen.CoauthorGraph(100, 4, 9)
	opt := Options{Walks: 60, Seed: 4}
	full, err := BuildIndex(g, opt)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	want, err := full.Join(ctx, 10, 0.1, nil)
	if err != nil || len(want) == 0 {
		t.Fatalf("single node: %d pairs, %v", len(want), err)
	}
	_, wantDense := full.Join(ctx, 10, 0, &JoinOptions{MaxCandidates: 5})
	if !errors.Is(wantDense, ErrTooDense) {
		t.Fatalf("cap 5: %v, want ErrTooDense", wantDense)
	}
	forEachRange(t, g.NumVertices(), func(t *testing.T, lo, hi int) {
		ix := buildRange(t, g, opt, lo, hi, true)
		for _, workers := range []int{1, 3} {
			got, err := ix.wi.Join(ctx, ix.g, 10, 0.1, DefaultMaxCandidates, workers)
			if err != nil {
				t.Fatal(err)
			}
			if !slices.Equal(got, want) {
				t.Fatalf("workers=%d: range join %v\nsingle node: %v", workers, got, want)
			}
		}
		if _, err := ix.wi.Join(ctx, ix.g, 10, 0, 5, 2); err == nil || err.Error() != wantDense.Error() {
			t.Fatalf("cap 5: %v, want %v", err, wantDense)
		}
	})
}

// TestRangeValidation: what every range refuses, in the same words — a
// source or pair that is no vertex, any score row without the graph the
// coalescence order is sorted from, and, on a partial range only, a pair
// or join without the graph foreign walks are recomputed from.
func TestRangeValidation(t *testing.T) {
	g := gen.WebGraph(30, 4, 1)
	opt := Options{Walks: 20, Seed: 1}
	ctx := context.Background()
	forEachRange(t, g.NumVertices(), func(t *testing.T, lo, hi int) {
		ix := buildRange(t, g, opt, lo, hi, true)
		if _, err := ix.MultiSource(ctx, []int{lo, 99}, 1); err == nil || !strings.Contains(err.Error(), "source 99 (batch item 1) out of range [0,30)") {
			t.Fatalf("MultiSource with a bad source: %v, want an error naming batch item 1", err)
		}
		if _, err := ix.SparseRows(ctx, []int{-1}, 1); err == nil || !strings.Contains(err.Error(), "batch item 0") {
			t.Fatalf("SparseRows with a negative source: %v", err)
		}
		for _, p := range [][2]int{{0, 30}, {31, 4}} {
			if _, err := ix.Pair(p[0], p[1]); err == nil || !strings.Contains(err.Error(), "out of range [0,30)") {
				t.Fatalf("Pair%v: %v, want an out-of-range error", p, err)
			}
		}

		bare := buildRange(t, g, opt, lo, hi, false)
		_, errRows := bare.MultiSource(ctx, []int{lo}, 1)
		_, errSparse := bare.SparseRows(ctx, []int{lo}, 1)
		_, errPair := bare.Pair(1, 2)
		for name, err := range map[string]error{"MultiSource": errRows, "SparseRows": errSparse, "Pair": errPair} {
			rows := name == "MultiSource" || name == "SparseRows"
			switch full := lo == 0 && hi == 30; {
			case full && rows:
				if err == nil || !strings.Contains(err.Error(), name+" needs the source graph (AttachGraph after Load)") {
					t.Errorf("%s on a full range without a graph: %v, want the refusal of a row without its order", name, err)
				}
			case full:
				if err != nil {
					t.Errorf("%s on a full range without a graph: %v, want an answer (nothing is foreign)", name, err)
				}
			default:
				if err == nil || !strings.Contains(err.Error(), "needs the source graph") {
					t.Errorf("%s on a partial range without a graph: %v, want a refusal", name, err)
				}
			}
		}
		if err := bare.AttachGraph(gen.WebGraph(31, 4, 1)); err == nil {
			t.Error("AttachGraph accepted a graph of another size")
		}
		if err := bare.AttachGraph(g); err != nil {
			t.Fatal(err)
		}
		if _, err := bare.MultiSource(ctx, []int{0, 29}, 1); err != nil {
			t.Errorf("MultiSource after AttachGraph: %v", err)
		}
	})
}

// TestPartialRangeRefusals: every method that needs all n rows answers a
// partial range with the one error — none panics, none answers.
func TestPartialRangeRefusals(t *testing.T) {
	g := gen.WebGraph(30, 4, 1)
	ctx := context.Background()
	ix := buildRange(t, g, Options{Walks: 20, Seed: 1}, 10, 20, true)
	scores := make([]float64, 30)
	calls := map[string]func() error{
		"SingleSource":      func() error { _, err := ix.SingleSource(ctx, 12); return err },
		"SingleSourceInto":  func() error { _, err := ix.SingleSourceInto(ctx, 12, scores); return err },
		"TopK":              func() error { _, err := ix.TopK(ctx, 12, 5, nil); return err },
		"TopK rerank":       func() error { _, err := ix.TopK(ctx, 12, 5, &TopKOptions{Rerank: true}); return err },
		"TopKFromScores":    func() error { _, err := ix.TopKFromScores(ctx, scores, 12, 5, nil); return err },
		"TopKBatch":         func() error { _, err := ix.TopKBatch(ctx, []int{12, 3}, 5, nil, 1); return err },
		"Join":              func() error { _, err := ix.Join(ctx, 5, 0.1, nil); return err },
		"ExactSingleSource": func() error { _, err := ix.ExactSingleSource(ctx, 12, nil); return err },
		"PrepareExact":      func() error { return ix.PrepareExact(ctx, 1) },
		"Save":              func() error { return ix.Save(&bytes.Buffer{}) },
		"SaveFile":          func() error { return ix.SaveFile(filepath.Join(t.TempDir(), "partial.idx")) },
	}
	for name, call := range calls {
		err := call()
		if err == nil || !strings.Contains(err.Error(), "needs a full-range index, this one owns [10,20) of [0,30)") {
			t.Errorf("%s on [10,20) of 30: %v, want the full-range refusal", name, err)
		}
	}
	if _, built := ix.ExactStats(); built {
		t.Error("ExactStats reports a solver on a partial range")
	}
}

// walkLens lists the live length of every owned walk, vertex-major.
func walkLens(ix *Index) []int {
	var lens []int
	for v := ix.Lo(); v < ix.Hi(); v++ {
		for fp := 0; fp < ix.Walks(); fp++ {
			lens = append(lens, len(ix.wi.Walk(nil, v, fp)))
		}
	}
	return lens
}

// modelWords is the resident store's data size in 4-byte words, counted
// from the walks' live lengths: per vertex with a live walk, a header of
// ⌈R/2⌉ words packing R uint16 end offsets, then its live positions. R·K
// stays below 2¹⁶ in these tests, so a vertex is one group.
func modelWords(r int, lens []int) []int {
	words := make([]int, len(lens)/r)
	for v := range words {
		live := 0
		for _, l := range lens[v*r : (v+1)*r] {
			live += l
		}
		if live > 0 {
			words[v] = (r+1)/2 + live
		}
	}
	return words
}

// modelBytes is Bytes of a resident store whose vertices hold words data
// words each, dead arena words included: 8 bytes of offset per vertex, 4
// per word.
func modelBytes(words []int, dead int) int64 {
	b := 8*int64(len(words)) + 4*int64(dead)
	for _, w := range words {
		b += 4 * int64(w)
	}
	return b
}

// TestRangeSizeAccounting: Bytes is the ragged layout counted from the
// walks — exactly, on every range; a shard set's Bytes add up to the full
// index's, because offsets and segments are per vertex and a range adds
// no term of its own; and after a batch that lengthens walks, Bytes also
// counts the arena's dead words. ForestBytes is 10 bytes a slot of the
// order — w walkers and one empty slot after every 20, per fingerprint —
// and 4 per stored walk; the no-op PrepareUpdates moves neither.
func TestRangeSizeAccounting(t *testing.T) {
	g := gen.CitationGraph(90, 4, 3)
	opt := Options{Walks: 16, Seed: 2}
	n := g.NumVertices()
	full := buildRange(t, g, opt, 0, n, false)
	var parts int64
	for i := 0; i < 3; i++ {
		lo, hi := par.Range(n, 3, i)
		parts += buildRange(t, g, opt, lo, hi, false).Bytes()
	}
	if parts != full.Bytes() {
		t.Errorf("a 3-way shard set holds %d bytes, the full index %d", parts, full.Bytes())
	}
	forEachRange(t, n, func(t *testing.T, lo, hi int) {
		ix := buildRange(t, g, opt, lo, hi, true)
		if ix.Walks()*ix.Horizon() >= 1<<16 {
			t.Fatal("the model assumes one group per vertex")
		}
		lens := walkLens(ix)
		words := modelWords(ix.Walks(), lens)
		if want := modelBytes(words, 0); ix.Bytes() != want {
			t.Errorf("Bytes = %d, the walks say %d", ix.Bytes(), want)
		}
		width, walks := int64(hi-lo), int64(ix.Walks())
		if want := 10*(width+width/20)*walks + 4*width*walks; ix.ForestBytes() != want {
			t.Errorf("ForestBytes = %d, want 10·(w + w/20)·R + 4·w·R = %d", ix.ForestBytes(), want)
		}
		before := ix.Bytes() + ix.ForestBytes()
		if err := ix.PrepareUpdates(2); err != nil {
			t.Fatal(err)
		}
		if after := ix.Bytes() + ix.ForestBytes(); after != before {
			t.Errorf("PrepareUpdates moved the resident size from %d to %d bytes", before, after)
		}

		// Give the vertex where the first short owned walk dies an
		// in-edge: the walks that died there live on, and every vertex
		// whose lengths changed leaves its old segment dead in the arena.
		short := slices.IndexFunc(lens, func(l int) bool { return l < ix.Horizon() })
		v, fp := lo+short/ix.Walks(), short%ix.Walks()
		x := v
		if w := ix.wi.Walk(nil, v, fp); len(w) > 0 {
			x = int(w[len(w)-1])
		}
		if _, err := ix.ApplyEdits([]graph.Edit{{Op: graph.EditAdd, U: (x + 1) % n, V: x}}, 2); err != nil {
			t.Fatal(err)
		}
		after := walkLens(ix)
		if slices.Equal(after, lens) {
			t.Fatal("the edit lengthened no walk")
		}
		newWords, dead := modelWords(ix.Walks(), after), 0
		for u, w := range words {
			if !slices.Equal(lens[u*ix.Walks():(u+1)*ix.Walks()], after[u*ix.Walks():(u+1)*ix.Walks()]) {
				dead += w
			}
		}
		if dead == 0 || 2*dead > int(modelBytes(newWords, dead)-8*width)/4 {
			t.Fatalf("%d dead words: the edit must move a live segment, and not so many that the arena compacts", dead)
		}
		if want := modelBytes(newWords, dead); ix.Bytes() != want {
			t.Errorf("Bytes = %d after the batch, the walks and the arena say %d", ix.Bytes(), want)
		}
		if ix.Backend() != "dense" || ix.Close() != nil {
			t.Errorf("Backend = %q", ix.Backend())
		}
	})
}
