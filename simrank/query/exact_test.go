package query

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"testing"

	"oipsr/graph"
	"oipsr/graph/gen"
	"oipsr/graph/gio"
	"oipsr/internal/par"
)

// The gate of this file: exactScorer ≡ referenceScorer, bit for bit — every
// pair score compared with math.Float64bits, and after each source the
// table holding the reference's map (same keys, scores, weights) less the
// zeros of pairs with an empty in-list.

// testScorer takes a pooled scorer under a live context and gives it back
// when the test ends.
func testScorer(t testing.TB, g *graph.Graph, c float64, k int, pruneEps float64) *exactScorer {
	t.Helper()
	ex, err := newExactScorer(context.Background(), g, c, k, pruneEps)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(ex.release)
	return &ex
}

// requireSameMemo: the table's live entries are the reference's map, less
// the pairs with an empty in-list — those score 0 at any weight and the
// table scorer answers them from the degrees, without an entry.
func requireSameMemo(t testing.TB, ex *exactScorer, ref *referenceScorer, what string) {
	t.Helper()
	stored := 0
	for key, want := range ref.memo {
		i, ok := ex.memo.find(uint64(key.a)<<32|uint64(key.b), uint32(key.rem))
		if ex.g.InDegree(key.a) == 0 || ex.g.InDegree(key.b) == 0 {
			if ok || want.score != 0 {
				t.Fatalf("%s: dead pair (%d,%d) rem %d: in the table %v, reference score %v", what, key.a, key.b, key.rem, ok, want.score)
			}
			continue
		}
		if !ok {
			t.Fatalf("%s: memo lacks (%d,%d) rem %d", what, key.a, key.b, key.rem)
		}
		stored++
		got := ex.memo.slots[i]
		if math.Float64bits(got.score) != math.Float64bits(want.score) || math.Float64bits(got.weight) != math.Float64bits(want.weight) {
			t.Fatalf("%s: memo (%d,%d) rem %d = {%v %v}, reference {%v %v}", what, key.a, key.b, key.rem, got.score, got.weight, want.score, want.weight)
		}
	}
	if ex.memo.live != stored {
		t.Fatalf("%s: memo holds %d entries, the reference %d with in-neighbors on both sides", what, ex.memo.live, stored)
	}
}

// scorerOn is newExactScorer over a table the test owns instead of a pooled
// one: emptied, not replaced, so what earlier calls left in it is what the
// next call must not see.
func scorerOn(memo *memoTable, g *graph.Graph, c float64, k int, pruneEps float64) *exactScorer {
	memo.reset()
	return &exactScorer{
		g: g, c: c, k: k, pruneEps: pruneEps,
		memo:   memo,
		cancel: *par.NewCancelChecker(context.Background(), memoCancelEvery),
	}
}

// requireSameScores scores (q, v) for every v of cands, in order, on ex
// (its memo empty) and on a fresh reference.
func requireSameScores(t testing.TB, ex *exactScorer, q int, cands []int, what string) {
	t.Helper()
	ref := newReferenceScorer(ex.g, ex.c, ex.k, ex.pruneEps)
	for _, v := range cands {
		got, err := ex.pair(q, v)
		if err != nil {
			t.Fatal(err)
		}
		if want := ref.pair(q, v); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("%s: s(%d,%d) = %v (%#x), reference %v (%#x)", what, q, v, got, math.Float64bits(got), want, math.Float64bits(want))
		}
	}
	requireSameMemo(t, ex, ref, fmt.Sprintf("%s q=%d", what, q))
}

// referenceRank is RankScores with the rerank done by the reference: the
// same pool, the same candidate order, the same final sort.
func referenceRank(g *graph.Graph, c float64, horizon int, scores []float64, q, k int, opt TopKOptions) []Ranked {
	cands := topByScore(scores, q, RerankPool(len(scores), k, opt.Candidates))
	if opt.PruneEps == 0 {
		opt.PruneEps = 1e-5
	}
	ref := newReferenceScorer(g, c, horizon, opt.PruneEps)
	for i := range cands {
		cands[i].Score = ref.pair(q, cands[i].Vertex)
	}
	sort.SliceStable(cands, func(i, j int) bool {
		if cands[i].Score != cands[j].Score {
			return cands[i].Score > cands[j].Score
		}
		return cands[i].Vertex < cands[j].Vertex
	})
	return cands[:min(k, len(cands))]
}

// conformanceGraphs loads the six engine-conformance fixtures.
func conformanceGraphs(t *testing.T) map[string]*graph.Graph {
	t.Helper()
	files, err := filepath.Glob("../testdata/conformance/*.edges")
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

// scorerFixtures are the inline graphs the package's other tests use, the
// conformance corpus, and the shapes that stress the recursion: vertices
// without in-neighbors (answered without a memo entry), self-loops (x == y
// hit inside the double loop), hubs, and one of each generator.
func scorerFixtures(t *testing.T) map[string]*graph.Graph {
	ring := make([][2]int, 7)
	for i := range ring {
		ring[i] = [2]int{i, (i + 1) % 7}
	}
	out := map[string]*graph.Graph{
		"siblings":          graph.MustFromEdges(3, [][2]int{{0, 1}, {0, 2}}),
		"two-cycle":         graph.MustFromEdges(2, [][2]int{{0, 1}, {1, 0}}),
		"dead-and-isolated": graph.MustFromEdges(4, [][2]int{{0, 1}}),
		"no-edges":          graph.MustFromEdges(5, nil),
		"n=1-selfloop":      graph.MustFromEdges(1, [][2]int{{0, 0}}),
		"ring-with-chords":  graph.MustFromEdges(7, append(ring[:7:7], [2]int{0, 3}, [2]int{5, 3}, [2]int{3, 3})),
		"all-selfloops":     graph.MustFromEdges(4, [][2]int{{0, 0}, {1, 1}, {2, 2}, {3, 3}, {0, 1}, {1, 2}, {2, 3}, {3, 0}}),
		"fuzz-seed":         graph.MustFromEdges(6, [][2]int{{0, 1}, {1, 2}, {2, 0}, {3, 1}, {4, 2}, {5, 4}}),
		"web":               gen.WebGraph(150, 8, 101),
		"citation":          gen.CitationGraph(120, 5, 102),
		"coauthor":          gen.CoauthorGraph(100, 4, 103),
		"er-sparse":         gen.ErdosRenyi(80, 90, 104),
	}
	for name, g := range conformanceGraphs(t) {
		out[name] = g
	}
	return out
}

// TestScorerEqualsReference: on every fixture, for every prune threshold
// and horizon the satellite names, every source's scores against all other
// vertices — in id order, so deep, shallow, hub and dead pairs interleave
// and the memo's reuse rule sees weights from both sides — equal the
// reference's, and so does the memo it leaves behind.
func TestScorerEqualsReference(t *testing.T) {
	for name, g := range scorerFixtures(t) {
		n := g.NumVertices()
		all := make([]int, n)
		for v := range all {
			all[v] = v
		}
		for _, eps := range []float64{1e-3, 1e-5, 1e-7, 1e-15} {
			for _, k := range []int{1, 2, 13} {
				if eps == 1e-15 && k == 13 && n > 60 {
					continue // unpruned and deep on a hub graph: the exponential case pruning exists for
				}
				for _, q := range spread(n, 12) {
					ex, err := newExactScorer(context.Background(), g, 0.6, k, eps)
					if err != nil {
						t.Fatal(err)
					}
					requireSameScores(t, &ex, q, all, fmt.Sprintf("%s eps=%g K=%d", name, eps, k))
					ex.release()
				}
			}
		}
	}
}

// TestRerankEqualsReferenceRandom: the public path — TopK with Rerank, all
// through the pool — against RankScores' logic run on the reference, on
// random graphs of every generator with self-loops added and in-degree-0
// vertices present, over the satellite's pool sizes and thresholds.
func TestRerankEqualsReferenceRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	for trial := 0; trial < 16; trial++ {
		n := 20 + rng.Intn(160)
		var g *graph.Graph
		switch trial % 4 {
		case 0:
			g = gen.WebGraph(n, 3+rng.Intn(8), rng.Int63())
		case 1:
			g = gen.CitationGraph(n, 2+rng.Intn(5), rng.Int63())
		case 2:
			g = gen.CoauthorGraph(n, 2+rng.Intn(4), rng.Int63())
		default:
			g = gen.ErdosRenyi(n, n+rng.Intn(3*n), rng.Int63())
		}
		var loops []graph.Edit
		for i := 0; i < 1+n/10; i++ {
			v := rng.Intn(n)
			loops = append(loops, graph.Edit{Op: graph.EditAdd, U: v, V: v})
		}
		g, _, err := g.ApplyEdits(loops)
		if err != nil {
			t.Fatal(err)
		}
		k := []int{1, 2, 13}[trial%3]
		ix, err := BuildIndex(g, Options{K: k, Walks: 20 + rng.Intn(40), Seed: rng.Int63()})
		if err != nil {
			t.Fatal(err)
		}
		for _, cands := range []int{0, 25, 100} {
			for _, eps := range []float64{0, 1e-3, 1e-7} {
				opt := TopKOptions{Rerank: true, Candidates: cands, PruneEps: eps}
				for _, q := range spread(n, 6) {
					scores, err := ix.SingleSource(context.Background(), q)
					if err != nil {
						t.Fatal(err)
					}
					got, err := ix.TopK(context.Background(), q, 10, &opt)
					if err != nil {
						t.Fatal(err)
					}
					want := referenceRank(g, ix.C(), k, scores, q, min(10, n-1), opt)
					if len(got) != len(want) {
						t.Fatalf("trial %d %+v q=%d: %d results, reference %d", trial, opt, q, len(got), len(want))
					}
					for i := range want {
						if got[i].Vertex != want[i].Vertex || math.Float64bits(got[i].Score) != math.Float64bits(want[i].Score) {
							t.Fatalf("trial %d %+v q=%d result %d: %+v, reference %+v", trial, opt, q, i, got[i], want[i])
						}
					}
				}
			}
		}
	}
}

// TestScorerReuse: one scorer serving call after call — over 1000 of them,
// hopping between graphs, horizons and thresholds — answers each like a
// fresh reference: nothing of an earlier call survives a reset. The table
// starts at two slots, so it grows in the middle of recursions.
func TestScorerReuse(t *testing.T) {
	graphs := []*graph.Graph{
		gen.WebGraph(90, 6, 5),
		gen.CitationGraph(70, 4, 6),
		gen.CoauthorGraph(60, 4, 7),
		graph.MustFromEdges(6, [][2]int{{0, 1}, {1, 2}, {2, 0}, {3, 1}, {4, 2}, {5, 4}, {4, 4}}),
	}
	memo := &memoTable{slots: make([]memoEntry, 2)}
	rng := rand.New(rand.NewSource(23))
	grew := false
	for call := 0; call < 1200; call++ {
		if call%300 == 299 {
			memo.slots = make([]memoEntry, 2) // grow again
		}
		g := graphs[rng.Intn(len(graphs))]
		n := g.NumVertices()
		cands := make([]int, 1+rng.Intn(8))
		for i := range cands {
			cands[i] = rng.Intn(n)
		}
		before := len(memo.slots)
		ex := scorerOn(memo, g, 0.6, []int{1, 2, 5, 13}[rng.Intn(4)], []float64{1e-3, 1e-5, 1e-7}[rng.Intn(3)])
		requireSameScores(t, ex, rng.Intn(n), cands, fmt.Sprintf("call %d", call))
		grew = grew || len(memo.slots) > before
	}
	if !grew {
		t.Fatal("the table never grew: the test lost its point")
	}
}

// TestScorerStaleEntries drives the two places where entries of an earlier
// call could leak into a later one, with calls that ask for the same pairs
// under another damping factor, so that any survivor is a wrong answer: a
// table that grows while it still holds stale entries, and the epoch stamp
// wrapping around onto the value those entries carry.
func TestScorerStaleEntries(t *testing.T) {
	g := gen.WebGraph(90, 6, 5)
	all := make([]int, g.NumVertices())
	for v := range all {
		all[v] = v
	}
	memo := &memoTable{slots: make([]memoEntry, 2)}
	for k, c := range []float64{0: 0.6, 1: 0.8, 2: 0.5, 3: 0.7} {
		before := len(memo.slots)
		ex := scorerOn(memo, g, c, k, 1e-15) // unpruned: every horizon adds a level of entries
		requireSameScores(t, ex, 3, all, fmt.Sprintf("growing call, K=%d", k))
		if k > 0 && len(memo.slots) == before {
			t.Fatalf("the call with K=%d did not grow the table: the test lost its point", k)
		}
	}

	memo = &memoTable{slots: make([]memoEntry, 2)}
	requireSameScores(t, scorerOn(memo, g, 0.6, 13, 1e-7), 3, all, "before the wrap") // epoch 1
	memo.epoch = math.MaxUint32
	ex := scorerOn(memo, g, 0.8, 13, 1e-7)
	if memo.epoch != 1 {
		t.Fatalf("epoch after the wrap = %d, want 1", memo.epoch)
	}
	requireSameScores(t, ex, 3, all, "after the wrap")
}

// TestPruneEpsValidation: a negative or NaN PruneEps would disable pruning
// without saying so; every entry point refuses it, rerank asked or not,
// before doing any work.
func TestPruneEpsValidation(t *testing.T) {
	g := gen.WebGraph(40, 4, 1)
	ix, err := BuildIndex(g, Options{Walks: 10, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	scores, err := ix.SingleSource(ctx, 3)
	if err != nil {
		t.Fatal(err)
	}
	calls := map[string]func(opt *TopKOptions) error{
		"TopK": func(opt *TopKOptions) error { _, err := ix.TopK(ctx, 3, 5, opt); return err },
		"TopKFromScores": func(opt *TopKOptions) error {
			_, err := ix.TopKFromScores(ctx, scores, 3, 5, opt)
			return err
		},
		"TopKBatch": func(opt *TopKOptions) error { _, err := ix.TopKBatch(ctx, []int{3, 4}, 5, opt, 2); return err },
		"RankScores": func(opt *TopKOptions) error {
			_, err := RankScores(ctx, g, ix.C(), ix.Horizon(), scores, 3, 5, opt)
			return err
		},
	}
	cases := []struct {
		eps float64
		ok  bool
	}{
		{0, true}, {1e-5, true}, {0.5, true}, {2, true}, {math.Inf(1), true},
		{-1e-300, false}, {-1, false}, {math.Inf(-1), false}, {math.NaN(), false},
	}
	for name, call := range calls {
		for _, tc := range cases {
			for _, rerank := range []bool{false, true} {
				err := call(&TopKOptions{Rerank: rerank, PruneEps: tc.eps})
				if (err == nil) != tc.ok {
					t.Errorf("%s(PruneEps %v, rerank %v): err = %v, want ok = %v", name, tc.eps, rerank, err, tc.ok)
				}
			}
		}
	}
}

// scorerFuzzGraph decodes fuzz bytes: n, horizon, threshold and source,
// then (u, v) byte pairs as edges — self-loops and vertices without
// in-neighbors included.
func scorerFuzzGraph(data []byte) (g *graph.Graph, k int, pruneEps float64, q int) {
	for len(data) < 4 {
		data = append(data, 0)
	}
	n := 1 + int(data[0])%24
	k = int(data[1]) % 9
	pruneEps = []float64{1e-15, 1e-7, 1e-5, 1e-3, 0.05, 1.5}[int(data[2])%6]
	q = int(data[3]) % n
	var edges [][2]int
	for pairs := data[4:]; len(pairs) >= 2; pairs = pairs[2:] {
		edges = append(edges, [2]int{int(pairs[0]) % n, int(pairs[1]) % n})
	}
	return graph.MustFromEdges(n, edges), k, pruneEps, q
}

// FuzzExactScorer: on any small graph, horizon and threshold, the table
// scorer and the reference agree on every pair with the source, bit for
// bit, and on the memo left behind — with the table forced to grow from
// two slots.
func FuzzExactScorer(f *testing.F) {
	f.Add([]byte{6, 4, 2, 0, 0, 1, 1, 2, 2, 0, 3, 1, 4, 2, 5, 4})                                // the FuzzLoad seed graph
	f.Add([]byte{1, 3, 0, 0, 0, 0})                                                              // n=1 self-loop
	f.Add([]byte{5, 2, 1, 3})                                                                    // no edges
	f.Add([]byte{7, 8, 0, 2, 0, 1, 1, 2, 2, 3, 3, 4, 4, 5, 5, 6, 6, 0, 0, 3, 5, 3, 3, 3})        // ring, chords, a self-loop, unpruned
	f.Add([]byte{10, 0, 2, 1, 1, 0, 2, 0, 3, 0, 0, 1, 0, 2})                                     // K=0
	f.Add([]byte{9, 5, 5, 4, 0, 1, 0, 2, 0, 3, 0, 4, 1, 2, 2, 3})                                // threshold above 1: everything pruned at the root
	f.Add([]byte{23, 7, 3, 9, 1, 0, 2, 0, 3, 0, 4, 0, 5, 0, 0, 1, 0, 2, 0, 3, 6, 1, 6, 2, 7, 7}) // star with back-edges: the frontier at depth 2
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 128 {
			t.Skip("keep graphs small")
		}
		g, k, pruneEps, q := scorerFuzzGraph(data)
		all := make([]int, g.NumVertices())
		for v := range all {
			all[v] = v
		}
		ex := scorerOn(&memoTable{slots: make([]memoEntry, 2)}, g, 0.6, k, pruneEps)
		requireSameScores(t, ex, q, all, "fuzz")
	})
}
