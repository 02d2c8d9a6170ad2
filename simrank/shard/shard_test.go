package shard

import (
	"bytes"
	"context"
	"reflect"
	"slices"
	"testing"

	"oipsr/graph"
	"oipsr/graph/gen"
	"oipsr/simrank/query"
)

func TestPlanPartition(t *testing.T) {
	for _, tc := range []struct{ n, shards int }{
		{0, 1}, {1, 1}, {10, 1}, {10, 3}, {10, 10}, {7, 16}, {101, 4},
	} {
		plan, err := Plan(tc.n, tc.shards)
		if err != nil {
			t.Fatalf("Plan(%d,%d): %v", tc.n, tc.shards, err)
		}
		if len(plan) != tc.shards {
			t.Fatalf("Plan(%d,%d): %d ranges", tc.n, tc.shards, len(plan))
		}
		next, minW, maxW := 0, tc.n, 0
		for _, r := range plan {
			if r.Lo != next || r.Hi < r.Lo {
				t.Fatalf("Plan(%d,%d): range %+v breaks partition at %d", tc.n, tc.shards, r, next)
			}
			w := r.Hi - r.Lo
			minW, maxW = min(minW, w), max(maxW, w)
			next = r.Hi
		}
		if next != tc.n {
			t.Fatalf("Plan(%d,%d): covers [0,%d)", tc.n, tc.shards, next)
		}
		if maxW-minW > 1 {
			t.Fatalf("Plan(%d,%d): unbalanced widths [%d,%d]", tc.n, tc.shards, minW, maxW)
		}
	}
	if _, err := Plan(10, 0); err == nil {
		t.Error("Plan with 0 shards: expected error")
	}
	if _, err := Plan(-1, 2); err == nil {
		t.Error("Plan with negative n: expected error")
	}
}

// TestBuildFleetRoundTrip: the shards Plan and Build make of a graph
// answer partial queries that concatenate into the single-node dense rows
// bitwise — also with more shards than vertices, where Plan leaves empty
// trailing ranges that still build and answer.
func TestBuildFleetRoundTrip(t *testing.T) {
	g := gen.WebGraph(57, 6, 2)
	opt := query.Options{Walks: 18, Seed: 7, Workers: 1}
	full, err := query.BuildIndex(g, opt)
	if err != nil {
		t.Fatal(err)
	}
	sources := []int{0, 31, 56}
	ctx := context.Background()
	for _, shards := range []int{3, 59} {
		plan, err := Plan(g.NumVertices(), shards)
		if err != nil {
			t.Fatal(err)
		}
		if last := plan[shards-1]; (shards > 57) != (last.Lo == last.Hi) {
			t.Fatalf("%d shards: last range [%d,%d)", shards, last.Lo, last.Hi)
		}
		got := make([][]float64, len(sources))
		for i, r := range plan {
			s, err := Build(g, opt, r.Lo, r.Hi)
			if err != nil {
				t.Fatalf("%d shards, shard %d: %v", shards, i, err)
			}
			rows, err := s.PartialScores(ctx, sources, 2)
			if err != nil {
				t.Fatal(err)
			}
			for si := range rows {
				got[si] = append(got[si], rows[si]...)
			}
		}
		for si, q := range sources {
			want, err := full.SingleSource(ctx, q)
			if err != nil {
				t.Fatal(err)
			}
			if !slices.Equal(got[si], want) {
				t.Fatalf("%d shards: source %d: the sharded row is not the full one", shards, q)
			}
		}
	}
}

// TestShardApplyEditsParity: after identical edit batches, a shard fleet
// remains an exact partition of the single-node index — same scores, same
// generations.
func TestShardApplyEditsParity(t *testing.T) {
	g := gen.CitationGraph(40, 4, 3)
	opt := query.Options{Walks: 12, Seed: 9, Workers: 1}
	full, err := query.BuildIndex(g, opt)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := Plan(40, 3)
	if err != nil {
		t.Fatal(err)
	}
	shards := make([]*Shard, len(plan))
	for i, r := range plan {
		if shards[i], err = Build(g, opt, r.Lo, r.Hi); err != nil {
			t.Fatal(err)
		}
	}

	ctx := context.Background()
	batches := [][]graph.Edit{
		{{Op: graph.EditAdd, U: 1, V: 39}, {Op: graph.EditAdd, U: 20, V: 0}},
		{{Op: graph.EditRemove, U: 1, V: 39}},
		{{Op: graph.EditAdd, U: 1, V: 39}}, // already removed-re-added churn
	}
	for bi, edits := range batches {
		fullStats, err := full.ApplyEdits(edits, 1)
		if err != nil {
			t.Fatal(err)
		}
		for i, s := range shards {
			stats, err := s.ApplyEdits(edits, 1+i%2)
			if err != nil {
				t.Fatal(err)
			}
			if stats.Generation != fullStats.Generation {
				t.Fatalf("batch %d shard %d: generation %d != full %d", bi, i, stats.Generation, fullStats.Generation)
			}
		}
		q := (bi * 13) % 40
		want, err := full.SingleSource(ctx, q)
		if err != nil {
			t.Fatal(err)
		}
		var got []float64
		for _, s := range shards {
			rows, err := s.PartialScores(ctx, []int{q}, 1)
			if err != nil {
				t.Fatal(err)
			}
			got = append(got, rows[0]...)
		}
		for v := range want {
			if got[v] != want[v] {
				t.Fatalf("batch %d source %d target %d: sharded %v != full %v", bi, q, v, got[v], want[v])
			}
		}
	}

	// A pure no-op batch keeps every generation (and with it every cached
	// response downstream).
	gen0 := shards[0].Generation()
	stats, err := shards[0].ApplyEdits([]graph.Edit{{Op: graph.EditAdd, U: 1, V: 39}}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Generation != gen0 || shards[0].Generation() != gen0 {
		t.Fatalf("no-op batch bumped generation %d -> %d", gen0, stats.Generation)
	}
}

// TestFullRangeBuildIsBuildIndex: the shard over [0, n) is the single-node
// index — Equal, and answering every method of the one handle identically,
// the full-range-only ones included.
func TestFullRangeBuildIsBuildIndex(t *testing.T) {
	g := gen.CoauthorGraph(100, 4, 9)
	opt := query.Options{Walks: 40, Seed: 4, Workers: 1}
	want, err := query.BuildIndex(g, opt)
	if err != nil {
		t.Fatal(err)
	}
	sh, err := Build(g, opt, 0, g.NumVertices())
	if err != nil {
		t.Fatal(err)
	}
	got := sh.Index
	if !got.Equal(want) || !want.Equal(got) {
		t.Fatal("Build(g, opt, 0, n) is not Equal to BuildIndex(g, opt)")
	}
	ctx := context.Background()
	sources := []int{0, 17, 17, 99}
	rerank := &query.TopKOptions{Rerank: true}
	// same runs one call on both handles and demands equal results.
	same := func(name string, call func(ix *query.Index) (any, error)) {
		t.Helper()
		g, gerr := call(got)
		w, werr := call(want)
		if gerr != nil || werr != nil {
			t.Fatalf("%s: %v / %v", name, gerr, werr)
		}
		if !reflect.DeepEqual(g, w) {
			t.Errorf("%s: ranged handle %v, BuildIndex %v", name, g, w)
		}
	}
	for round := 0; round < 2; round++ {
		same("accessors", func(ix *query.Index) (any, error) {
			return []any{ix.N(), ix.Lo(), ix.Hi(), ix.Owns(99), ix.C(), ix.Horizon(), ix.Walks(), ix.Seed(), ix.Bytes(),
				ix.ForestBytes(), ix.Backend(), ix.Generation(), ix.Graph().NumEdges()}, nil
		})
		same("SingleSource", func(ix *query.Index) (any, error) { return ix.SingleSource(ctx, 17) })
		same("SingleSourceInto", func(ix *query.Index) (any, error) { return ix.SingleSourceInto(ctx, 42, make([]float64, 100)) })
		same("Pair", func(ix *query.Index) (any, error) { return ix.Pair(3, 77) })
		same("TopK", func(ix *query.Index) (any, error) { return ix.TopK(ctx, 17, 8, nil) })
		same("TopK rerank", func(ix *query.Index) (any, error) { return ix.TopK(ctx, 17, 8, rerank) })
		same("TopKFromScores", func(ix *query.Index) (any, error) {
			row, err := ix.SingleSource(ctx, 5)
			if err != nil {
				return nil, err
			}
			return ix.TopKFromScores(ctx, row, 5, 6, rerank)
		})
		same("TopKBatch", func(ix *query.Index) (any, error) { return ix.TopKBatch(ctx, sources, 5, rerank, 2) })
		same("MultiSource", func(ix *query.Index) (any, error) { return ix.MultiSource(ctx, sources, 2) })
		same("PartialScores", func(ix *query.Index) (any, error) { return (&Shard{ix}).PartialScores(ctx, sources, 1) })
		same("SparseRows", func(ix *query.Index) (any, error) {
			rows, err := ix.SparseRows(ctx, sources, 2)
			var flat []any
			for _, r := range rows {
				flat = append(flat, append([]int32(nil), r.IDs...), append([]float64(nil), r.Scores...))
			}
			return flat, err
		})
		same("Join", func(ix *query.Index) (any, error) { return ix.Join(ctx, 10, 0.1, &query.JoinOptions{Workers: 2}) })
		same("Save", func(ix *query.Index) (any, error) {
			var buf bytes.Buffer
			err := ix.Save(&buf)
			return buf.Bytes(), err
		})
		same("PrepareUpdates", func(ix *query.Index) (any, error) { return nil, ix.PrepareUpdates(1) })
		same("ApplyEdits", func(ix *query.Index) (any, error) {
			return ix.ApplyEdits([]graph.Edit{{Op: graph.EditAdd, U: 1, V: 99}, {Op: graph.EditRemove, U: 2, V: 0}}, 1)
		})
		if !got.Equal(want) {
			t.Fatalf("round %d: the two handles diverged after the same edits", round)
		}
	}
}

// TestShardValidation: out-of-range sources and pairs are rejected.
func TestShardValidation(t *testing.T) {
	g := gen.WebGraph(20, 4, 1)
	s, err := Build(g, query.Options{Walks: 6}, 0, 10)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	if _, err := s.PartialScores(ctx, []int{20}, 1); err == nil {
		t.Error("out-of-range source: expected error")
	}
	if _, err := s.Pair(3, 25); err == nil {
		t.Error("out-of-range pair: expected error")
	}
}
