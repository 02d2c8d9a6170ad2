package walkindex

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"oipsr/graph/gen"
	"oipsr/internal/par"
	"oipsr/internal/sparserow"
)

// shardRanges partitions [0, n) into `parts` contiguous ranges with the
// same balanced split par.Range produces — the planner's partition shape.
func shardRanges(n, parts int) [][2]int {
	out := make([][2]int, parts)
	for w := 0; w < parts; w++ {
		lo, hi := par.Range(n, parts, w)
		out[w] = [2]int{lo, hi}
	}
	return out
}

// TestBuildShardEqualsFullSlice: the partition invariant — every shard's
// stored rows are exactly the corresponding rows of a full Build.
func TestBuildShardEqualsFullSlice(t *testing.T) {
	g := gen.WebGraph(73, 6, 11)
	opt := Options{Walks: 20, Seed: 42, Workers: 2}
	full, err := buildFull(g, opt)
	if err != nil {
		t.Fatal(err)
	}
	for _, parts := range []int{1, 2, 3, 5} {
		covered := 0
		for _, r := range shardRanges(g.NumVertices(), parts) {
			sx, err := Build(g, opt, r[0], r[1])
			if err != nil {
				t.Fatal(err)
			}
			for v := r[0]; v < r[1]; v++ {
				if !slices.Equal(sx.denseRow(v-r[0], nil), full.denseRow(v, nil)) {
					t.Fatalf("parts=%d shard [%d,%d): row %d differs from the full index", parts, r[0], r[1], v)
				}
			}
			covered += sx.Width()
		}
		if covered != g.NumVertices() {
			t.Fatalf("parts=%d: partition covers %d of %d vertices", parts, covered, g.NumVertices())
		}
	}
}

func TestBuildShardValidation(t *testing.T) {
	g := gen.WebGraph(20, 4, 1)
	for _, r := range [][2]int{{-1, 5}, {5, 4}, {0, 21}, {19, 25}} {
		if _, err := Build(g, Options{Walks: 5}, r[0], r[1]); err == nil {
			t.Errorf("range [%d,%d): expected error", r[0], r[1])
		}
	}
	if _, err := Build(g, Options{C: 2}, 0, 10); err == nil {
		t.Error("invalid damping factor: expected error")
	}
}

// TestRangedMultiSourceMatchesFull: concatenating the SparseRows rows of a
// covering set of ranges reproduces the full-range rows bitwise, with no
// merge arithmetic — for owned sources, foreign sources, duplicates, and
// every worker count.
func TestRangedMultiSourceMatchesFull(t *testing.T) {
	g := gen.CitationGraph(61, 5, 7)
	opt := Options{Walks: 25, Seed: 3, Workers: 2}
	full, err := buildFull(g, opt)
	if err != nil {
		t.Fatal(err)
	}
	n := g.NumVertices()
	sources := []int{0, 17, 60, 17, 33} // ends, interior, duplicate
	want, err := full.SparseRows(context.Background(), nil, sources, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer sparserow.Release(want...)

	for _, parts := range []int{1, 2, 4} {
		for _, workers := range []int{1, 3} {
			got := make([]*sparserow.Row, len(sources))
			for i := range got {
				got[i] = &sparserow.Row{}
			}
			for _, r := range shardRanges(n, parts) {
				sx, err := Build(g, opt, r[0], r[1])
				if err != nil {
					t.Fatal(err)
				}
				rows, err := sx.SparseRows(context.Background(), g, sources, workers)
				if err != nil {
					t.Fatal(err)
				}
				for i, row := range rows {
					got[i].IDs = append(got[i].IDs, row.IDs...)
					got[i].Scores = append(got[i].Scores, row.Scores...)
				}
				sparserow.Release(rows...)
			}
			for si := range want {
				if !slices.Equal(got[si].IDs, want[si].IDs) || !slices.Equal(got[si].Scores, want[si].Scores) {
					t.Fatalf("parts=%d workers=%d: source %d: shards %v != full %v",
						parts, workers, sources[si], got[si], want[si])
				}
			}
		}
	}
}

// TestShardPairMatchesFull: Pair on a ranged index equals Pair on the
// full range whether the range owns both, one, or neither endpoint.
func TestShardPairMatchesFull(t *testing.T) {
	g := gen.WebGraph(40, 5, 9)
	opt := Options{Walks: 30, Seed: 8, Workers: 1}
	full, err := buildFull(g, opt)
	if err != nil {
		t.Fatal(err)
	}
	sx, err := Build(g, opt, 10, 20) // owns [10,20)
	if err != nil {
		t.Fatal(err)
	}
	for _, pr := range [][2]int{{12, 15}, {12, 35}, {3, 15}, {3, 35}, {7, 7}} {
		if got, want := sx.Pair(g, pr[0], pr[1]), full.Pair(nil, pr[0], pr[1]); got != want {
			t.Errorf("Pair(%d,%d): shard %v != full %v", pr[0], pr[1], got, want)
		}
	}
}

// TestShardUpdateBitIdentical: the property test, sharded — after chains
// of random edit batches, each repaired shard equals a fresh Build(g, opt,
// lo, hi) on the edited graph, coalescence order included, so a fleet applying the same edits stays an exact
// partition of the single-node index.
func TestShardUpdateBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < 10; trial++ {
		n := 10 + rng.Intn(50)
		g := gen.ErdosRenyi(n, 2+rng.Intn(4*n), rng.Int63())
		opt := Options{Walks: 8 + rng.Intn(20), Seed: rng.Int63(), Workers: 1}
		parts := 2 + rng.Intn(3)

		shards := make([]*Index, 0, parts)
		for _, r := range shardRanges(n, parts) {
			sx, err := Build(g, opt, r[0], r[1])
			if err != nil {
				t.Fatal(err)
			}
			shards = append(shards, sx)
		}

		cur := g
		for batch := 0; batch < 3; batch++ {
			next, sum, err := cur.ApplyEdits(randomEdits(rng, cur, 1+rng.Intn(8)))
			if err != nil {
				t.Fatal(err)
			}
			for _, sx := range shards {
				workers := 1 + rng.Intn(3)
				if _, err := sx.Update(next, sum.DirtyIn, workers); err != nil {
					t.Fatal(err)
				}
				fresh, err := Build(next, opt, sx.Lo(), sx.Hi())
				if err != nil {
					t.Fatal(err)
				}
				if !sx.Equal(fresh) {
					t.Fatalf("trial %d batch %d shard [%d,%d): update != rebuild", trial, batch, sx.Lo(), sx.Hi())
				}
				requireSameForest(t, sx, fresh, fmt.Sprintf("trial %d batch %d shard [%d,%d)", trial, batch, sx.Lo(), sx.Hi()))
			}
			cur = next
		}
	}
}

func TestShardUpdateValidation(t *testing.T) {
	g := gen.WebGraph(20, 4, 1)
	sx, err := Build(g, Options{Walks: 5}, 5, 15)
	if err != nil {
		t.Fatal(err)
	}
	other := gen.WebGraph(21, 4, 1)
	if _, err := sx.Update(other, nil, 1); err == nil {
		t.Error("vertex-count mismatch: expected error")
	}
	if _, err := sx.Update(g, []int{20}, 1); err == nil {
		t.Error("out-of-range dirty vertex: expected error")
	}
}

// TestShardSaveLoadRoundTrip: which index may become which file. Any range
// is a shard file — the full range and an empty one included — but only
// the full range is an index file: that layout has nowhere to record a
// range, so a narrower index is refused before a byte is written. (The
// round trip and every corruption case run over both kinds in
// serialize_test.go.)
func TestShardSaveLoadRoundTrip(t *testing.T) {
	g := gen.WebGraph(35, 5, 4)
	opt := Options{Walks: 12, Seed: 5}
	for _, r := range [][2]int{{8, 23}, {0, 35}, {5, 5}, {0, 34}, {1, 35}} {
		sx, err := Build(g, opt, r[0], r[1])
		if err != nil {
			t.Fatal(err)
		}
		loaded, err := Load(bytes.NewReader(saveBytes(t, sx, ShardFile)), ShardFile)
		if err != nil {
			t.Fatalf("[%d,%d): %v", r[0], r[1], err)
		}
		if !sx.Equal(loaded) || loaded.Lo() != r[0] || loaded.Hi() != r[1] || loaded.N() != 35 {
			t.Fatalf("[%d,%d): round-tripped shard differs (n=%d [%d,%d))", r[0], r[1], loaded.N(), loaded.Lo(), loaded.Hi())
		}
		var buf bytes.Buffer
		err = sx.Save(&buf, IndexFile)
		if full := r[0] == 0 && r[1] == 35; full != (err == nil) {
			t.Fatalf("[%d,%d): Save as an index file = %v", r[0], r[1], err)
		}
		if err != nil && buf.Len() != 0 {
			t.Fatalf("[%d,%d): refused save still wrote %d bytes", r[0], r[1], buf.Len())
		}
	}
}

// TestShardedJoinMatchesFull: partitioning the fingerprint space across
// shards, unioning the candidate sets, scoring with owner-of-a scatter,
// and running the shared FinishJoin tail reproduces Index.Join bitwise.
func TestShardedJoinMatchesFull(t *testing.T) {
	g := gen.CitationGraph(45, 4, 13)
	opt := Options{Walks: 24, Seed: 21, Workers: 1}
	full, err := buildFull(g, opt)
	if err != nil {
		t.Fatal(err)
	}
	n := g.NumVertices()
	ctx := context.Background()
	const maxCand = 1 << 16

	for _, threshold := range []float64{0, 0.05, 0.2, 0.6} {
		want, err := full.Join(ctx, nil, 25, threshold, maxCand, 2)
		if err != nil {
			t.Fatal(err)
		}
		for _, parts := range []int{1, 3} {
			shards := make([]*Index, 0, parts)
			for _, r := range shardRanges(n, parts) {
				sx, err := Build(g, opt, r[0], r[1])
				if err != nil {
					t.Fatal(err)
				}
				shards = append(shards, sx)
			}
			// Scatter: shard i enumerates fingerprint range i of a partition
			// of [0, R); gather: union with the cap re-applied.
			merged := make(map[uint64]struct{})
			for i, sx := range shards {
				fpLo, fpHi := par.Range(opt.Walks, parts, i)
				keys, err := sx.JoinCandidates(ctx, g, threshold, fpLo, fpHi, maxCand, 2)
				if err != nil {
					t.Fatal(err)
				}
				for _, key := range keys {
					merged[key] = struct{}{}
				}
			}
			// Scatter scoring by owner of the pair's a side.
			var pairs []JoinPair
			perShard := make([][]uint64, len(shards))
			for key := range merged {
				a := int(key >> 32)
				for i, sx := range shards {
					if sx.Owns(a) {
						perShard[i] = append(perShard[i], key)
						break
					}
				}
			}
			for i, sx := range shards {
				scored, err := sx.ScorePairs(ctx, g, perShard[i], 2)
				if err != nil {
					t.Fatal(err)
				}
				pairs = append(pairs, scored...)
			}
			got := FinishJoin(pairs, 25, threshold)
			if len(got) != len(want) {
				t.Fatalf("threshold=%v parts=%d: %d pairs != full's %d", threshold, parts, len(got), len(want))
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("threshold=%v parts=%d: pair %d: %+v != %+v", threshold, parts, i, got[i], want[i])
				}
			}
		}
	}
}

// TestShardJoinCandidatesTooDense: a shard's candidate cap fails with the
// same ErrTooDense the single-node join reports.
func TestShardJoinCandidatesTooDense(t *testing.T) {
	g := gen.WebGraph(50, 6, 2)
	opt := Options{Walks: 16, Seed: 1}
	sx, err := Build(g, opt, 0, 25)
	if err != nil {
		t.Fatal(err)
	}
	_, err = sx.JoinCandidates(context.Background(), g, 0, 0, 16, 3, 2)
	if !errors.Is(err, ErrTooDense) {
		t.Fatalf("got %v, want ErrTooDense", err)
	}
}

// TestShardJoinCandidatesValidation rejects bad fingerprint ranges.
func TestShardJoinCandidatesValidation(t *testing.T) {
	g := gen.WebGraph(20, 4, 1)
	sx, err := Build(g, Options{Walks: 8}, 0, 20)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range [][2]int{{-1, 4}, {5, 4}, {0, 9}} {
		if _, err := sx.JoinCandidates(context.Background(), g, 0.1, r[0], r[1], 100, 1); err == nil {
			t.Errorf("fp range [%d,%d): expected error", r[0], r[1])
		}
	}
}
