package shard

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"hash/crc32"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"oipsr/graph"
	"oipsr/graph/gen"
	"oipsr/internal/walkindex"
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

// TestBuildAllRoundTrip: BuildAll publishes a loadable directory whose
// shards, opened through the manifest, answer partial queries that
// concatenate into the single-node dense rows bitwise — on the default
// (unbounded) budget and a bounded one, and with more shards than vertices,
// where Plan leaves empty trailing ranges that are still files to build,
// open and query.
func TestBuildAllRoundTrip(t *testing.T) {
	g := gen.WebGraph(57, 6, 2)
	opt := query.Options{Walks: 18, Seed: 7, Workers: 1}
	full, err := query.BuildIndex(g, opt)
	if err != nil {
		t.Fatal(err)
	}
	sources := []int{0, 31, 56}
	ctx := context.Background()
	for _, c := range []struct {
		shards int
		budget int64
	}{{3, 0}, {59, 0}, {59, 4096}} {
		dir := t.TempDir()
		m, err := BuildAll(g, opt, dir, c.shards, c.budget)
		if err != nil {
			t.Fatal(err)
		}
		if len(m.Shards) != c.shards || m.N != 57 || m.Walks != 18 || m.Seed != 7 {
			t.Fatalf("manifest: %+v", m)
		}
		if m.C != 0.6 || m.K < 1 {
			t.Fatalf("manifest did not record resolved defaults: c=%v k=%d", m.C, m.K)
		}
		if last := m.Shards[c.shards-1]; (c.shards > m.N) != (last.Lo == last.Hi) {
			t.Fatalf("%d shards: last range [%d,%d)", c.shards, last.Lo, last.Hi)
		}

		loaded, err := LoadManifest(dir)
		if err != nil {
			t.Fatal(err)
		}
		got := make([][]float64, len(sources))
		for i := range loaded.Shards {
			s, err := OpenShard(dir, loaded, i, i%2 == 1)
			if err != nil {
				t.Fatalf("%d shards, shard %d: %v", c.shards, i, err)
			}
			if _, err := s.PartialScores(ctx, sources, 1); err == nil {
				t.Fatal("PartialScores without a graph: expected error")
			}
			if err := s.AttachGraph(g); err != nil {
				t.Fatal(err)
			}
			rows, err := s.PartialScores(ctx, sources, 2)
			if err != nil {
				t.Fatal(err)
			}
			for si := range rows {
				got[si] = append(got[si], rows[si]...)
			}
			if err := s.Close(); err != nil {
				t.Fatal(err)
			}
		}
		for si, q := range sources {
			want, err := full.SingleSource(ctx, q)
			if err != nil {
				t.Fatal(err)
			}
			if len(got[si]) != len(want) {
				t.Fatalf("%d shards: source %d: %d targets, want %d", c.shards, q, len(got[si]), len(want))
			}
			for v := range want {
				if got[si][v] != want[v] {
					t.Fatalf("%d shards: source %d target %d: sharded %v != full %v", c.shards, q, v, got[si][v], want[v])
				}
			}
		}
	}
}

// TestManifestCorruptionDetection: every tamper mode is caught before a
// wrong answer can be served.
func TestManifestCorruptionDetection(t *testing.T) {
	g := gen.WebGraph(30, 4, 5)
	dir := t.TempDir()
	m, err := BuildAll(g, query.Options{Walks: 8, Seed: 1}, dir, 2, 0)
	if err != nil {
		t.Fatal(err)
	}

	mpath := filepath.Join(dir, ManifestName)
	orig, err := os.ReadFile(mpath)
	if err != nil {
		t.Fatal(err)
	}

	// Flip a byte inside the JSON document.
	bad := append([]byte(nil), orig...)
	bad[10] ^= 1
	if err := os.WriteFile(mpath, bad, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadManifest(dir); !errors.Is(err, ErrManifestCorrupt) {
		t.Fatalf("tampered manifest: got %v, want ErrManifestCorrupt", err)
	}
	if err := os.WriteFile(mpath, orig, 0o644); err != nil {
		t.Fatal(err)
	}

	// Flip a byte inside a shard file: OpenShard must refuse before
	// walkindex even parses it.
	spath := filepath.Join(dir, m.Shards[1].File)
	sdata, err := os.ReadFile(spath)
	if err != nil {
		t.Fatal(err)
	}
	sbad := append([]byte(nil), sdata...)
	sbad[len(sbad)/2] ^= 0x10
	if err := os.WriteFile(spath, sbad, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenShard(dir, m, 1, false); !errors.Is(err, ErrShardChecksum) {
		t.Fatalf("tampered shard file: got %v, want ErrShardChecksum", err)
	}

	// Swapping two shard files is also a checksum mismatch (the manifest
	// binds file names to ranges).
	if err := os.WriteFile(spath, sdata, 0o644); err != nil {
		t.Fatal(err)
	}
	d0, err := os.ReadFile(filepath.Join(dir, m.Shards[0].File))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(spath, d0, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenShard(dir, m, 1, false); !errors.Is(err, ErrShardChecksum) {
		t.Fatalf("swapped shard files: got %v, want ErrShardChecksum", err)
	}

	// A manifest of the retired format 1 — the field says 1, or predates
	// the field — is a clean error, not an attempt to read the files.
	for _, format := range []int{1, 0, 3} {
		old := *m
		old.Format = format
		if err := WriteManifest(dir, &old); err != nil {
			t.Fatal(err)
		}
		if _, err := LoadManifest(dir); err == nil || !strings.Contains(err.Error(), "format") {
			t.Fatalf("manifest with format %d: got %v, want a format error", format, err)
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

// TestOpenShardMappedParity: shards opened mapped (write-back) through the
// manifest answer bit-identically to read-only ones, survive edits
// (written back through the sealed file), and refuse what they must:
// tampered files, and index files standing in for shard files.
func TestOpenShardMappedParity(t *testing.T) {
	g := gen.WebGraph(57, 6, 2)
	opt := query.Options{Walks: 18, Seed: 7, Workers: 1}
	dir := t.TempDir()
	m, err := BuildAll(g, opt, dir, 3, 0)
	if err != nil {
		t.Fatal(err)
	}
	if m.Format != query.FormatVersion {
		t.Fatalf("BuildAll wrote format %d, want %d", m.Format, query.FormatVersion)
	}

	sources := []int{0, 31, 56}
	ctx := context.Background()
	edits := []graph.Edit{{Op: graph.EditAdd, U: 1, V: 56}, {Op: graph.EditRemove, U: 1, V: 56}, {Op: graph.EditAdd, U: 3, V: 40}}
	rewritten := -1 // ordinal of a mapped shard whose file the edits rewrote
	for i := range m.Shards {
		dense, err := OpenShard(dir, m, i, false)
		if err != nil {
			t.Fatal(err)
		}
		mapped, err := OpenShard(dir, m, i, true)
		if err != nil {
			t.Fatal(err)
		}
		if dense.Backend() != "dense" || mapped.Backend() != "write-back" {
			t.Fatalf("shard %d backends = %q, %q", i, dense.Backend(), mapped.Backend())
		}
		for _, s := range []*Shard{dense, mapped} {
			if err := s.AttachGraph(g); err != nil {
				t.Fatal(err)
			}
		}
		for round := 0; round < 2; round++ {
			dRows, err := dense.PartialScores(ctx, sources, 2)
			if err != nil {
				t.Fatal(err)
			}
			mRows, err := mapped.PartialScores(ctx, sources, 2)
			if err != nil {
				t.Fatal(err)
			}
			for si := range dRows {
				for v := range dRows[si] {
					if dRows[si][v] != mRows[si][v] {
						t.Fatalf("shard %d round %d source %d: mapped diverges at %d", i, round, sources[si], v)
					}
				}
			}
			if round == 0 {
				for _, s := range []*Shard{dense, mapped} {
					stats, err := s.ApplyEdits(edits, 1)
					if err != nil {
						t.Fatal(err)
					}
					if s == mapped && stats.WalksRepaired > 0 {
						rewritten = i
					}
				}
			}
		}
		if err := mapped.Close(); err != nil {
			t.Fatal(err)
		}
	}

	// Editing a mapped shard rewrites its sealed file; the manifest CRC no
	// longer matches, which OpenShard must report rather than serve.
	if rewritten < 0 {
		t.Fatal("edit batch repaired no walks in any shard; pick a more invasive batch")
	}
	if _, err := OpenShard(dir, m, rewritten, false); !errors.Is(err, ErrShardChecksum) {
		t.Fatalf("edited shard file: got %v, want ErrShardChecksum", err)
	}

	// Tampered shard files are refused before loading.
	other := (rewritten + 1) % len(m.Shards)
	spath := filepath.Join(dir, m.Shards[other].File)
	sdata, err := os.ReadFile(spath)
	if err != nil {
		t.Fatal(err)
	}
	tampered := append([]byte(nil), sdata...)
	tampered[len(tampered)/2] ^= 0x10
	if err := os.WriteFile(spath, tampered, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenShard(dir, m, other, true); !errors.Is(err, ErrShardChecksum) {
		t.Fatalf("tampered shard: got %v, want ErrShardChecksum", err)
	}

	// The two file kinds never stand in for each other, even when the
	// manifest vouches for the bytes: a full index file named by a one-shard
	// manifest is ErrBadMagic through both shard openings, and a shard file
	// — full range [0, n) and all — is ErrBadMagic through the query
	// loaders: a file says which of the two it is, whatever range it holds.
	onedir := t.TempDir()
	m1, err := BuildAll(g, opt, onedir, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	shardPath := filepath.Join(onedir, m1.Shards[0].File)
	if _, err := query.LoadFile(shardPath); !errors.Is(err, walkindex.ErrBadMagic) {
		t.Fatalf("query.LoadFile(shard file): got %v, want ErrBadMagic", err)
	}
	if _, err := query.LoadFileMapped(shardPath, query.MappedOptions{}); !errors.Is(err, walkindex.ErrBadMagic) {
		t.Fatalf("query.LoadFileMapped(shard file): got %v, want ErrBadMagic", err)
	}
	full, err := query.BuildIndex(g, opt)
	if err != nil {
		t.Fatal(err)
	}
	if err := full.SaveFile(shardPath); err != nil {
		t.Fatal(err)
	}
	idata, err := os.ReadFile(shardPath)
	if err != nil {
		t.Fatal(err)
	}
	m1.Shards[0].Bytes = int64(len(idata))
	m1.Shards[0].CRC32 = fmt.Sprintf("%08x", crc32.ChecksumIEEE(idata[:len(idata)-4]))
	if _, err := OpenShard(onedir, m1, 0, false); !errors.Is(err, walkindex.ErrBadMagic) {
		t.Fatalf("OpenShard(index file): got %v, want ErrBadMagic", err)
	}
	if _, err := OpenShard(onedir, m1, 0, true); !errors.Is(err, walkindex.ErrBadMagic) {
		t.Fatalf("OpenShard(index file, mapped): got %v, want ErrBadMagic", err)
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
		same("JoinCandidates", func(ix *query.Index) (any, error) {
			return ix.JoinCandidates(ctx, 0.1, 5, 30, query.DefaultMaxCandidates, 2)
		})
		same("ScorePairs", func(ix *query.Index) (any, error) { return ix.ScorePairs(ctx, []uint64{3<<32 | 77, 17<<32 | 18}, 1) })
		same("ExactSingleSource", func(ix *query.Index) (any, error) { return ix.ExactSingleSource(ctx, 17, nil) })
		same("ExactStats", func(ix *query.Index) (any, error) {
			st, ok := ix.ExactStats()
			return []any{st.SolveIters, st.Residual, ok}, nil // the rest is a wall time
		})
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
	if _, err := s.ScorePairs(ctx, []uint64{uint64(3)<<32 | 25}, 1); err == nil {
		t.Error("out-of-range pair: expected error")
	}
}

// TestOpenShardMappedWritesBack drives a seeded edit stream through every
// shard of a directory opened with OpenShard(…, true): after every batch
// each shard file is, byte for byte, the file BuildAll writes for the
// edited graph.
func TestOpenShardMappedWritesBack(t *testing.T) {
	g := gen.CitationGraph(200, 4, 3)
	opt := query.Options{Walks: 12, Seed: 5, Workers: 1}
	dir := t.TempDir()
	m, err := BuildAll(g, opt, dir, 3, 0)
	if err != nil {
		t.Fatal(err)
	}
	shards := make([]*Shard, len(m.Shards))
	for i := range shards {
		if shards[i], err = OpenShard(dir, m, i, true); err != nil {
			t.Fatal(err)
		}
		defer shards[i].Close()
		if err := shards[i].AttachGraph(g); err != nil {
			t.Fatal(err)
		}
	}
	rng := rand.New(rand.NewSource(7))
	for batch := 0; batch < 5; batch++ {
		var edits []graph.Edit
		for len(edits) < 4 {
			v := rng.Intn(g.NumVertices())
			if in := g.In(v); len(in) > 0 && rng.Intn(2) == 0 {
				edits = append(edits, graph.Edit{Op: graph.EditRemove, U: in[rng.Intn(len(in))], V: v})
			} else {
				edits = append(edits, graph.Edit{Op: graph.EditAdd, U: rng.Intn(g.NumVertices()), V: v})
			}
		}
		for _, sh := range shards {
			if _, err := sh.ApplyEdits(edits, 2); err != nil {
				t.Fatal(err)
			}
		}
		g = shards[0].Graph()
		fresh := t.TempDir()
		if _, err := BuildAll(g, opt, fresh, len(shards), 0); err != nil {
			t.Fatal(err)
		}
		for _, fi := range m.Shards {
			got, err := os.ReadFile(filepath.Join(dir, fi.File))
			if err != nil {
				t.Fatal(err)
			}
			want, err := os.ReadFile(filepath.Join(fresh, fi.File))
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("batch %d: %s differs from a fresh BuildAll's", batch, fi.File)
			}
		}
	}
}
