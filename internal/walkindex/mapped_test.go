package walkindex

import (
	"context"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"oipsr/graph"
	"oipsr/graph/gen"
)

// saveFile writes ix as a file of the given kind to a temp file and
// returns the path.
func saveFile(t *testing.T, ix *Index, kind FileKind) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), kind.String()+".srwk")
	if err := os.WriteFile(path, saveBytes(t, ix, kind), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// mappedVariants opens the same file through every mapped configuration
// worth distinguishing: mmap'd, ReadAt fallback, and uncached.
func mappedVariants(t *testing.T, path string) map[string]*Index {
	t.Helper()
	variants := map[string]MappedOptions{
		"mmap":    {},
		"readat":  {DisableMmap: true},
		"nocache": {CacheBlocks: -1},
	}
	out := make(map[string]*Index, len(variants))
	for name, opts := range variants {
		mx, err := LoadMapped(path, IndexFile, opts)
		if err != nil {
			t.Fatalf("LoadMapped(%s): %v", name, err)
		}
		t.Cleanup(func() { mx.Close() })
		out[name] = mx
	}
	return out
}

// TestMappedByteIdenticalQueries is the backend-equivalence property: the
// dense in-memory index and every mapped configuration must produce
// byte-identical float64 answers for SingleSource, MultiSource, Pair, and
// Join — same walks, same summation order, so exact equality, not epsilon.
func TestMappedByteIdenticalQueries(t *testing.T) {
	g := gen.WebGraph(500, 6, 13)
	dense, err := buildFull(g, Options{Walks: 30, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	path := saveFile(t, dense, IndexFile)
	ctx := context.Background()

	denseJoin, err := dense.Join(ctx, nil, 25, 0.05, 200000, 2)
	if err != nil {
		t.Fatal(err)
	}
	sources := []int{0, 7, 99, 250, 499}
	denseMS, err := dense.MultiSource(ctx, nil, sources, 3)
	if err != nil {
		t.Fatal(err)
	}

	for name, mx := range mappedVariants(t, path) {
		if !dense.Equal(mx) {
			t.Fatalf("%s: mapped index != dense index", name)
		}
		for _, q := range sources {
			dr, err := dense.SingleSource(ctx, q, nil)
			if err != nil {
				t.Fatal(err)
			}
			mr, err := mx.SingleSource(ctx, q, nil)
			if err != nil {
				t.Fatal(err)
			}
			for v := range dr {
				if dr[v] != mr[v] {
					t.Fatalf("%s: SingleSource(%d)[%d] = %v, dense %v", name, q, v, mr[v], dr[v])
				}
			}
			if got, want := mx.Pair(nil, q, (q+13)%500), dense.Pair(nil, q, (q+13)%500); got != want {
				t.Fatalf("%s: Pair(%d) = %v, dense %v", name, q, got, want)
			}
		}
		ms, err := mx.MultiSource(ctx, nil, sources, 3)
		if err != nil {
			t.Fatal(err)
		}
		for i := range ms {
			for v := range ms[i] {
				if ms[i][v] != denseMS[i][v] {
					t.Fatalf("%s: MultiSource row %d differs at %d", name, i, v)
				}
			}
		}
		mj, err := mx.Join(ctx, nil, 25, 0.05, 200000, 2)
		if err != nil {
			t.Fatal(err)
		}
		if len(mj) != len(denseJoin) {
			t.Fatalf("%s: Join returned %d pairs, dense %d", name, len(mj), len(denseJoin))
		}
		for i := range mj {
			if mj[i] != denseJoin[i] {
				t.Fatalf("%s: Join pair %d = %+v, dense %+v", name, i, mj[i], denseJoin[i])
			}
		}
	}
}

// TestMappedUpdatePersists: Update on a mapped index must (a) leave the
// in-memory index Equal to a fresh build on the edited graph, and (b)
// flush the repaired blocks back to the file, so a reopen — mapped or
// dense — sees the post-edit index.
func TestMappedUpdatePersists(t *testing.T) {
	g := gen.CitationGraph(300, 4, 5)
	dense, err := buildFull(g, Options{Walks: 15, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	path := saveFile(t, dense, IndexFile)
	mx, err := LoadMapped(path, IndexFile, MappedOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer mx.Close()

	cur := g
	for batch := 0; batch < 3; batch++ {
		next, sum, err := cur.ApplyEdits([]graph.Edit{
			{Op: graph.EditAdd, U: (batch*37 + 11) % 300, V: (batch*53 + 2) % 300},
			{Op: graph.EditRemove, U: cur.In(batch + 1)[0], V: batch + 1},
		})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := mx.Update(next, sum.DirtyIn, 3); err != nil {
			t.Fatal(err)
		}
		fresh, err := buildFull(next, Options{Walks: 15, Seed: 4})
		if err != nil {
			t.Fatal(err)
		}
		if !mx.Equal(fresh) {
			t.Fatalf("batch %d: mapped Update != fresh Build", batch)
		}

		// The flush rewrote the file: a cold open must see the same index.
		reopened, err := LoadMapped(path, IndexFile, MappedOptions{})
		if err != nil {
			t.Fatalf("batch %d: reopening flushed file: %v", batch, err)
		}
		if !reopened.Equal(fresh) {
			t.Fatalf("batch %d: flushed file != fresh Build", batch)
		}
		reopened.Close()
		f, err := os.Open(path)
		if err != nil {
			t.Fatal(err)
		}
		loaded, err := Load(f, IndexFile)
		f.Close()
		if err != nil {
			t.Fatalf("batch %d: dense-loading flushed file: %v", batch, err)
		}
		if !loaded.Equal(fresh) {
			t.Fatalf("batch %d: dense load of flushed file != fresh Build", batch)
		}
		cur = next
	}
}

// TestShardMappedByteIdentical: the sharded read path over a mapped store
// must match the dense shard exactly, including update + flush + reopen.
func TestShardMappedByteIdentical(t *testing.T) {
	g := gen.WebGraph(400, 5, 17)
	opt := Options{Walks: 20, Seed: 6}
	sx, err := Build(g, opt, 100, 300)
	if err != nil {
		t.Fatal(err)
	}
	path := saveFile(t, sx, ShardFile)
	mx, err := LoadMapped(path, ShardFile, MappedOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer mx.Close()
	if !sx.Equal(mx) {
		t.Fatal("mapped shard != dense shard")
	}

	ctx := context.Background()
	sources := []int{0, 100, 150, 299, 399}
	want, err := sx.MultiSource(ctx, g, sources, 2)
	if err != nil {
		t.Fatal(err)
	}
	got, err := mx.MultiSource(ctx, g, sources, 2)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		for v := range want[i] {
			if want[i][v] != got[i][v] {
				t.Fatalf("MultiSource row %d differs at %d", i, v)
			}
		}
	}

	next, sum, err := g.ApplyEdits([]graph.Edit{
		{Op: graph.EditAdd, U: 120, V: 180},
		{Op: graph.EditRemove, U: g.In(150)[0], V: 150},
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := mx.Update(next, sum.DirtyIn, 2); err != nil {
		t.Fatal(err)
	}
	freshShard, err := Build(next, opt, 100, 300)
	if err != nil {
		t.Fatal(err)
	}
	if !mx.Equal(freshShard) {
		t.Fatal("mapped shard Update != fresh shard build")
	}
	reopened, err := LoadMapped(path, ShardFile, MappedOptions{})
	if err != nil {
		t.Fatalf("reopening flushed shard: %v", err)
	}
	defer reopened.Close()
	if !reopened.Equal(freshShard) {
		t.Fatal("flushed shard file != fresh shard build")
	}
}

// TestMappedConcurrentReaders drives parallel queries through the shared
// block cache; under -race this checks the store's synchronization.
func TestMappedConcurrentReaders(t *testing.T) {
	g := gen.WebGraph(300, 5, 23)
	dense, err := buildFull(g, Options{Walks: 12, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	// A 2-block cache against a ~5-block file keeps eviction churning.
	mx, err := LoadMapped(saveFile(t, dense, IndexFile), IndexFile, MappedOptions{CacheBlocks: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer mx.Close()
	ctx := context.Background()
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for q := w; q < 300; q += 8 {
				want, err := dense.SingleSource(ctx, q, nil)
				if err != nil {
					t.Error(err)
					return
				}
				got, err := mx.SingleSource(ctx, q, nil)
				if err != nil {
					t.Error(err)
					return
				}
				for v := range want {
					if want[v] != got[v] {
						t.Errorf("SingleSource(%d)[%d] differs", q, v)
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
}

// TestLoadMappedRejections: what only the mapped opening can get wrong —
// a missing file, and the backend it reports. (Every corruption case runs
// over the mapped openings in serialize_test.go.)
func TestLoadMappedRejections(t *testing.T) {
	ix := buildSmall(t)
	path := saveFile(t, ix, IndexFile)
	if _, err := LoadMapped(filepath.Join(filepath.Dir(path), "missing.srwk"), IndexFile, MappedOptions{}); err == nil {
		t.Error("LoadMapped accepted a missing file")
	}
	for _, opts := range []MappedOptions{{}, {DisableMmap: true}} {
		mx, err := LoadMapped(path, IndexFile, opts)
		if err != nil {
			t.Fatalf("LoadMapped rejected a valid file: %v", err)
		}
		if !ix.Equal(mx) {
			t.Error("mapped small index != original")
		}
		if b := mx.Backend(); b != "mapped-readat" && (opts.DisableMmap || b != "mapped") {
			t.Errorf("Backend() = %q with %+v", b, opts)
		}
		mx.Close()
	}
}
