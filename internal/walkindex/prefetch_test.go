package walkindex

import (
	"context"
	"sync"
	"testing"
	"time"

	"oipsr/graph"
	"oipsr/graph/gen"
)

// mappedOf unwraps an Index's store as the mappedStore, for asserting on
// prefetch internals.
func mappedOf(t *testing.T, ix *Index) *mappedStore {
	t.Helper()
	ms, ok := ix.store.(*mappedStore)
	if !ok {
		t.Fatalf("store is %T, want *mappedStore", ix.store)
	}
	return ms
}

// TestPrefetchEquivalenceTinyCache is the prefetcher's equivalence gate:
// under a 2-block LRU (readahead clamped to a single block, maximum
// eviction churn) every query family — SingleSource, Pair, MultiSource,
// Join — must answer bit-identically to the dense index, and the pool
// must actually have decoded blocks (readahead observed, not just
// harmless).
func TestPrefetchEquivalenceTinyCache(t *testing.T) {
	g := gen.WebGraph(500, 6, 13)
	dense, err := buildFull(g, Options{Walks: 20, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	path := saveFile(t, dense, IndexFile)
	ctx := context.Background()

	for name, opts := range map[string]MappedOptions{
		"lru2":      {CacheBlocks: 2},
		"lru4deep":  {CacheBlocks: 4, PrefetchBlocks: 16}, // depth clamps to 3
		"readat":    {CacheBlocks: 2, DisableMmap: true},
		"default":   {},
		"nopf":      {CacheBlocks: 2, PrefetchBlocks: -1},
		"nocachepf": {CacheBlocks: -1, PrefetchBlocks: 4}, // no cache: pf auto-off
	} {
		mx, err := LoadMapped(path, IndexFile, opts)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		sources := []int{0, 3, 250, 499}
		for _, q := range sources {
			want, err := dense.SingleSource(ctx, q, nil)
			if err != nil {
				t.Fatal(err)
			}
			got, err := mx.SingleSource(ctx, q, nil)
			if err != nil {
				t.Fatal(err)
			}
			for v := range want {
				if want[v] != got[v] {
					t.Fatalf("%s: SingleSource(%d)[%d] = %v, dense %v", name, q, v, got[v], want[v])
				}
			}
			if got, want := mx.Pair(nil, q, (q+77)%500), dense.Pair(nil, q, (q+77)%500); got != want {
				t.Fatalf("%s: Pair(%d) = %v, dense %v", name, q, got, want)
			}
		}
		wantMS, err := dense.MultiSource(ctx, nil, sources, 3)
		if err != nil {
			t.Fatal(err)
		}
		gotMS, err := mx.MultiSource(ctx, nil, sources, 3)
		if err != nil {
			t.Fatal(err)
		}
		for i := range wantMS {
			for v := range wantMS[i] {
				if wantMS[i][v] != gotMS[i][v] {
					t.Fatalf("%s: MultiSource row %d differs at %d", name, i, v)
				}
			}
		}
		wantJoin, err := dense.Join(ctx, nil, 20, 0.05, 200000, 2)
		if err != nil {
			t.Fatal(err)
		}
		gotJoin, err := mx.Join(ctx, nil, 20, 0.05, 200000, 2)
		if err != nil {
			t.Fatal(err)
		}
		if len(gotJoin) != len(wantJoin) {
			t.Fatalf("%s: Join returned %d pairs, dense %d", name, len(gotJoin), len(wantJoin))
		}
		for i := range gotJoin {
			if gotJoin[i] != wantJoin[i] {
				t.Fatalf("%s: Join pair %d = %+v, dense %+v", name, i, gotJoin[i], wantJoin[i])
			}
		}

		ms := mappedOf(t, mx)
		switch name {
		case "nopf", "nocachepf":
			if ms.pfDepth != 0 || ms.pfLoads.Load() != 0 {
				t.Fatalf("%s: prefetch ran (depth %d, %d loads) despite being disabled", name, ms.pfDepth, ms.pfLoads.Load())
			}
		default:
			if ms.pfDepth == 0 {
				t.Fatalf("%s: prefetch depth resolved to 0", name)
			}
		}
		if err := mx.Close(); err != nil {
			t.Fatalf("%s: Close: %v", name, err)
		}
	}
}

// TestPrefetchShardEquivalence covers the ranged sweeps: MultiSource and
// JoinCandidates on a 2-block-LRU mapped shard must match the dense shard
// exactly while the pool is prefetching.
func TestPrefetchShardEquivalence(t *testing.T) {
	g := gen.CitationGraph(420, 4, 19)
	opt := Options{Walks: 16, Seed: 5}
	sx, err := Build(g, opt, 60, 350)
	if err != nil {
		t.Fatal(err)
	}
	mx, err := LoadMapped(saveFile(t, sx, ShardFile), ShardFile, MappedOptions{CacheBlocks: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer mx.Close()

	ctx := context.Background()
	sources := []int{0, 60, 200, 349, 419}
	want, err := sx.MultiSource(ctx, g, sources, 3)
	if err != nil {
		t.Fatal(err)
	}
	got, err := mx.MultiSource(ctx, g, sources, 3)
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
	wantCand, err := sx.JoinCandidates(ctx, g, 0.05, 0, sx.Walks(), 200000, 2)
	if err != nil {
		t.Fatal(err)
	}
	gotCand, err := mx.JoinCandidates(ctx, g, 0.05, 0, mx.Walks(), 200000, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(wantCand) != len(gotCand) {
		t.Fatalf("JoinCandidates: %d keys, dense %d", len(gotCand), len(wantCand))
	}
	for i := range wantCand {
		if wantCand[i] != gotCand[i] {
			t.Fatalf("JoinCandidates key %d differs", i)
		}
	}
	if ms, ok := mx.store.(*mappedStore); !ok || ms.pfLoads.Load() == 0 {
		t.Fatal("shard sweeps triggered no prefetch loads")
	}
}

// TestPrefetchConcurrentReadersAndEdits is the race gate: concurrent
// readers sweep a tiny-cached mapped index (keeping the prefetch pool
// busy) while the writer applies edit batches through Update — whose
// flush rewrites and remaps the backing file under the pool's feet. The
// reader/writer RWMutex mirrors how simrankd serializes edits against
// queries; the prefetch workers are internal and must synchronize
// themselves. Run under -race in CI.
func TestPrefetchConcurrentReadersAndEdits(t *testing.T) {
	g := gen.WebGraph(400, 5, 31)
	opt := Options{Walks: 12, Seed: 8}
	dense, err := buildFull(g, opt)
	if err != nil {
		t.Fatal(err)
	}
	mx, err := LoadMapped(saveFile(t, dense, IndexFile), IndexFile, MappedOptions{CacheBlocks: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer mx.Close()

	var mu sync.RWMutex
	stop := make(chan struct{})
	var wg sync.WaitGroup
	ctx := context.Background()
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				mu.RLock()
				if _, err := mx.SingleSource(ctx, (w*97+i*13)%400, nil); err != nil {
					t.Error(err)
				}
				if _, err := mx.MultiSource(ctx, nil, []int{w, (w + 100) % 400}, 2); err != nil {
					t.Error(err)
				}
				mu.RUnlock()
			}
		}(w)
	}

	cur := g
	for batch := 0; batch < 4; batch++ {
		rm := -1 // some vertex that still has an in-edge to delete
		for v := batch; v < 400; v++ {
			if len(cur.In(v)) > 0 {
				rm = v
				break
			}
		}
		if rm < 0 {
			t.Fatal("graph has no edges left to remove")
		}
		next, sum, err := cur.ApplyEdits([]graph.Edit{
			{Op: graph.EditAdd, U: (batch*41 + 7) % 400, V: (batch*59 + 3) % 400},
			{Op: graph.EditRemove, U: cur.In(rm)[0], V: rm},
		})
		if err != nil {
			t.Fatal(err)
		}
		mu.Lock()
		_, uerr := mx.Update(next, sum.DirtyIn, 3)
		mu.Unlock()
		if uerr != nil {
			t.Fatal(uerr)
		}
		cur = next
	}
	close(stop)
	wg.Wait()

	fresh, err := buildFull(cur, opt)
	if err != nil {
		t.Fatal(err)
	}
	if !mx.Equal(fresh) {
		t.Fatal("mapped index diverged from fresh build after concurrent edits")
	}
}

// TestPrefetchPoolLoads pins down that the pool really decodes blocks:
// an explicit Prefetch on a cold store must populate the LRU from the
// background workers. Polled with a deadline because the pool is
// asynchronous by design.
func TestPrefetchPoolLoads(t *testing.T) {
	g := gen.WebGraph(900, 5, 7) // 15 blocks, well past the window
	dense, err := buildFull(g, Options{Walks: 12, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	mx, err := LoadMapped(saveFile(t, dense, IndexFile), IndexFile, MappedOptions{CacheBlocks: 16, PrefetchBlocks: 8})
	if err != nil {
		t.Fatal(err)
	}
	defer mx.Close()
	ms := mappedOf(t, mx)
	ms.Prefetch(0, ms.rows)
	deadline := time.Now().Add(10 * time.Second)
	for ms.pfLoads.Load() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("prefetch pool decoded no blocks after explicit Prefetch on a cold store")
		}
		time.Sleep(time.Millisecond)
	}
	// Answers stay bit-identical regardless of what the pool got to first.
	ctx := context.Background()
	for _, q := range []int{0, 440, 899} {
		want, _ := dense.SingleSource(ctx, q, nil)
		got, err := mx.SingleSource(ctx, q, nil)
		if err != nil {
			t.Fatal(err)
		}
		for v := range want {
			if want[v] != got[v] {
				t.Fatalf("SingleSource(%d)[%d] differs after prefetch", q, v)
			}
		}
	}
}

// TestPrefetchCloseDrainsPool: Close with a flooded prefetch queue must
// quiesce the workers before releasing the mapping — no panic, no decode
// against a closed file.
func TestPrefetchCloseDrainsPool(t *testing.T) {
	g := gen.WebGraph(600, 5, 3)
	dense, err := buildFull(g, Options{Walks: 10, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		mx, err := LoadMapped(saveFile(t, dense, IndexFile), IndexFile, MappedOptions{CacheBlocks: 2})
		if err != nil {
			t.Fatal(err)
		}
		ms := mappedOf(t, mx)
		ms.Prefetch(0, ms.rows) // flood the queue, then close immediately
		if err := mx.Close(); err != nil {
			t.Fatal(err)
		}
	}
}
