package walkindex

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"testing"

	"oipsr/graph"
	"oipsr/graph/gen"
	"oipsr/internal/sparserow"
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

// openWriteBack opens path for write-back and closes it with the test.
func openWriteBack(t *testing.T, path string, kind FileKind) *Index {
	t.Helper()
	ix, err := LoadWriteBack(path, kind)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ix.Close() })
	return ix
}

// saveBlocked is Save at a block size of blockB vertices instead of
// v2BlockVertices: files of other writers are valid with any block size,
// and a write-back must keep the one it found.
func saveBlocked(t *testing.T, ix *Index, kind FileKind, blockB int) []byte {
	t.Helper()
	h, err := writableHeader(kind, ix.n, ix.lo, ix.hi, ix.k, ix.r, ix.c, ix.seed)
	if err != nil {
		t.Fatal(err)
	}
	nb := int(v2NumBlocks(int64(ix.Width()), int64(blockB)))
	blocks, lens := make([][]byte, nb), make([]int64, nb)
	for b := range blocks {
		if blocks[b], err = ix.store.appendBlock(nil, b, blockB); err != nil {
			t.Fatal(err)
		}
		lens[b] = int64(len(blocks[b]))
	}
	var buf bytes.Buffer
	if err := writeV2(&buf, h.preamble(blockB, nb), lens, func(b int, w io.Writer) error {
		_, err := w.Write(blocks[b])
		return err
	}, kind.String()); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// editBatch draws a seeded batch of adds and removes on g.
func editBatch(rng *rand.Rand, g *graph.Graph, size int) []graph.Edit {
	n := g.NumVertices()
	var edits []graph.Edit
	for len(edits) < size {
		v := rng.Intn(n)
		if in := g.In(v); len(in) > 0 && rng.Intn(2) == 0 {
			edits = append(edits, graph.Edit{Op: graph.EditRemove, U: in[rng.Intn(len(in))], V: v})
		} else {
			edits = append(edits, graph.Edit{Op: graph.EditAdd, U: rng.Intn(n), V: v})
		}
	}
	return edits
}

// requireFile fails unless the file at path holds want, byte for byte.
func requireFile(t *testing.T, path string, want []byte, what string) {
	t.Helper()
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("%s: the file (%d bytes) differs from a fresh build's (%d bytes)", what, len(got), len(want))
	}
}

// hubN is the vertex count of hubGraph, and hubLo, hubHi its hubs.
const hubN, hubLo, hubHi = 59, 40, 43

// hubGraph returns a graph on hubN vertices whose edges all leave the hubs
// [hubLo, hubHi): the hubs point at each other, and every other vertex
// draws its in-set from them. A walk therefore visits a non-hub vertex
// only as its start, so changing that vertex's in-set repairs its R walks
// and nothing else, while walks through the hubs still coalesce and share
// tails between neighbouring start vertices.
func hubGraph(seed int64) *graph.Graph {
	rng := rand.New(rand.NewSource(seed))
	var edges [][2]int
	for v := 0; v < hubN; v++ {
		for h := hubLo; h < hubHi; h++ {
			if h != v && (v >= hubLo && v < hubHi || rng.Intn(2) == 0) {
				edges = append(edges, [2]int{h, v})
			}
		}
	}
	return graph.MustFromEdges(hubN, edges)
}

// retarget changes the in-set of each target vertex of a hubGraph by one
// hub, added when absent and removed when present.
func retarget(rng *rand.Rand, g *graph.Graph, targets []int) []graph.Edit {
	var edits []graph.Edit
	for _, v := range targets {
		e := graph.Edit{Op: graph.EditAdd, U: hubLo + rng.Intn(hubHi-hubLo), V: v}
		if slices.Contains(g.In(v), e.U) {
			e.Op = graph.EditRemove
		}
		edits = append(edits, e)
	}
	return edits
}

// updateTargets applies retarget's edits to g through ix, checks that
// exactly the targets' walks were repaired, and returns the edited graph.
func updateTargets(t *testing.T, rng *rand.Rand, ix *Index, g *graph.Graph, targets []int) (*graph.Graph, error) {
	t.Helper()
	next, sum, err := g.ApplyEdits(retarget(rng, g, targets))
	if err != nil {
		t.Fatal(err)
	}
	repaired, err := ix.Update(next, sum.DirtyIn, 2)
	if repaired != len(targets)*ix.Walks() {
		t.Fatalf("targets %v: %d walks repaired, want %d", targets, repaired, len(targets)*ix.Walks())
	}
	return next, err
}

// TestMappedByteIdenticalQueries: an index opened for write-back answers
// SparseRows (one source and batches), Pair and Join bit-identically to the
// build it was saved from.
func TestMappedByteIdenticalQueries(t *testing.T) {
	g := gen.WebGraph(500, 6, 13)
	built, err := buildFull(g, Options{Walks: 30, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	wb := openWriteBack(t, saveFile(t, built, IndexFile), IndexFile)
	if !built.Equal(wb) {
		t.Fatal("write-back index != built index")
	}
	requireSameForest(t, wb, built, "LoadWriteBack")
	ctx := context.Background()
	sources := []int{0, 7, 99, 250, 499}
	for _, q := range sources {
		if !slices.Equal(ssRow(t, wb, q), ssRow(t, built, q)) {
			t.Fatalf("row of %d differs", q)
		}
		if got, want := wb.Pair(nil, q, (q+13)%500), built.Pair(nil, q, (q+13)%500); got != want {
			t.Fatalf("Pair(%d) = %v, built %v", q, got, want)
		}
	}
	want := msRows(t, built, nil, sources, 3)
	for i, row := range msRows(t, wb, nil, sources, 3) {
		if !slices.Equal(row, want[i]) {
			t.Fatalf("batch row %d differs", i)
		}
	}
	wj, err := built.Join(ctx, nil, 25, 0.05, 200000, 2)
	if err != nil {
		t.Fatal(err)
	}
	gj, err := wb.Join(ctx, nil, 25, 0.05, 200000, 2)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(gj, wj) {
		t.Fatalf("Join = %v, built %v", gj, wj)
	}
}

// TestMappedUpdatePersists drives a seeded edit stream through a
// write-back index, over files of the default block size and of an odd
// one: after every batch the index equals a fresh build on the edited
// graph, and the file is that build's file, byte for byte.
func TestMappedUpdatePersists(t *testing.T) {
	g0 := gen.CitationGraph(300, 4, 5)
	opt := Options{Walks: 15, Seed: 4}
	built, err := buildFull(g0, opt)
	if err != nil {
		t.Fatal(err)
	}
	for _, blockB := range []int{v2BlockVertices, 7} {
		path := filepath.Join(t.TempDir(), "index.srwk")
		if err := os.WriteFile(path, saveBlocked(t, built, IndexFile, blockB), 0o644); err != nil {
			t.Fatal(err)
		}
		wb := openWriteBack(t, path, IndexFile)
		rng := rand.New(rand.NewSource(int64(blockB)))
		g := g0
		for batch := 0; batch < 6; batch++ {
			next, sum, err := g.ApplyEdits(editBatch(rng, g, 1+batch%4))
			if err != nil {
				t.Fatal(err)
			}
			if _, err := wb.Update(next, sum.DirtyIn, 3); err != nil {
				t.Fatal(err)
			}
			g = next
			fresh, err := buildFull(g, opt)
			if err != nil {
				t.Fatal(err)
			}
			if !wb.Equal(fresh) {
				t.Fatalf("block size %d, batch %d: write-back Update != fresh Build", blockB, batch)
			}
			requireFile(t, path, saveBlocked(t, fresh, IndexFile, blockB), "after a batch")
		}
	}
}

// TestWriteBackSpliceBoundaries repairs chosen vertices of a file at
// block sizes 1, 3 and 13, as an index file and as a shard range: a
// block's first vertex, its last, the last of the short final block,
// adjacent vertices within a block and across a boundary. After every
// batch the file is a fresh build's, byte for byte.
func TestWriteBackSpliceBoundaries(t *testing.T) {
	opt := Options{K: 6, Walks: 5, Seed: 3}
	for _, kind := range []FileKind{IndexFile, ShardFile} {
		lo, hi := 0, hubN
		if kind == ShardFile {
			lo, hi = 7, 53
		}
		rows := hi - lo
		for _, blockB := range []int{1, 3, 13} {
			g := hubGraph(int64(blockB))
			built, err := Build(g, opt, lo, hi)
			if err != nil {
				t.Fatal(err)
			}
			path := filepath.Join(t.TempDir(), "splice.srwk")
			if err := os.WriteFile(path, saveBlocked(t, built, kind, blockB), 0o644); err != nil {
				t.Fatal(err)
			}
			wb := openWriteBack(t, path, kind)
			rng := rand.New(rand.NewSource(int64(blockB)))
			for _, local := range [][]int{
				{0},                        // the first vertex of the first block
				{blockB},                   // a block's first vertex
				{2*blockB - 1},             // a block's last vertex
				{rows - 1},                 // the last vertex of the short final block
				{2*blockB - 1, 2 * blockB}, // adjacent, across a block boundary
				{2 * blockB, 2*blockB + 1}, // adjacent, within a block when blockB > 1
				{3, blockB, 2*blockB - 1, rows - 1},
				{blockB},
			} {
				var targets []int
				for _, v := range local {
					targets = append(targets, lo+v)
				}
				slices.Sort(targets)
				targets = slices.Compact(targets) // at block size 1, first and last coincide
				if g, err = updateTargets(t, rng, wb, g, targets); err != nil {
					t.Fatal(err)
				}
				fresh, err := Build(g, opt, lo, hi)
				if err != nil {
					t.Fatal(err)
				}
				requireFile(t, path, saveBlocked(t, fresh, kind, blockB), fmt.Sprintf("%s, block size %d, targets %v", kind, blockB, targets))
			}
		}
	}
}

// TestPrefetchShardEquivalence covers the ranged sweeps: SparseRows and
// JoinCandidates on a shard range opened for write-back must match the
// built range exactly.
func TestPrefetchShardEquivalence(t *testing.T) {
	g := gen.CitationGraph(420, 4, 19)
	opt := Options{Walks: 16, Seed: 5}
	sx, err := Build(g, opt, 60, 350)
	if err != nil {
		t.Fatal(err)
	}
	wb := openWriteBack(t, saveFile(t, sx, ShardFile), ShardFile)

	ctx := context.Background()
	sources := []int{0, 60, 200, 349, 419}
	want := msRows(t, sx, g, sources, 3)
	for i, row := range msRows(t, wb, g, sources, 3) {
		if !slices.Equal(row, want[i]) {
			t.Fatalf("row %d differs", i)
		}
	}
	wantCand, err := sx.JoinCandidates(ctx, g, 0.05, 0, sx.Walks(), 200000, 2)
	if err != nil {
		t.Fatal(err)
	}
	gotCand, err := wb.JoinCandidates(ctx, g, 0.05, 0, wb.Walks(), 200000, 2)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(gotCand, wantCand) {
		t.Fatalf("JoinCandidates: %d keys, built %d", len(gotCand), len(wantCand))
	}
}

// TestShardMappedByteIdentical: a shard range opened for write-back equals
// the built range, and after an edit batch its file is a fresh shard
// build's, byte for byte, and reopens as that build.
func TestShardMappedByteIdentical(t *testing.T) {
	g := gen.WebGraph(400, 5, 17)
	opt := Options{Walks: 20, Seed: 6}
	sx, err := Build(g, opt, 100, 300)
	if err != nil {
		t.Fatal(err)
	}
	path := saveFile(t, sx, ShardFile)
	wb := openWriteBack(t, path, ShardFile)
	if !sx.Equal(wb) {
		t.Fatal("write-back shard != built shard")
	}

	next, sum, err := g.ApplyEdits(editBatch(rand.New(rand.NewSource(2)), g, 4))
	if err != nil {
		t.Fatal(err)
	}
	if repaired, err := wb.Update(next, sum.DirtyIn, 2); err != nil || repaired == 0 {
		t.Fatalf("Update: %d walks repaired, err %v", repaired, err)
	}
	fresh, err := Build(next, opt, 100, 300)
	if err != nil {
		t.Fatal(err)
	}
	if !wb.Equal(fresh) {
		t.Fatal("write-back shard Update != fresh shard build")
	}
	requireFile(t, path, saveBytes(t, fresh, ShardFile), "shard after a batch")
	if reopened := openWriteBack(t, path, ShardFile); !reopened.Equal(fresh) {
		t.Fatal("reopened shard file != fresh shard build")
	}
}

// TestMappedConcurrentReaders drives parallel queries through one
// write-back index; under -race this checks that reads share nothing
// mutable.
func TestMappedConcurrentReaders(t *testing.T) {
	g := gen.WebGraph(300, 5, 23)
	built, err := buildFull(g, Options{Walks: 12, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	wb := openWriteBack(t, saveFile(t, built, IndexFile), IndexFile)
	ctx := context.Background()
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for q := w; q < 300; q += 8 {
				want, err := denseRows(ctx, built, nil, []int{q}, 1)
				if err != nil {
					t.Error(err)
					return
				}
				got, err := denseRows(ctx, wb, nil, []int{q}, 1)
				if err != nil {
					t.Error(err)
					return
				}
				if !slices.Equal(got[0], want[0]) {
					t.Errorf("row of %d differs", q)
					return
				}
			}
		}(w)
	}
	wg.Wait()
}

// TestPrefetchConcurrentReadersAndEdits is the race gate for edits:
// readers query a write-back index while a writer applies edit batches,
// each of which rewrites the file. The reader/writer lock mirrors how
// simrankd serializes edits against queries. Run under -race in CI.
func TestPrefetchConcurrentReadersAndEdits(t *testing.T) {
	g := gen.WebGraph(400, 5, 31)
	opt := Options{Walks: 12, Seed: 8}
	built, err := buildFull(g, opt)
	if err != nil {
		t.Fatal(err)
	}
	path := saveFile(t, built, IndexFile)
	wb := openWriteBack(t, path, IndexFile)

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
				for _, sources := range [][]int{{(w*97 + i*13) % 400}, {w, (w + 100) % 400}} {
					if rows, err := wb.SparseRows(ctx, nil, sources, 2); err != nil {
						t.Error(err)
					} else {
						sparserow.Release(rows...)
					}
				}
				mu.RUnlock()
			}
		}(w)
	}

	rng := rand.New(rand.NewSource(3))
	cur := g
	for batch := 0; batch < 4; batch++ {
		next, sum, err := cur.ApplyEdits(editBatch(rng, cur, 2))
		if err != nil {
			t.Fatal(err)
		}
		mu.Lock()
		_, uerr := wb.Update(next, sum.DirtyIn, 3)
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
	if !wb.Equal(fresh) {
		t.Fatal("write-back index diverged from a fresh build after concurrent edits")
	}
	requireFile(t, path, saveBytes(t, fresh, IndexFile), "after concurrent edits")
}

// TestLoadMappedRejections: what only the write-back opening can get
// wrong — a missing file, the backend it reports, and Close.
func TestLoadMappedRejections(t *testing.T) {
	ix := buildSmall(t)
	path := saveFile(t, ix, IndexFile)
	if _, err := LoadWriteBack(filepath.Join(filepath.Dir(path), "missing.srwk"), IndexFile); err == nil {
		t.Error("LoadWriteBack accepted a missing file")
	}
	wb, err := LoadWriteBack(path, IndexFile)
	if err != nil {
		t.Fatalf("LoadWriteBack rejected a valid file: %v", err)
	}
	if !ix.Equal(wb) {
		t.Error("write-back small index != original")
	}
	if ix.Backend() != "dense" || wb.Backend() != "write-back" {
		t.Errorf("Backend() = %q built, %q write-back", ix.Backend(), wb.Backend())
	}
	if err := ix.Close(); err != nil {
		t.Errorf("Close of a built index: %v", err)
	}
	if err := wb.Close(); err != nil {
		t.Errorf("Close of a write-back index: %v", err)
	}
}

// TestWriteBackFailureKeepsOldFile injects a write that fails once: the
// file stays as it was, byte for byte, while the index in memory is the
// repaired one; the next successful batch writes both batches. The two
// batches repair neighbouring vertices of one block, so the second splices
// clean runs around the first's vertices: had the failed write committed
// their new lengths, those runs would be read at the wrong offsets.
func TestWriteBackFailureKeepsOldFile(t *testing.T) {
	g := hubGraph(11)
	opt := Options{K: 6, Walks: 10, Seed: 6}
	built, err := buildFull(g, opt)
	if err != nil {
		t.Fatal(err)
	}
	path := saveFile(t, built, IndexFile)
	before, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	wb := openWriteBack(t, path, IndexFile)

	injected := errors.New("injected write failure")
	real := writeFile
	t.Cleanup(func() { writeFile = real })
	writeFile = func(path string, write func(io.Writer) error) error {
		return real(path, func(w io.Writer) error {
			if err := write(w); err != nil {
				return err
			}
			return injected // the temp file is complete, but never published
		})
	}

	rng := rand.New(rand.NewSource(9))
	g1, err := updateTargets(t, rng, wb, g, []int{20})
	if !errors.Is(err, ErrWriteBack) || !errors.Is(err, injected) {
		t.Fatalf("Update under a failing write: err = %v, want ErrWriteBack wrapping the injected error", err)
	}
	requireFile(t, path, before, "after the failed write")
	fresh1, err := buildFull(g1, opt)
	if err != nil {
		t.Fatal(err)
	}
	if !wb.Equal(fresh1) {
		t.Fatal("after the failed write the index is not the repaired one")
	}
	if entries, err := os.ReadDir(filepath.Dir(path)); err != nil || len(entries) != 1 {
		t.Fatalf("the failed write left %d files behind (err %v)", len(entries), err)
	}

	writeFile = real
	g2, err := updateTargets(t, rng, wb, g1, []int{23})
	if err != nil {
		t.Fatal(err)
	}
	fresh2, err := buildFull(g2, opt)
	if err != nil {
		t.Fatal(err)
	}
	if !wb.Equal(fresh2) {
		t.Fatal("write-back Update != fresh Build after the recovery batch")
	}
	requireFile(t, path, saveBytes(t, fresh2, IndexFile), "after the recovery batch")
}

// TestWriteBackShortReadIsError: a clean run that cannot be read back in
// full from the old file — its handle closed, or holding fewer bytes than
// the recorded lengths — fails the write-back before anything is
// published. The file stays as it was and the index in memory repaired.
func TestWriteBackShortReadIsError(t *testing.T) {
	for _, tc := range []struct {
		name  string
		spoil func(t *testing.T, bk *backing)
	}{
		{"closed", func(t *testing.T, bk *backing) { bk.f.Close() }},
		{"truncated", func(t *testing.T, bk *backing) {
			old, err := os.ReadFile(bk.path)
			if err != nil {
				t.Fatal(err)
			}
			short := filepath.Join(t.TempDir(), "short.srwk")
			if err := os.WriteFile(short, old[:len(bk.pre)+8*len(bk.dir)+int(bk.vlen[0])], 0o644); err != nil {
				t.Fatal(err)
			}
			f, err := os.Open(short)
			if err != nil {
				t.Fatal(err)
			}
			bk.f.Close()
			bk.f = f
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			g := hubGraph(5)
			opt := Options{K: 6, Walks: 4, Seed: 2}
			built, err := buildFull(g, opt)
			if err != nil {
				t.Fatal(err)
			}
			path := saveFile(t, built, IndexFile)
			before, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			wb := openWriteBack(t, path, IndexFile)
			tc.spoil(t, wb.file)
			real := writeFile
			t.Cleanup(func() { writeFile = real })
			writeFile = func(string, func(io.Writer) error) error {
				t.Error("a write-back whose clean run failed to read went on to write the file")
				return nil
			}

			g1, err := updateTargets(t, rand.New(rand.NewSource(1)), wb, g, []int{30})
			if !errors.Is(err, ErrWriteBack) {
				t.Fatalf("Update over an unreadable old file: err = %v, want ErrWriteBack", err)
			}
			requireFile(t, path, before, "after the failed read")
			fresh, err := buildFull(g1, opt)
			if err != nil {
				t.Fatal(err)
			}
			if !wb.Equal(fresh) {
				t.Fatal("after the failed read the index is not the repaired one")
			}
		})
	}
}

// BenchmarkWriteBack times the write-back of 8-edit batches on the
// mapped-edits shape — a citation graph of 15000 vertices, 100 walks a
// vertex, a file under b.TempDir() — one batch per op: the repair and the
// marking are untimed, the splice and the atomic rewrite timed. It reports
// the vertices re-encoded per batch.
func BenchmarkWriteBack(b *testing.B) {
	g := gen.CitationGraph(15000, 4, 1)
	opt := Options{Walks: 100, Seed: 1}
	built, err := buildFull(g, opt)
	if err != nil {
		b.Fatal(err)
	}
	path := filepath.Join(b.TempDir(), "index.srwk")
	if err := os.WriteFile(path, saveBytes(b, built, IndexFile), 0o644); err != nil {
		b.Fatal(err)
	}
	ix, err := LoadWriteBack(path, IndexFile)
	if err != nil {
		b.Fatal(err)
	}
	defer ix.Close()
	rng := rand.New(rand.NewSource(1))
	encoded := 0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		next, sum, err := g.ApplyEdits(editBatch(rng, g, 8))
		if err != nil {
			b.Fatal(err)
		}
		g = next
		ix.file.markDirty(ix.repair(g, sum.DirtyIn, 1), ix.r)
		for _, d := range ix.file.dirty {
			if d {
				encoded++
			}
		}
		b.StartTimer()
		if err := ix.writeBack(); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(encoded)/float64(b.N), "vertices_encoded/op")
}
