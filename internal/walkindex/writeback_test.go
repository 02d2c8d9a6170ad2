package walkindex

import (
	"bytes"
	"context"
	"errors"
	"fmt"
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

// openWriteBack opens path for write-back, attaches g and closes the index
// with the test.
func openWriteBack(t *testing.T, path string, kind FileKind, g *graph.Graph) *Index {
	t.Helper()
	ix, err := LoadWriteBack(path, kind)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ix.Close() })
	attach(t, ix, g)
	return ix
}

// saveBlocked is Save at a block size of blockB vertices instead of
// v2BlockVertices — files of other writers are valid with any block size,
// and a write-back must keep the one it found — written by a serial loop
// of single blocks, the reference the windowed encoder is held to.
func saveBlocked(t *testing.T, ix *Index, kind FileKind, blockB int) []byte {
	t.Helper()
	h, err := writableHeader(kind, ix.n, ix.lo, ix.hi, ix.k, ix.r, ix.c, ix.seed)
	if err != nil {
		t.Fatal(err)
	}
	var f memFile
	fw := newFileWriter(&f, h, blockB)
	for b := range int(v2NumBlocks(h.rows(), int64(blockB))) {
		if err := fw.add(ix.store.appendBlock(nil, b, blockB)); err != nil {
			t.Fatal(err)
		}
	}
	if _, _, err := fw.finish(); err != nil {
		t.Fatal(err)
	}
	return f
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

// requireDurable fails unless the file at path and its edit log reload
// (LoadFile) to fresh, and, when no log is pending beside it — a
// checkpoint has just run — unless the file is want, byte for byte.
func requireDurable(t *testing.T, path string, kind FileKind, fresh *Index, want []byte, what string) {
	t.Helper()
	reloaded, err := LoadFile(path, kind)
	if err != nil {
		t.Fatalf("%s: reload: %v", what, err)
	}
	if !reloaded.Equal(fresh) {
		t.Fatalf("%s: the file and its log reload to another index than a fresh build", what)
	}
	if _, err := os.Stat(logPath(path)); os.IsNotExist(err) {
		requireFile(t, path, want, what+", after a checkpoint")
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
	wb := openWriteBack(t, saveFile(t, built, IndexFile), IndexFile, g)
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
// graph, the file and its edit log reload to that build, and the file is
// that build's file, byte for byte, after every checkpoint — the log
// reaching its share of the file — and after Close.
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
		wb := openWriteBack(t, path, IndexFile, g0)
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
			requireDurable(t, path, IndexFile, fresh, saveBlocked(t, fresh, IndexFile, blockB), fmt.Sprintf("block size %d, batch %d", blockB, batch))
		}
		if err := wb.Close(); err != nil {
			t.Fatal(err)
		}
		fresh, err := buildFull(g, opt)
		if err != nil {
			t.Fatal(err)
		}
		requireFile(t, path, saveBlocked(t, fresh, IndexFile, blockB), "after Close")
		if _, err := os.Stat(logPath(path)); !os.IsNotExist(err) {
			t.Fatalf("block size %d: Close left the edit log (stat err %v)", blockB, err)
		}
	}
}

// TestWriteBackSpliceBoundaries repairs chosen vertices of a file at
// block sizes 1, 3 and 13, as an index file and as a shard range: a
// block's first vertex, its last, the last of the short final block,
// adjacent vertices within a block and across a boundary. After every
// batch the file and its edit log reload to a fresh build, and after a
// checkpoint following every batch the file is that build's, byte for
// byte.
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
			wb := openWriteBack(t, path, kind, g)
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
				what := fmt.Sprintf("%s, block size %d, targets %v", kind, blockB, targets)
				want := saveBlocked(t, fresh, kind, blockB)
				requireDurable(t, path, kind, fresh, want, what)
				if err := wb.checkpoint(0); err != nil {
					t.Fatal(err)
				}
				requireFile(t, path, want, what)
			}
		}
	}
}

// TestWriteBackShardEquivalence covers the ranged sweeps: SparseRows and
// the join's candidate enumeration on a shard range opened for write-back must match the
// built range exactly.
func TestWriteBackShardEquivalence(t *testing.T) {
	g := gen.CitationGraph(420, 4, 19)
	opt := Options{Walks: 16, Seed: 5}
	sx, err := Build(g, opt, 60, 350)
	if err != nil {
		t.Fatal(err)
	}
	wb := openWriteBack(t, saveFile(t, sx, ShardFile), ShardFile, g)

	ctx := context.Background()
	sources := []int{0, 60, 200, 349, 419}
	want := msRows(t, sx, g, sources, 3)
	for i, row := range msRows(t, wb, g, sources, 3) {
		if !slices.Equal(row, want[i]) {
			t.Fatalf("row %d differs", i)
		}
	}
	wantCand, err := sx.joinCandidates(ctx, g, 0.05, 200000, 2)
	if err != nil {
		t.Fatal(err)
	}
	gotCand, err := wb.joinCandidates(ctx, g, 0.05, 200000, 2)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(gotCand, wantCand) {
		t.Fatalf("joinCandidates: %d keys, built %d", len(gotCand), len(wantCand))
	}
}

// TestShardMappedByteIdentical: a shard range opened for write-back equals
// the built range; after an edit batch its file and edit log reload to a
// fresh shard build, after Close its file is that build's, byte for byte,
// and it reopens as that build.
func TestShardMappedByteIdentical(t *testing.T) {
	g := gen.WebGraph(400, 5, 17)
	opt := Options{Walks: 20, Seed: 6}
	sx, err := Build(g, opt, 100, 300)
	if err != nil {
		t.Fatal(err)
	}
	path := saveFile(t, sx, ShardFile)
	wb := openWriteBack(t, path, ShardFile, g)
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
	want := saveBytes(t, fresh, ShardFile)
	requireDurable(t, path, ShardFile, fresh, want, "shard after a batch")
	if err := wb.Close(); err != nil {
		t.Fatal(err)
	}
	requireFile(t, path, want, "shard after Close")
	if reopened := openWriteBack(t, path, ShardFile, next); !reopened.Equal(fresh) {
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
	wb := openWriteBack(t, saveFile(t, built, IndexFile), IndexFile, g)
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

// TestWriteBackConcurrentReadersAndEdits is the race gate for edits:
// readers query a write-back index while a writer applies edit batches,
// each of which appends to the edit log or checkpoints the file. The
// reader/writer lock mirrors how simrankd serializes edits against
// queries. Run under -race in CI.
func TestWriteBackConcurrentReadersAndEdits(t *testing.T) {
	g := gen.WebGraph(400, 5, 31)
	opt := Options{Walks: 12, Seed: 8}
	built, err := buildFull(g, opt)
	if err != nil {
		t.Fatal(err)
	}
	path := saveFile(t, built, IndexFile)
	wb := openWriteBack(t, path, IndexFile, g)

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
	want := saveBytes(t, fresh, IndexFile)
	requireDurable(t, path, IndexFile, fresh, want, "after concurrent edits")
	if err := wb.Close(); err != nil {
		t.Fatal(err)
	}
	requireFile(t, path, want, "after concurrent edits and Close")
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

// TestWriteBackFailureKeepsOldFile injects a checkpoint write that fails:
// the file stays as it was, byte for byte, its edit log still replays to
// the repaired index, and the index in memory is the repaired one; the
// next batch checkpoints instead of appending, and writes both batches.
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
	wb := openWriteBack(t, path, IndexFile, g)

	rng := rand.New(rand.NewSource(9))
	g1, err := updateTargets(t, rng, wb, g, []int{20})
	if err != nil {
		t.Fatal(err)
	}
	fresh1, err := buildFull(g1, opt)
	if err != nil {
		t.Fatal(err)
	}

	injected := errors.New("injected write failure")
	real := writeFile
	t.Cleanup(func() { writeFile = real })
	writeFile = func(path string, write func(*os.File) error) error {
		return real(path, func(f *os.File) error {
			if err := write(f); err != nil {
				return err
			}
			return injected // the temp file is complete, but never published
		})
	}
	if err := wb.checkpoint(0); !errors.Is(err, ErrWriteBack) || !errors.Is(err, injected) {
		t.Fatalf("checkpoint under a failing write: err = %v, want ErrWriteBack wrapping the injected error", err)
	}
	requireFile(t, path, before, "after the failed write")
	requireDurable(t, path, IndexFile, fresh1, nil, "after the failed write")
	if !wb.Equal(fresh1) {
		t.Fatal("after the failed write the index is not the repaired one")
	}
	if entries, err := os.ReadDir(filepath.Dir(path)); err != nil || len(entries) != 2 {
		t.Fatalf("the failed write left %d files beside the file and its log (err %v)", len(entries)-2, err)
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
	if _, err := os.Stat(logPath(path)); !os.IsNotExist(err) {
		t.Fatalf("the recovery batch did not checkpoint: its log remains (stat err %v)", err)
	}
}

// TestWriteBackNeverReadsOldFile: nothing reads the index file after it
// is opened. With the file truncated, overwritten in place or unlinked
// under a live write-back index, a batch, an explicit checkpoint and then
// — the file spoiled again and one more batch made — Close all succeed,
// and the checkpoint and Close each leave Save's bytes for the repaired
// rows, at the loaded file's block size, with no edit log.
func TestWriteBackNeverReadsOldFile(t *testing.T) {
	for _, tc := range []struct {
		name  string
		spoil func(path string) error
	}{
		{"truncated", func(path string) error {
			st, err := os.Stat(path)
			if err != nil {
				return err
			}
			return os.Truncate(path, st.Size()/2)
		}},
		{"overwritten", func(path string) error {
			old, err := os.ReadFile(path)
			if err != nil {
				return err
			}
			return os.WriteFile(path, bytes.Repeat([]byte{0xa5}, len(old)), 0o644)
		}},
		{"unlinked", os.Remove},
	} {
		t.Run(tc.name, func(t *testing.T) {
			const blockB = 8
			g := hubGraph(5)
			opt := Options{K: 6, Walks: 4, Seed: 2}
			built, err := buildFull(g, opt)
			if err != nil {
				t.Fatal(err)
			}
			path := filepath.Join(t.TempDir(), "index.srwk")
			if err := os.WriteFile(path, saveBlocked(t, built, IndexFile, blockB), 0o644); err != nil {
				t.Fatal(err)
			}
			wb := openWriteBack(t, path, IndexFile, g)
			rng := rand.New(rand.NewSource(1))
			for step, target := range []int{3, 30} {
				if err := tc.spoil(path); err != nil {
					t.Fatal(err)
				}
				if g, err = updateTargets(t, rng, wb, g, []int{target}); err != nil {
					t.Fatalf("step %d: Update: %v", step, err)
				}
				what := "the checkpoint"
				if step == 0 {
					err = wb.checkpoint(0)
				} else {
					what, err = "Close", wb.Close()
				}
				if err != nil {
					t.Fatalf("%s over a spoiled file: %v", what, err)
				}
				fresh, err := buildFull(g, opt)
				if err != nil {
					t.Fatal(err)
				}
				requireFile(t, path, saveBlocked(t, fresh, IndexFile, blockB), what)
				if _, err := os.Stat(logPath(path)); !os.IsNotExist(err) {
					t.Fatalf("%s left the edit log (stat err %v)", what, err)
				}
			}
		})
	}
}

// TestCheckpointSaveStreamSameBytes: the one block encoder writes the
// same bytes at every worker count and window. At 1, 2 and 8 workers, with
// windows of one block, a few KB and 4 MiB, Save's encoder, a streamed
// build in slices of one block and of the whole range, and a checkpoint of
// a file of 13-vertex blocks each write the file a serial loop of single
// blocks (saveBlocked) writes.
func TestCheckpointSaveStreamSameBytes(t *testing.T) {
	defer func(window int) { decodeWindow = window }(decodeWindow)
	g := gen.CitationGraph(700, 4, 3)
	opt := Options{Walks: 8, Seed: 7}
	const blockB = 13
	built, err := buildFull(g, opt)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "index.srwk")
	if err := os.WriteFile(path, saveBlocked(t, built, IndexFile, blockB), 0o644); err != nil {
		t.Fatal(err)
	}
	wb := openWriteBack(t, path, IndexFile, g)
	rng := rand.New(rand.NewSource(5))
	for _, window := range []int{1, 3000, 4 << 20} {
		decodeWindow = window
		for _, workers := range []int{1, 2, 8} {
			what := fmt.Sprintf("window %d B, %d workers", window, workers)
			next, sum, err := g.ApplyEdits(editBatch(rng, g, 3))
			if err != nil {
				t.Fatal(err)
			}
			if _, err := wb.Update(next, sum.DirtyIn, workers); err != nil {
				t.Fatal(err)
			}
			g = next
			if err := wb.checkpoint(workers); err != nil {
				t.Fatal(err)
			}
			fresh, err := buildFull(g, opt)
			if err != nil {
				t.Fatal(err)
			}
			requireFile(t, path, saveBlocked(t, fresh, IndexFile, blockB), what+", checkpoint")

			want := saveBlocked(t, fresh, IndexFile, v2BlockVertices)
			var saved memFile
			if _, _, err := fresh.saveBlocks(&saved, IndexFile, v2BlockVertices, workers); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(saved, want) {
				t.Fatalf("%s: Save's encoder writes %d bytes, single blocks %d", what, len(saved), len(want))
			}
			for _, budget := range []int64{1, 1 << 30} {
				var streamed memFile
				o := opt
				o.Workers = workers
				if _, err := BuildStreaming(g, o, 0, g.NumVertices(), IndexFile, &streamed, budget); err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(streamed, want) {
					t.Fatalf("%s: a streamed build under a %d B budget writes %d bytes, single blocks %d", what, budget, len(streamed), len(want))
				}
			}
		}
	}
}

// openBenchWriteBack opens the mapped-edits shape for write-back — a
// citation graph of 15000 vertices, 100 walks a vertex, a file under
// b.TempDir() — and returns it with its graph.
func openBenchWriteBack(b *testing.B) (*Index, *graph.Graph) {
	g := gen.CitationGraph(15000, 4, 1)
	built, err := buildFull(g, Options{Walks: 100, Seed: 1})
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
	b.Cleanup(func() { ix.Close() })
	attach(b, ix, g)
	return ix, g
}

// benchRepair applies a seeded 8-edit batch to g through the repair
// alone and returns the edited graph and the repaired walks.
func benchRepair(b *testing.B, rng *rand.Rand, ix *Index, g *graph.Graph) (*graph.Graph, []int32) {
	next, sum, err := g.ApplyEdits(editBatch(rng, g, 8))
	if err != nil {
		b.Fatal(err)
	}
	walks, _ := ix.repair(next, sum.DirtyIn, 1)
	return next, walks
}

// BenchmarkWriteBack times the durable step of 8-edit batches on the
// mapped-edits shape, one batch per op: the repair untimed, then what
// Update does after it timed — the batch's record appended to the edit
// log and fsynced or, once the log has reached its share of the file, a
// checkpoint. It reports the log bytes appended and the checkpoints run
// per batch.
func BenchmarkWriteBack(b *testing.B) {
	ix, g := openBenchWriteBack(b)
	rng := rand.New(rand.NewSource(1))
	var logBytes int64
	checkpoints := 0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		var walks []int32
		g, walks = benchRepair(b, rng, ix, g)
		before := ix.file.logBytes
		b.StartTimer()
		if err := ix.persist(walks, 0); err != nil {
			b.Fatal(err)
		}
		if ix.file.logBytes == 0 {
			checkpoints++
		} else {
			logBytes += ix.file.logBytes - before
		}
	}
	b.ReportMetric(float64(logBytes)/float64(b.N), "log_bytes/op")
	b.ReportMetric(float64(checkpoints)/float64(b.N), "checkpoints/op")
}

// BenchmarkCheckpoint times a checkpoint on its own, as Update or Close
// runs it, on the mapped-edits shape: "share" over a log that has just
// reached its share of the file — each op first appends untimed 8-edit
// batches until the log holds 1/logShare of it — and "one-batch" over a
// log of a single batch, what Close costs after a short session. Either
// rewrites the whole file and removes the log. It reports the batches per
// checkpoint.
func BenchmarkCheckpoint(b *testing.B) {
	for _, tc := range []struct {
		name    string
		batches int // batches per checkpoint; 0 = until the log's share
	}{{"share", 0}, {"one-batch", 1}} {
		b.Run(tc.name, func(b *testing.B) {
			ix, g := openBenchWriteBack(b)
			rng := rand.New(rand.NewSource(1))
			batches := 0
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				for n := 0; n < tc.batches || tc.batches == 0 && ix.file.logBytes < ix.file.size/logShare; n++ {
					var walks []int32
					g, walks = benchRepair(b, rng, ix, g)
					if err := ix.appendLog(walks); err != nil {
						b.Fatal(err)
					}
					batches++
				}
				b.StartTimer()
				if err := ix.checkpoint(0); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(batches)/float64(b.N), "batches/op")
		})
	}
}
