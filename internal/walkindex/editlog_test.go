package walkindex

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"oipsr/graph"
	"oipsr/graph/gen"
)

// logFixture saves a build of a citation graph, opens it for write-back,
// and applies batches edit batches, each of which repairs walks and is
// appended to the edit log: the file is never rewritten. It returns the
// file's path, the open index, and the graph before the first batch and
// after each (graphs[i] is the graph after i batches).
func logFixture(t *testing.T, batches int) (string, *Index, []*graph.Graph, Options) {
	t.Helper()
	g := gen.CitationGraph(400, 4, 7)
	opt := Options{Walks: 12, Seed: 5}
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
	graphs := []*graph.Graph{g}
	rng := rand.New(rand.NewSource(3))
	for len(graphs) <= batches {
		next, sum, err := g.ApplyEdits(editBatch(rng, g, 1))
		if err != nil {
			t.Fatal(err)
		}
		repaired, err := wb.Update(next, sum.DirtyIn, 2)
		if err != nil {
			t.Fatal(err)
		}
		g = next
		if repaired > 0 {
			graphs = append(graphs, g)
		}
	}
	requireFile(t, path, before, "after batches that fit the log")
	return path, wb, graphs, opt
}

// requireReload fails unless LoadFile of path is a fresh build on g.
func requireReload(t *testing.T, path string, g *graph.Graph, opt Options, what string) {
	t.Helper()
	fresh, err := buildFull(g, opt)
	if err != nil {
		t.Fatal(err)
	}
	requireDurable(t, path, IndexFile, fresh, nil, what)
}

// TestEditLogTornTail cuts the log at every byte offset inside its last
// record, as a crash mid-append leaves it: LoadFile then gives the index
// of the batch before, never an error and never a mix. A write-back index
// opened over a torn log appends nothing after the torn record: its next
// batch checkpoints, and the file is then Save's.
func TestEditLogTornTail(t *testing.T) {
	const k = 3
	path, wb, graphs, opt := logFixture(t, k)
	log, err := os.ReadFile(logPath(path))
	if err != nil {
		t.Fatal(err)
	}
	last := int(wb.file.logBytes) - len(wb.file.rec) // the last record's offset
	if last <= logHeaderLen || last >= len(log) {
		t.Fatalf("last record at %d of a %d-byte log", last, len(log))
	}
	prev, err := buildFull(graphs[k-1], opt)
	if err != nil {
		t.Fatal(err)
	}
	for cut := last; cut < len(log); cut++ {
		if err := os.WriteFile(logPath(path), log[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		got, err := LoadFile(path, IndexFile)
		if err != nil {
			t.Fatalf("log cut at %d: %v", cut, err)
		}
		if !got.Equal(prev) {
			t.Fatalf("log cut at %d of %d: not the index after %d batches", cut, len(log), k-1)
		}
	}
	if err := os.WriteFile(logPath(path), log, 0o644); err != nil {
		t.Fatal(err)
	}
	requireReload(t, path, graphs[k], opt, "the whole log")

	// Reopen over a log torn one byte into its last record and edit on.
	if err := os.WriteFile(logPath(path), log[:last+1], 0o644); err != nil {
		t.Fatal(err)
	}
	torn := openWriteBack(t, path, IndexFile, graphs[k-1])
	if !torn.file.logBroken || torn.file.logBytes != int64(last) {
		t.Fatalf("reopened over a torn log: broken %v, %d valid bytes, want true, %d", torn.file.logBroken, torn.file.logBytes, last)
	}
	next, sum, err := graphs[k-1].ApplyEdits(editBatch(rand.New(rand.NewSource(8)), graphs[k-1], 3))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := torn.Update(next, sum.DirtyIn, 2); err != nil {
		t.Fatal(err)
	}
	fresh, err := buildFull(next, opt)
	if err != nil {
		t.Fatal(err)
	}
	requireFile(t, path, saveBytes(t, fresh, IndexFile), "the batch after a torn log")
	if _, err := os.Stat(logPath(path)); !os.IsNotExist(err) {
		t.Fatalf("the batch after a torn log did not checkpoint (stat err %v)", err)
	}
}

// TestEditLogCrashBeforeRemoval: a crash between a checkpoint's rename
// and the log's removal leaves the log beside the new file. It names the
// old file, so LoadFile reopens to the checkpoint's generation, and a
// write-back index opened there starts a new log rather than extending
// the stale one.
func TestEditLogCrashBeforeRemoval(t *testing.T) {
	const k = 2
	path, wb, graphs, opt := logFixture(t, k)
	log, err := os.ReadFile(logPath(path))
	if err != nil {
		t.Fatal(err)
	}
	if err := wb.checkpoint(0); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(logPath(path), log, 0o644); err != nil { // the removal never happened
		t.Fatal(err)
	}
	requireReload(t, path, graphs[k], opt, "a stale log beside the checkpoint")

	reopened := openWriteBack(t, path, IndexFile, graphs[k])
	if reopened.file.logBytes != 0 || reopened.file.logBroken {
		t.Fatalf("a stale log was taken up: %d bytes, broken %v", reopened.file.logBytes, reopened.file.logBroken)
	}
	next, sum, err := graphs[k].ApplyEdits(editBatch(rand.New(rand.NewSource(4)), graphs[k], 2))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := reopened.Update(next, sum.DirtyIn, 2); err != nil {
		t.Fatal(err)
	}
	requireReload(t, path, next, opt, "a new log over the stale one")
}

// TestEditLogFailedAppend injects an append that writes half its record
// and fails: Update reports ErrWriteBack with the index repaired, the log
// reloads to the batch before, and the next batch checkpoints — nothing is
// ever appended after the torn record.
func TestEditLogFailedAppend(t *testing.T) {
	path, wb, graphs, opt := logFixture(t, 1)
	injected := errors.New("injected append failure")
	real := logWrite
	t.Cleanup(func() { logWrite = real })
	appends := 0
	logWrite = func(f *os.File, b []byte) (int, error) {
		appends++
		n, _ := real(f, b[:len(b)/2])
		return n, injected
	}
	g := graphs[1]
	rng := rand.New(rand.NewSource(6))
	var g1 *graph.Graph
	for g1 == nil {
		next, sum, err := g.ApplyEdits(editBatch(rng, g, 1))
		if err != nil {
			t.Fatal(err)
		}
		repaired, err := wb.Update(next, sum.DirtyIn, 2)
		switch {
		case repaired == 0 && err == nil:
			g = next
		case !errors.Is(err, ErrWriteBack) || !errors.Is(err, injected):
			t.Fatalf("Update under a failing append: err = %v, want ErrWriteBack wrapping the injected error", err)
		default:
			g1 = next
		}
	}
	fresh1, err := buildFull(g1, opt)
	if err != nil {
		t.Fatal(err)
	}
	if !wb.Equal(fresh1) {
		t.Fatal("after the failed append the index is not the repaired one")
	}
	requireReload(t, path, g, opt, "a log torn by a failed append")

	appends = 0
	next, sum, err := g1.ApplyEdits(editBatch(rng, g1, 2))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := wb.Update(next, sum.DirtyIn, 2); err != nil {
		t.Fatal(err)
	}
	if appends != 0 {
		t.Fatalf("the batch after a failed append appended %d times, want a checkpoint", appends)
	}
	fresh2, err := buildFull(next, opt)
	if err != nil {
		t.Fatal(err)
	}
	requireFile(t, path, saveBytes(t, fresh2, IndexFile), "the checkpoint after a failed append")
	if _, err := os.Stat(logPath(path)); !os.IsNotExist(err) {
		t.Fatalf("the checkpoint left the log (stat err %v)", err)
	}
}

// TestEditLogCheckpointShare: Update checkpoints instead of appending once
// the log holds 1/logShare of the file, and the file is then Save's.
func TestEditLogCheckpointShare(t *testing.T) {
	path, wb, graphs, opt := logFixture(t, 1)
	g := graphs[1]
	rng := rand.New(rand.NewSource(12))
	for wb.file.logBytes < wb.file.size/logShare {
		next, sum, err := g.ApplyEdits(editBatch(rng, g, 2))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := wb.Update(next, sum.DirtyIn, 2); err != nil {
			t.Fatal(err)
		}
		g = next
		if wb.file.logBytes == 0 {
			t.Fatal("checkpointed before the log reached its share of the file")
		}
	}
	for wb.file.logBytes != 0 {
		next, sum, err := g.ApplyEdits(editBatch(rng, g, 2))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := wb.Update(next, sum.DirtyIn, 2); err != nil {
			t.Fatal(err)
		}
		g = next
	}
	fresh, err := buildFull(g, opt)
	if err != nil {
		t.Fatal(err)
	}
	requireFile(t, path, saveBytes(t, fresh, IndexFile), "the checkpoint at the log's share")
	if _, err := os.Stat(logPath(path)); !os.IsNotExist(err) {
		t.Fatalf("the checkpoint left the log (stat err %v)", err)
	}
}

// FuzzEditLog: arbitrary bytes as the edit log beside a valid file —
// whole, or after a header that names the file — never panic, never fail
// LoadFile, never allocate much more than the log's own size, and never
// store a walk the index cannot hold: entries in [0, n), live lengths at
// most K. A bad log replays exactly its valid prefix: the prefix alone
// reloads to the same index.
func FuzzEditLog(f *testing.F) {
	g := graph.MustFromEdges(6, [][2]int{{0, 1}, {1, 2}, {2, 0}, {3, 1}, {4, 2}, {5, 4}})
	built, err := buildFull(g, Options{C: 0.6, K: 4, Walks: 3, Seed: 1})
	if err != nil {
		f.Fatal(err)
	}
	base := saveBytes(f, built, IndexFile)
	dir := f.TempDir()
	path := filepath.Join(dir, "index.srwk")
	if err := os.WriteFile(path, base, 0o644); err != nil {
		f.Fatal(err)
	}
	hdr := logHeader(int64(len(base)), binary.LittleEndian.Uint32(base[len(base)-4:]))

	// A real log: two batches through a write-back copy of the file, each
	// appended (the file is too small for Update to append twice).
	src := filepath.Join(f.TempDir(), "index.srwk")
	if err := os.WriteFile(src, base, 0o644); err != nil {
		f.Fatal(err)
	}
	wb, err := LoadWriteBack(src, IndexFile)
	if err != nil {
		f.Fatal(err)
	}
	attach(f, wb, g)
	cur := g
	for _, e := range []graph.Edit{{Op: graph.EditAdd, U: 5, V: 3}, {Op: graph.EditRemove, U: 2, V: 0}} {
		next, sum, err := cur.ApplyEdits([]graph.Edit{e})
		if err != nil {
			f.Fatal(err)
		}
		walks, _ := wb.repair(next, sum.DirtyIn, 1)
		if err := wb.appendLog(walks); err != nil {
			f.Fatal(err)
		}
		cur = next
	}
	log, err := os.ReadFile(logPath(src))
	if err != nil {
		f.Fatal(err)
	}
	// No Close: it would checkpoint, and the log must stay as it is.
	body := log[logHeaderLen:]
	f.Add(false, body)
	f.Add(false, body[:len(body)-3])
	f.Add(true, log)
	f.Add(true, log[:logHeaderLen-1])
	flipped := append([]byte(nil), body...)
	flipped[len(flipped)/2] ^= 0x04
	f.Add(false, flipped)
	f.Add(false, []byte{0xff, 0xff, 0xff, 0xff, 0x0f})
	f.Add(false, []byte{})

	baseAlloc := loadAlloc(f, path)
	f.Fuzz(func(t *testing.T, whole bool, data []byte) {
		log := data
		if !whole {
			log = append(append([]byte(nil), hdr...), data...)
		}
		if err := os.WriteFile(logPath(path), log, 0o644); err != nil {
			t.Fatal(err)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		ix, err := LoadFile(path, IndexFile)
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatalf("LoadFile over a log of %d bytes: %v", len(log), err)
		}
		if grew := after.TotalAlloc - before.TotalAlloc; grew > baseAlloc+64*uint64(len(log))+1<<16 {
			t.Fatalf("a %d-byte log allocated %d bytes, %d without it", len(log), grew, baseAlloc)
		}
		for v := range ix.Width() {
			row := ix.store.row(v)
			for fp := range ix.r {
				w := row.walk(fp)
				if len(w) > ix.k {
					t.Fatalf("walk (%d,%d) of live length %d > K = %d", v, fp, len(w), ix.k)
				}
				for _, p := range w {
					if p < 0 || int(p) >= ix.n {
						t.Fatalf("walk (%d,%d) holds entry %d outside [0,%d)", v, fp, p, ix.n)
					}
				}
			}
		}
		if !bytes.HasPrefix(log, hdr) {
			if !ix.Equal(built) {
				t.Fatal("a log that does not name the file changed the index")
			}
			return
		}
		fresh, err := Load(bytes.NewReader(base), IndexFile)
		if err != nil {
			t.Fatal(err)
		}
		valid := fresh.replay(log[logHeaderLen:])
		if err := os.WriteFile(logPath(path), log[:logHeaderLen+valid], 0o644); err != nil {
			t.Fatal(err)
		}
		prefix, err := LoadFile(path, IndexFile)
		if err != nil {
			t.Fatal(err)
		}
		if !prefix.Equal(ix) {
			t.Fatalf("the log's valid prefix (%d of %d bytes) reloads to another index", valid, len(log)-logHeaderLen)
		}
	})
}

// loadAlloc returns the bytes LoadFile of path allocates with no log
// beside it.
func loadAlloc(t testing.TB, path string) uint64 {
	t.Helper()
	os.Remove(logPath(path))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if _, err := LoadFile(path, IndexFile); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}
