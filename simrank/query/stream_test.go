package query

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"testing"

	"oipsr/graph"
	"oipsr/graph/gen"
)

// TestBuildFileStreamingByteIdentical is the query-layer equivalence
// gate: streaming the build to disk under any budget must publish
// exactly the bytes SaveFile writes for the materialized index, and the
// sealed file must serve (mapped, that is write-back) bit-identically.
func TestBuildFileStreamingByteIdentical(t *testing.T) {
	g := gen.CitationGraph(240, 5, 3)
	opt := Options{Walks: 30, Seed: 11}
	ix, err := BuildIndex(g, opt)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	wantPath := filepath.Join(dir, "materialized.srwk")
	if err := ix.SaveFile(wantPath); err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile(wantPath)
	if err != nil {
		t.Fatal(err)
	}

	for _, budget := range []int64{1, 4096, 1 << 30} {
		gotPath := filepath.Join(dir, "streamed.srwk")
		st, err := BuildFileStreaming(g, opt, gotPath, budget)
		if err != nil {
			t.Fatalf("budget %d: %v", budget, err)
		}
		got, err := os.ReadFile(gotPath)
		if err != nil {
			t.Fatal(err)
		}
		if string(got) != string(want) {
			t.Fatalf("budget %d: streamed file differs from materialized save", budget)
		}
		if st.Bytes != int64(len(got)) {
			t.Fatalf("budget %d: stats say %d bytes, file has %d", budget, st.Bytes, len(got))
		}
		mx, err := LoadFileMapped(gotPath, MappedOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if err := mx.AttachGraph(g); err != nil {
			t.Fatal(err)
		}
		for q := 0; q < 240; q += 57 {
			a, err := ix.SingleSource(context.Background(), q)
			if err != nil {
				t.Fatal(err)
			}
			b, err := mx.SingleSource(context.Background(), q)
			if err != nil {
				t.Fatal(err)
			}
			for v := range a {
				if a[v] != b[v] {
					t.Fatalf("budget %d: mapped stream-built index differs at (%d,%d)", budget, q, v)
				}
			}
		}
		if err := mx.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestBuildFileStreamingRejectsBadBudget: a non-positive budget aborts
// the publish — no file appears.
func TestBuildFileStreamingRejectsBadBudget(t *testing.T) {
	g := gen.WebGraph(40, 4, 1)
	path := filepath.Join(t.TempDir(), "never.srwk")
	if _, err := BuildFileStreaming(g, Options{Walks: 5, Seed: 2}, path, 0); err == nil {
		t.Fatal("budget 0 accepted")
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Fatalf("aborted build left a file behind (stat err %v)", err)
	}
}

// TestBuildFileStreamingDefaultBudgetBoundsMemory: simrankd streams its
// -index-mmap builds in slices of StreamSliceBytes, so on an index whose
// walks would take more than that as one dense slice the build allocates
// less than that slice. The file does not depend on the slicing
// (TestBuildFileStreamingByteIdentical, and walkindex's streamed = Save
// suites at every budget).
func TestBuildFileStreamingDefaultBudgetBoundsMemory(t *testing.T) {
	// Every walk of an edgeless graph dies at its first step, so the build
	// is cheap while its slice buffer of n*R*K int32s is not.
	const n, walks, k = 400, 2000, 50
	slice := uint64(n * walks * k * 4) // 160 MB, 2.4 times the slice budget
	if slice <= StreamSliceBytes {
		t.Fatalf("slice %d B does not exceed the slice budget %d B", slice, StreamSliceBytes)
	}
	g := graph.MustFromEdges(n, nil)
	opt := Options{Walks: walks, K: k, Seed: 1, Workers: 1}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if _, err := BuildFileStreaming(g, opt, filepath.Join(t.TempDir(), "edgeless.srwk"), StreamSliceBytes); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	if got := after.TotalAlloc - before.TotalAlloc; got >= slice {
		t.Errorf("BuildFileStreaming allocated %d B, at least the single slice of %d B", got, slice)
	}
}

// mappedEdits draws a seeded batch of edge adds and removes on g.
func mappedEdits(rng *rand.Rand, g *graph.Graph, size int) []graph.Edit {
	var edits []graph.Edit
	for len(edits) < size {
		v := rng.Intn(g.NumVertices())
		if in := g.In(v); len(in) > 0 && rng.Intn(2) == 0 {
			edits = append(edits, graph.Edit{Op: graph.EditRemove, U: in[rng.Intn(len(in))], V: v})
		} else {
			edits = append(edits, graph.Edit{Op: graph.EditAdd, U: rng.Intn(g.NumVertices()), V: v})
		}
	}
	return edits
}

// sinkEdit removes an in-edge of a vertex no other vertex's walk stands on
// (it has no out-edges) and that opens no 64-vertex posting block: an edit
// that moves the walks of that one vertex only.
func sinkEdit(t *testing.T, g *graph.Graph) graph.Edit {
	t.Helper()
	for v := g.NumVertices() - 1; v > 0; v-- {
		if v%64 != 0 && g.OutDegree(v) == 0 && g.InDegree(v) > 0 {
			return graph.Edit{Op: graph.EditRemove, U: g.In(v)[0], V: v}
		}
	}
	t.Fatal("no sink with an in-edge opens no posting block")
	return graph.Edit{}
}

// TestLoadFileMappedRestartNeedsEditedGraph: a write-back file holds the
// walks of the edited graph, so reopening it after an edit batch with the
// graph it was built on is refused with ErrGraphMismatch — every stored
// walk is checked, so an edit that moves one vertex's walks is enough —
// and reopening it with the edited graph serves the index a fresh build on
// that graph gives.
func TestLoadFileMappedRestartNeedsEditedGraph(t *testing.T) {
	g := gen.ErdosRenyi(260, 780, 9)
	opt := Options{Walks: 14, Seed: 3}
	path := filepath.Join(t.TempDir(), "walks.srwk")
	if _, err := BuildFileStreaming(g, opt, path, 1<<20); err != nil {
		t.Fatal(err)
	}
	mx, err := LoadFileMapped(path, MappedOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if err := mx.AttachGraph(g); err != nil {
		t.Fatal(err)
	}
	st, err := mx.ApplyEdits([]graph.Edit{sinkEdit(t, g)}, 2)
	if err != nil || st.WalksRepaired == 0 {
		t.Fatalf("edit batch: stats %+v, err %v; want walks repaired", st, err)
	}
	edited := mx.Graph()
	if err := mx.Close(); err != nil {
		t.Fatal(err)
	}

	reopened, err := LoadFileMapped(path, MappedOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer reopened.Close()
	if err := reopened.AttachGraph(g); !errors.Is(err, ErrGraphMismatch) {
		t.Fatalf("reopened on the graph before the batch: err = %v, want ErrGraphMismatch", err)
	}
	if _, err := reopened.TopK(context.Background(), 0, 5, nil); err == nil {
		t.Fatal("TopK after a refused graph answered, want the needGraph refusal")
	}
	if err := reopened.AttachGraph(edited); err != nil {
		t.Fatalf("reopened on the edited graph: %v", err)
	}
	fresh, err := BuildIndex(edited, opt)
	if err != nil {
		t.Fatal(err)
	}
	if !reopened.Equal(fresh) {
		t.Fatal("reopened on the edited graph: not the index a fresh build on it gives")
	}
	ctx := context.Background()
	for _, q := range []int{0, 131, 259} {
		got, err := reopened.SingleSource(ctx, q)
		if err != nil {
			t.Fatal(err)
		}
		want, err := fresh.SingleSource(ctx, q)
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(got, want) {
			t.Fatalf("source %d: reopened row differs from a fresh build's", q)
		}
	}
}

// requireSavedAs fails unless the file at path is, byte for byte, what
// SaveFile writes for a fresh build of g.
func requireSavedAs(t *testing.T, path string, g *graph.Graph, opt Options, what string) {
	t.Helper()
	fresh, err := BuildIndex(g, opt)
	if err != nil {
		t.Fatal(err)
	}
	want := filepath.Join(t.TempDir(), "fresh.srwk")
	if err := fresh.SaveFile(want); err != nil {
		t.Fatal(err)
	}
	a, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(want)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Fatalf("%s: the index file differs from SaveFile of a fresh build", what)
	}
}

// requireReloadsAs fails unless LoadFile of path — the file and its edit
// log — is a fresh build on g.
func requireReloadsAs(t *testing.T, path string, g *graph.Graph, opt Options, what string) {
	t.Helper()
	fresh, err := BuildIndex(g, opt)
	if err != nil {
		t.Fatal(err)
	}
	got, err := LoadFile(path)
	if err != nil {
		t.Fatalf("%s: %v", what, err)
	}
	if !got.Equal(fresh) {
		t.Fatalf("%s: the index file and its edit log reload to another index than a fresh build", what)
	}
}

// requireNoLog fails unless no edit log is left beside path.
func requireNoLog(t *testing.T, path, what string) {
	t.Helper()
	if _, err := os.Stat(path + ".log"); !os.IsNotExist(err) {
		t.Fatalf("%s: an edit log is left beside the file (stat err %v)", what, err)
	}
}

// TestLoadFileMappedWritesBack drives a seeded edit stream through an
// index from LoadFileMapped: after every batch LoadFile of its file and
// edit log is a fresh build on the edited graph, and after Close the file
// is SaveFile of that build, byte for byte, with no log left. A batch
// whose append fails (its directory is gone) is applied all the same —
// graph, walks, generation — reports ErrWriteBack, and the next batch
// checkpoints, which persists it.
func TestLoadFileMappedWritesBack(t *testing.T) {
	g := gen.CitationGraph(260, 4, 9)
	opt := Options{Walks: 14, Seed: 3}
	built, err := BuildIndex(g, opt)
	if err != nil {
		t.Fatal(err)
	}
	dir := filepath.Join(t.TempDir(), "idx")
	if err := os.Mkdir(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, "walks.srwk")
	if err := built.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	mx, err := LoadFileMapped(path, MappedOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer mx.Close()
	if err := mx.AttachGraph(g); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(5))
	for batch := 0; batch < 5; batch++ {
		if _, err := mx.ApplyEdits(mappedEdits(rng, mx.Graph(), 1+batch), 2); err != nil {
			t.Fatal(err)
		}
		requireReloadsAs(t, path, mx.Graph(), opt, fmt.Sprintf("batch %d", batch))
	}

	if err := os.RemoveAll(dir); err != nil {
		t.Fatal(err)
	}
	gen0 := mx.Generation()
	st, err := mx.ApplyEdits(mappedEdits(rng, mx.Graph(), 4), 2)
	if !errors.Is(err, ErrWriteBack) || st.WalksRepaired == 0 || st.Generation != gen0+1 || mx.Generation() != gen0+1 {
		t.Fatalf("batch into a removed directory: stats %+v, generation %d, err %v; want ErrWriteBack with the batch applied", st, mx.Generation(), err)
	}
	fresh, err := BuildIndex(mx.Graph(), opt)
	if err != nil {
		t.Fatal(err)
	}
	if !mx.Equal(fresh) {
		t.Fatal("after a failed write-back the index is not the edited graph's")
	}
	if err := os.Mkdir(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	if _, err := mx.ApplyEdits(mappedEdits(rng, mx.Graph(), 2), 2); err != nil {
		t.Fatal(err)
	}
	requireSavedAs(t, path, mx.Graph(), opt, "after the recovery batch")
	requireNoLog(t, path, "after the recovery batch")

	if _, err := mx.ApplyEdits(mappedEdits(rng, mx.Graph(), 3), 2); err != nil {
		t.Fatal(err)
	}
	requireReloadsAs(t, path, mx.Graph(), opt, "a batch after the recovery")
	if err := mx.Close(); err != nil {
		t.Fatal(err)
	}
	requireSavedAs(t, path, mx.Graph(), opt, "after Close")
	requireNoLog(t, path, "after Close")
}

// TestRebuildDropsEditLog: an edit log left beside a file — by a crash,
// here by restoring it after Close — must not replay onto a file that
// SaveFile or BuildFileStreaming publishes at the same path, even when the
// new file has the very bytes the log names.
func TestRebuildDropsEditLog(t *testing.T) {
	g := gen.ErdosRenyi(200, 700, 4)
	opt := Options{Walks: 10, Seed: 8}
	dir := t.TempDir()
	path := filepath.Join(dir, "walks.srwk")
	if _, err := BuildFileStreaming(g, opt, path, 1<<20); err != nil {
		t.Fatal(err)
	}
	base, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	mx, err := LoadFileMapped(path, MappedOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if err := mx.AttachGraph(g); err != nil {
		t.Fatal(err)
	}
	if st, err := mx.ApplyEdits([]graph.Edit{sinkEdit(t, g)}, 2); err != nil || st.WalksRepaired == 0 {
		t.Fatalf("edit batch: stats %+v, err %v; want walks repaired", st, err)
	}
	edited := mx.Graph()
	log, err := os.ReadFile(path + ".log")
	if err != nil {
		t.Fatal(err)
	}
	if err := mx.Close(); err != nil {
		t.Fatal(err)
	}
	crashed := func() { // the file and log as a crash before Close leaves them
		t.Helper()
		if err := os.WriteFile(path, base, 0o644); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path+".log", log, 0o644); err != nil {
			t.Fatal(err)
		}
		requireReloadsAs(t, path, edited, opt, "the file and its pending log")
	}
	fresh, err := BuildIndex(g, opt)
	if err != nil {
		t.Fatal(err)
	}
	for _, publish := range []struct {
		name string
		run  func() error
	}{
		{"BuildFileStreaming", func() error { _, err := BuildFileStreaming(g, opt, path, 1<<20); return err }},
		{"SaveFile", func() error { return fresh.SaveFile(path) }},
	} {
		crashed()
		if err := publish.run(); err != nil {
			t.Fatal(err)
		}
		requireNoLog(t, path, publish.name)
		requireSavedAs(t, path, g, opt, publish.name)
		reopened, err := LoadFileMapped(path, MappedOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if err := reopened.AttachGraph(g); err != nil {
			t.Fatalf("%s over a stale log: the graph it was built on is refused: %v", publish.name, err)
		}
		reopened.Close()
	}
}
