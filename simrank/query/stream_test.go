package query

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
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

// TestLoadFileMappedWritesBack drives a seeded edit stream through an
// index from LoadFileMapped: after every batch its file is SaveFile of a
// fresh build on the edited graph, byte for byte. A batch whose write-back
// fails (its directory is gone) is applied all the same — graph, walks,
// generation — reports ErrWriteBack, and is persisted by the next batch.
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
		requireSavedAs(t, path, mx.Graph(), opt, fmt.Sprintf("batch %d", batch))
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
}
