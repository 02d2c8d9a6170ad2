package query

import (
	"context"
	"os"
	"path/filepath"
	"testing"

	"oipsr/graph/gen"
)

// TestBuildFileStreamingByteIdentical is the query-layer equivalence
// gate: streaming the build to disk under any budget must publish
// exactly the bytes SaveFile writes for the materialized index, and the
// sealed file must serve (mapped) bit-identically.
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
