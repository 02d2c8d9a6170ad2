package shard

import (
	"bytes"
	"context"
	"crypto/sha256"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"oipsr/graph"
	"oipsr/graph/gen"
	"oipsr/simrank/query"
)

// recordParent rewrites testdata/parent/directory.txt instead of comparing
// against it. The file is what commit d366a63 — the last one with a
// materialise-then-save BuildAll beside BuildAllStreaming — published, and
// is only ever recorded there (testdata/parent/README.md).
var recordParent = flag.Bool("record-parent", false, "rewrite testdata/parent/ (run only at the parent commit; see testdata/parent/README.md)")

// buildGoldenDir is the one call of this file that does not compile at
// d366a63, where it reads BuildAll(g, opt, dir, 3) for budget 0 and
// BuildAllStreaming(g, opt, dir, 3, budget) otherwise.
func buildGoldenDir(g *graph.Graph, opt query.Options, dir string, budget int64) (*Manifest, error) {
	return BuildAll(g, opt, dir, 3, budget)
}

// describeDir renders a shard directory as the manifest's bytes followed by
// the size and SHA-256 of every shard file it names (a CRC-32 over a file
// that ends in its own CRC-32 is the same constant for every file).
func describeDir(t *testing.T, dir string, m *Manifest) string {
	t.Helper()
	doc, err := os.ReadFile(filepath.Join(dir, ManifestName))
	if err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	out.Write(doc)
	for _, fi := range m.Shards {
		data, err := os.ReadFile(filepath.Join(dir, fi.File))
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(&out, "%s %d bytes sha256 %x\n", fi.File, len(data), sha256.Sum256(data))
	}
	return out.String()
}

// TestBuildAllStreamingIdenticalDirectory: whatever the budget, BuildAll
// publishes the directory the parent's two builders did — same manifest
// bytes (params, checksums, sizes), same shard files — for budgets from
// unbounded down to one vertex of walk state per slice. Before the two
// builders became one this compared them with each other; what is left to
// compare the one with is what they wrote.
func TestBuildAllStreamingIdenticalDirectory(t *testing.T) {
	g := gen.WebGraph(157, 6, 2)
	opt := query.Options{Walks: 18, Seed: 7, Workers: 1}
	recorded := []struct {
		section string
		budget  int64
	}{
		{"BuildAll", 0},
		{"BuildAllStreaming budget 1", 1},
		{"BuildAllStreaming budget 1000", 1000},
	}
	path := filepath.Join("testdata", "parent", "directory.txt")
	if *recordParent {
		var out bytes.Buffer
		for _, r := range recorded {
			dir := t.TempDir()
			m, err := buildGoldenDir(g, opt, dir, r.budget)
			if err != nil {
				t.Fatal(err)
			}
			fmt.Fprintf(&out, "== %s\n%s", r.section, describeDir(t, dir, m))
		}
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, out.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}

	golden, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]string{}
	for _, sec := range bytes.Split(golden, []byte("== "))[1:] {
		name, body, _ := bytes.Cut(sec, []byte("\n"))
		want[string(name)] = string(body)
	}
	for _, tc := range []struct {
		budget  int64
		section string
	}{
		{0, "BuildAll"},
		{-1, "BuildAll"},
		{1, "BuildAllStreaming budget 1"},
		{1000, "BuildAllStreaming budget 1000"},
		{1 << 28, "BuildAll"},
	} {
		dir := t.TempDir()
		m, err := buildGoldenDir(g, opt, dir, tc.budget)
		if err != nil {
			t.Fatalf("budget %d: %v", tc.budget, err)
		}
		if got := describeDir(t, dir, m); got != want[tc.section] {
			t.Errorf("budget %d: directory differs from the parent's %q\ngot:\n%s\nparent:\n%s", tc.budget, tc.section, got, want[tc.section])
		}
	}
}

// TestBuildAllStreamingServes: a shard directory streamed under a small
// budget loads through the ordinary manifest path (checksums verified) and
// serves partials matching the full index, mapped.
func TestBuildAllStreamingServes(t *testing.T) {
	g := gen.CitationGraph(90, 5, 4)
	opt := query.Options{Walks: 14, Seed: 3, Workers: 1}
	dir := t.TempDir()
	if _, err := BuildAll(g, opt, dir, 2, 512); err != nil {
		t.Fatal(err)
	}
	m, err := LoadManifest(dir)
	if err != nil {
		t.Fatal(err)
	}
	full, err := query.BuildIndex(g, opt)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	sources := []int{0, 45, 89}
	var got [][]float64
	for i := range m.Shards {
		s, err := OpenShard(dir, m, i, true)
		if err != nil {
			t.Fatal(err)
		}
		if err := s.AttachGraph(g); err != nil {
			t.Fatal(err)
		}
		rows, err := s.PartialScores(ctx, sources, 2)
		if err != nil {
			t.Fatal(err)
		}
		if got == nil {
			got = make([][]float64, len(sources))
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
		for v := range want {
			if got[si][v] != want[v] {
				t.Fatalf("source %d target %d: streamed shard %v != full %v", q, v, got[si][v], want[v])
			}
		}
	}
}

// TestBuildAllDefaultBudgetBoundsMemory: without a budget BuildAll still
// streams, in slices of defaultBuildBudget, so on a shard whose single
// slice of walk state would exceed that default the build allocates less
// than the slice. The files do not depend on the budget
// (TestBuildAllStreamingIdenticalDirectory).
func TestBuildAllDefaultBudgetBoundsMemory(t *testing.T) {
	// Every walk of an edgeless graph dies at its first step, so the build
	// is cheap while its slice buffer of n*R*K int32s is not.
	const n, walks, k = 400, 2000, 50
	slice := uint64(n * walks * k * 4) // 160 MB, 2.4 times the default
	if slice <= defaultBuildBudget {
		t.Fatalf("slice %d B does not exceed the default budget %d B", slice, defaultBuildBudget)
	}
	g := graph.MustFromEdges(n, nil)
	opt := query.Options{Walks: walks, K: k, Seed: 1, Workers: 1}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if _, err := BuildAll(g, opt, t.TempDir(), 1, 0); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	if got := after.TotalAlloc - before.TotalAlloc; got >= slice {
		t.Errorf("BuildAll without a budget allocated %d B, at least the single slice of %d B", got, slice)
	}
}
