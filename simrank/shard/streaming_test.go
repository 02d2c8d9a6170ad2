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
// BuildAllStreaming(g, opt, dir, 3, budget) otherwise. BuildAll has no
// budget now: every section is built the one way it is left.
func buildGoldenDir(g *graph.Graph, opt query.Options, dir string, budget int64) (*Manifest, error) {
	return BuildAll(g, opt, dir, 3)
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

// TestBuildAllStreamingIdenticalDirectory: BuildAll publishes the
// directory the parent's two builders did at every budget they were given
// — same manifest bytes (params, checksums, sizes), same shard files. Before
// the two builders became one this compared them with each other, and
// before BuildAll lost its budget the one builder at each budget; what is
// left to compare the one directory with is what they all wrote.
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
	dir := t.TempDir()
	m, err := buildGoldenDir(g, opt, dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	got := describeDir(t, dir, m)
	for _, r := range recorded {
		if got != want[r.section] {
			t.Errorf("directory differs from the parent's %q\ngot:\n%s\nparent:\n%s", r.section, got, want[r.section])
		}
	}
}

// TestBuildAllStreamingServes: a streamed shard directory loads through
// the ordinary manifest path (checksums verified) and serves partials
// matching the full index, mapped.
func TestBuildAllStreamingServes(t *testing.T) {
	g := gen.CitationGraph(90, 5, 4)
	opt := query.Options{Walks: 14, Seed: 3, Workers: 1}
	dir := t.TempDir()
	if _, err := BuildAll(g, opt, dir, 2); err != nil {
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

// TestBuildAllDefaultBudgetBoundsMemory: BuildAll streams in slices of
// query.StreamSliceBytes, so on a shard whose walks would take more than
// that as one dense slice the build allocates less than that slice. The
// files do not depend on the slicing (TestBuildAllStreamingIdenticalDirectory,
// and walkindex's streamed = Save suites at every budget).
func TestBuildAllDefaultBudgetBoundsMemory(t *testing.T) {
	// Every walk of an edgeless graph dies at its first step, so the build
	// is cheap while its slice buffer of n*R*K int32s is not.
	const n, walks, k = 400, 2000, 50
	slice := uint64(n * walks * k * 4) // 160 MB, 2.4 times the slice budget
	if slice <= query.StreamSliceBytes {
		t.Fatalf("slice %d B does not exceed the slice budget %d B", slice, query.StreamSliceBytes)
	}
	g := graph.MustFromEdges(n, nil)
	opt := query.Options{Walks: walks, K: k, Seed: 1, Workers: 1}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if _, err := BuildAll(g, opt, t.TempDir(), 1); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	if got := after.TotalAlloc - before.TotalAlloc; got >= slice {
		t.Errorf("BuildAll allocated %d B, at least the single slice of %d B", got, slice)
	}
}
