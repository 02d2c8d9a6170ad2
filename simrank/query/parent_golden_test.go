package query_test

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"oipsr/graph"
	"oipsr/graph/gen"
	"oipsr/simrank/query"
	"oipsr/simrank/shard"
)

// recordLibrary rewrites testdata/parent/library.txt instead of comparing
// against it. The file holds the answers of commit c77bb9a, the last one
// whose library calls wrote, scanned and ranked a dense row of n; it is
// only ever recorded by checking that commit out, dropping this file into
// simrank/query/ and running TestParentLibraryGoldens with -record-library
// (testdata/parent/README.md). The test uses nothing but the public API of
// query and shard, so it compiles on both sides.
var recordLibrary = flag.Bool("record-library", false, "rewrite testdata/parent/library.txt (run only at the parent commit; see testdata/parent/README.md)")

// libraryGoldenGraphs are a web graph with real sharing and a citation
// graph (a DAG: many vertices with an empty in-set and short walks).
func libraryGoldenGraphs() []struct {
	name string
	g    *graph.Graph
} {
	return []struct {
		name string
		g    *graph.Graph
	}{
		{"web300", gen.WebGraph(300, 6, 5)},
		{"citation240", gen.CitationGraph(240, 4, 9)},
	}
}

// bitsOf renders a float as its IEEE-754 bits.
func bitsOf(f float64) string { return fmt.Sprintf("%016x", math.Float64bits(f)) }

// rankedLine renders a ranking entry by entry, scores as their bits.
func rankedLine(rs []query.Ranked) string {
	var b strings.Builder
	for i, r := range rs {
		if i > 0 {
			b.WriteByte(' ')
		}
		fmt.Fprintf(&b, "%d:%s", r.Vertex, bitsOf(r.Score))
	}
	return b.String()
}

// rowLine renders a dense row as its length and the SHA-256 of the
// little-endian bits of every cell.
func rowLine(row []float64) string {
	h := sha256.New()
	var buf [8]byte
	for _, v := range row {
		binary.LittleEndian.PutUint64(buf[:], math.Float64bits(v))
		h.Write(buf[:])
	}
	return fmt.Sprintf("len=%d sha256=%s", len(row), hex.EncodeToString(h.Sum(nil)))
}

// callerRow is a dense row no index produced, as a TopKFromScores caller may
// hand in: zeros, a negative zero, negative scores and ties, among them
// ties with the zeros a sparse ranking pads with.
func callerRow(n int) []float64 {
	row := make([]float64, n)
	for v := 0; v < n; v += 7 {
		row[v] = float64(v%5) / 8
	}
	for v := 3; v < n; v += 29 {
		row[v] = -float64(v%3+1) / 16
	}
	row[10] = math.Copysign(0, -1)
	row[11] = 0.25
	row[12] = 0.25
	return row
}

// TestParentLibraryGoldens: on both golden graphs, TopK (with and without a
// rerank), TopKBatch at one and two workers, TopKFromScores (on the index's
// own row and on a caller's), SingleSource, MultiSource and PartialScores
// on two partial ranges answer what commit c77bb9a recorded, bit for bit.
func TestParentLibraryGoldens(t *testing.T) {
	ctx := context.Background()
	var out strings.Builder
	line := func(format string, args ...any) { fmt.Fprintf(&out, format+"\n", args...) }
	for _, gc := range libraryGoldenGraphs() {
		g, n := gc.g, gc.g.NumVertices()
		opt := query.Options{Walks: 64, Seed: 7, Workers: 2}
		ix, err := query.BuildIndex(g, opt)
		if err != nil {
			t.Fatal(err)
		}
		sources := []int{0, 1, 17, 42, 42, n / 2, n - 1}
		rerank := &query.TopKOptions{Rerank: true}
		for _, q := range sources[:6] {
			for _, k := range []int{1, 10, 40} {
				rs, err := ix.TopK(ctx, q, k, nil)
				if err != nil {
					t.Fatal(err)
				}
				line("%s topk q=%d k=%d %s", gc.name, q, k, rankedLine(rs))
			}
			rs, err := ix.TopK(ctx, q, 10, rerank)
			if err != nil {
				t.Fatal(err)
			}
			line("%s topk-rerank q=%d k=10 %s", gc.name, q, rankedLine(rs))
			rs, err = ix.TopK(ctx, q, 5, &query.TopKOptions{Rerank: true, Candidates: 50, PruneEps: 1e-4})
			if err != nil {
				t.Fatal(err)
			}
			line("%s topk-rerank50 q=%d k=5 %s", gc.name, q, rankedLine(rs))

			row, err := ix.SingleSource(ctx, q)
			if err != nil {
				t.Fatal(err)
			}
			line("%s single-source q=%d %s", gc.name, q, rowLine(row))
			into, err := ix.SingleSourceInto(ctx, q, make([]float64, n))
			if err != nil {
				t.Fatal(err)
			}
			line("%s single-source-into q=%d %s", gc.name, q, rowLine(into))
			for _, o := range []*query.TopKOptions{nil, rerank} {
				rs, err := ix.TopKFromScores(ctx, row, q, 10, o)
				if err != nil {
					t.Fatal(err)
				}
				line("%s from-scores q=%d rerank=%t %s", gc.name, q, o != nil, rankedLine(rs))
				for _, k := range []int{3, 12, 80} {
					rs, err := ix.TopKFromScores(ctx, callerRow(n), q, k, o)
					if err != nil {
						t.Fatal(err)
					}
					line("%s from-caller q=%d k=%d rerank=%t %s", gc.name, q, k, o != nil, rankedLine(rs))
				}
			}
		}
		for _, workers := range []int{1, 2} {
			for _, o := range []*query.TopKOptions{nil, rerank} {
				res, err := ix.TopKBatch(ctx, sources, 10, o, workers)
				if err != nil {
					t.Fatal(err)
				}
				for i, rs := range res {
					line("%s topk-batch workers=%d rerank=%t q=%d %s", gc.name, workers, o != nil, sources[i], rankedLine(rs))
				}
			}
			rows, err := ix.MultiSource(ctx, sources, workers)
			if err != nil {
				t.Fatal(err)
			}
			for i, row := range rows {
				line("%s multi-source workers=%d q=%d %s", gc.name, workers, sources[i], rowLine(row))
			}
		}
		for _, r := range [][2]int{{0, n / 3}, {n / 3, n - 5}} {
			sh, err := shard.Build(g, opt, r[0], r[1])
			if err != nil {
				t.Fatal(err)
			}
			rows, err := sh.PartialScores(ctx, sources, 2)
			if err != nil {
				t.Fatal(err)
			}
			for i, row := range rows {
				line("%s partial-scores [%d,%d) q=%d %s", gc.name, r[0], r[1], sources[i], rowLine(row))
			}
		}
	}

	path := filepath.Join("testdata", "parent", "library.txt")
	if *recordLibrary {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(out.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	gl, wl := strings.Split(out.String(), "\n"), strings.Split(string(want), "\n")
	if len(gl) != len(wl) {
		t.Fatalf("%d golden lines, want %d", len(gl), len(wl))
	}
	for i := range wl {
		if gl[i] != wl[i] {
			t.Errorf("golden mismatch:\n got %s\nwant %s", gl[i], wl[i])
		}
	}
}
