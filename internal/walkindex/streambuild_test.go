package walkindex

import (
	"bytes"
	"hash/crc32"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"oipsr/graph"
	"oipsr/graph/gen"
)

// streamBudgets returns the budget set every streaming test sweeps: one
// byte and every budget below one posting block's rows (one-block slices),
// budgets at one block and just past it, slices of two and three blocks,
// one larger than any test index (a single slice), and the unbounded one.
func streamBudgets(stride int) []int64 {
	row := 4 * int64(stride)
	block := v2BlockVertices * row
	return []int64{1, row - 1, row, 3*row + 7, block - row, block, 100*row + 13, 2*block + 7, 3 * block, 1 << 30, math.MaxInt64}
}

// TestBuildStreamingByteIdentical is the tentpole property: for random
// graphs, every budget (including ones forcing one-block slices), and
// every worker count, BuildStreaming writes the exact bytes of Save on a
// materialized Build — and the file round-trips
// through both Load and LoadWriteBack to an Equal index.
func TestBuildStreamingByteIdentical(t *testing.T) {
	graphs := map[string]*graph.Graph{
		"web":    gen.WebGraph(200, 6, 3),
		"cite":   gen.CitationGraph(150, 4, 8),
		"random": gen.ErdosRenyi(130, 400, 5),
		"empty":  graph.MustFromEdges(0, nil),
		"single": graph.MustFromEdges(1, nil),
	}
	for name, g := range graphs {
		opt := Options{Walks: 9, K: 7, Seed: 11}
		dense, err := buildFull(g, opt)
		if err != nil {
			t.Fatal(err)
		}
		want := bytes.NewBuffer(saveBytes(t, dense))
		for _, budget := range streamBudgets(opt.Walks * opt.K) {
			for _, workers := range []int{1, 3} {
				var w memFile
				st, err := BuildStreaming(g, Options{Walks: 9, K: 7, Seed: 11, Workers: workers}, &w, budget)
				if err != nil {
					t.Fatalf("%s budget=%d workers=%d: %v", name, budget, workers, err)
				}
				if !bytes.Equal(w, want.Bytes()) {
					t.Fatalf("%s budget=%d workers=%d: streamed %d bytes differ from materialized %d",
						name, budget, workers, len(w), want.Len())
				}
				if st.Bytes != int64(len(w)) {
					t.Fatalf("%s budget=%d: stats report %d bytes, wrote %d", name, budget, st.Bytes, len(w))
				}
			}
		}

		// One round trip per graph: the streamed file loads, from a stream
		// and for write-back, to an index Equal to the materialized build.
		loaded, err := Load(bytes.NewReader(want.Bytes()))
		if err != nil {
			t.Fatalf("%s: loading streamed bytes: %v", name, err)
		}
		if !loaded.Equal(dense) {
			t.Fatalf("%s: loaded streamed index != dense build", name)
		}
		path := filepath.Join(t.TempDir(), "stream.srwk")
		if err := os.WriteFile(path, want.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		mx, err := LoadWriteBack(path)
		if err != nil {
			t.Fatalf("%s: opening streamed bytes for write-back: %v", name, err)
		}
		if !mx.Equal(dense) {
			t.Fatalf("%s: write-back streamed index != dense build", name)
		}
		mx.Close()
	}
}

// TestBuildStreamingRandomized fuzzes the (graph, budget, workers) space
// more broadly than the fixed tables above, with derived horizons (K from
// Eps) to make sure resolution happens before slicing.
func TestBuildStreamingRandomized(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 25; trial++ {
		n := 1 + rng.Intn(200)
		g := gen.ErdosRenyi(n, rng.Intn(5*n+1), rng.Int63())
		opt := Options{Walks: 1 + rng.Intn(12), Seed: rng.Int63()}
		if rng.Intn(2) == 0 {
			opt.K = 1 + rng.Intn(9)
		}
		dense, err := buildFull(g, opt)
		if err != nil {
			t.Fatal(err)
		}
		want := bytes.NewBuffer(saveBytes(t, dense))
		budget := 1 + rng.Int63n(int64(4*n*dense.Walks()*dense.Horizon())+64)
		var w memFile
		stream := Options{Walks: opt.Walks, K: opt.K, Seed: opt.Seed, Workers: 1 + rng.Intn(4)}
		if _, err := BuildStreaming(g, stream, &w, budget); err != nil {
			t.Fatalf("trial %d (n=%d budget=%d): %v", trial, n, budget, err)
		}
		if !bytes.Equal(w, want.Bytes()) {
			t.Fatalf("trial %d (n=%d budget=%d): streamed bytes differ", trial, n, budget)
		}
	}
}

// TestBuildStreamingErrors: invalid budgets and options are rejected
// before anything is written.
func TestBuildStreamingErrors(t *testing.T) {
	g := gen.WebGraph(20, 4, 1)
	for _, budget := range []int64{0, -7} {
		var w memFile
		if _, err := BuildStreaming(g, Options{Walks: 4, K: 3}, &w, budget); err == nil {
			t.Errorf("BuildStreaming accepted budget %d", budget)
		}
		if len(w) != 0 {
			t.Errorf("BuildStreaming wrote %d bytes despite budget error", len(w))
		}
	}
	if _, err := BuildStreaming(g, Options{C: 2}, &memFile{}, 1<<20); err == nil {
		t.Error("BuildStreaming accepted damping factor 2")
	}
}

// TestCRC32Combine checks the GF(2) combine against the definition: for
// random splits, combining CRC(a) and CRC(b) must reproduce CRC(a‖b).
func TestCRC32Combine(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 200; trial++ {
		a := make([]byte, rng.Intn(300))
		b := make([]byte, rng.Intn(300))
		rng.Read(a)
		rng.Read(b)
		want := crc32.ChecksumIEEE(append(append([]byte(nil), a...), b...))
		got := crc32Combine(crc32.ChecksumIEEE(a), crc32.ChecksumIEEE(b), int64(len(b)))
		if got != want {
			t.Fatalf("trial %d (|a|=%d |b|=%d): combine = %08x, direct = %08x", trial, len(a), len(b), got, want)
		}
	}
	// Long-tail lengths exercise the high bits of the length loop.
	for _, padded := range []int{1 << 10, 1 << 16, 1<<20 + 3} {
		a := []byte("head")
		b := make([]byte, padded)
		rng.Read(b)
		want := crc32.ChecksumIEEE(append(append([]byte(nil), a...), b...))
		if got := crc32Combine(crc32.ChecksumIEEE(a), crc32.ChecksumIEEE(b), int64(len(b))); got != want {
			t.Fatalf("len %d: combine = %08x, direct = %08x", padded, got, want)
		}
	}
}

// TestStreamSliceVertices pins the budget-to-slice-width resolution: whole
// posting blocks, at least one, no more than the range has.
func TestStreamSliceVertices(t *testing.T) {
	const block = 4 * 100 * v2BlockVertices // one block's rows at stride 100
	cases := []struct {
		budget int64
		stride int
		rows   int
		want   int
	}{
		{1, 100, 500, 64},              // sub-row budget: one block
		{400, 100, 500, 64},            // one row: one block
		{block - 1, 100, 500, 64},      // just below one block
		{block, 100, 500, 64},          // exactly one block
		{2*block - 1, 100, 500, 64},    // rounded down to whole blocks
		{3*block + 7, 100, 500, 192},   // three blocks
		{1 << 40, 100, 500, 512},       // capped at the range's 8 blocks
		{1 << 40, 100, 64, 64},         // a range of exactly one block
		{1 << 40, 100, 0, 64},          // an empty range still gets one block
		{math.MaxInt64, 100, 0, 64},    // the unbounded budget too
		{math.MaxInt64, 100, 500, 512}, // ... and on a non-empty range
	}
	for _, c := range cases {
		if got := streamSliceVertices(c.budget, c.stride, c.rows); got != c.want {
			t.Errorf("streamSliceVertices(%d, %d, %d) = %d, want %d", c.budget, c.stride, c.rows, got, c.want)
		}
	}
}
