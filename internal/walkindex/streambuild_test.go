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

// memWriterAt is an in-memory io.WriterAt growing to cover every write,
// the harness behind the byte-identity assertions.
type memWriterAt struct{ buf []byte }

func (m *memWriterAt) WriteAt(p []byte, off int64) (int, error) {
	if end := int(off) + len(p); end > len(m.buf) {
		grown := make([]byte, end)
		copy(grown, m.buf)
		m.buf = grown
	}
	copy(m.buf[off:], p)
	return len(p), nil
}

// streamBudgets returns the budget set every streaming test sweeps: one
// byte (every slice degrades to a single vertex), budgets straddling one
// row and one posting block, a budget that never divides the block size
// evenly, one larger than any test index (a single slice), and the
// unbounded budget shard.BuildAll passes for "one slice per shard".
func streamBudgets(stride int) []int64 {
	row := 4 * int64(stride)
	return []int64{1, row - 1, row, 3*row + 7, (v2BlockVertices - 1) * row, v2BlockVertices * row, 100*row + 13, 1 << 30, math.MaxInt64}
}

// TestBuildStreamingByteIdentical is the tentpole property: for random
// graphs, every budget (including ones forcing one-vertex slices), and
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
		want := bytes.NewBuffer(saveBytes(t, dense, IndexFile))
		for _, budget := range streamBudgets(opt.Walks * opt.K) {
			for _, workers := range []int{1, 3} {
				w := &memWriterAt{}
				st, err := BuildStreaming(g, Options{Walks: 9, K: 7, Seed: 11, Workers: workers}, 0, g.NumVertices(), IndexFile, w, budget)
				if err != nil {
					t.Fatalf("%s budget=%d workers=%d: %v", name, budget, workers, err)
				}
				if !bytes.Equal(w.buf, want.Bytes()) {
					t.Fatalf("%s budget=%d workers=%d: streamed %d bytes differ from materialized %d",
						name, budget, workers, len(w.buf), want.Len())
				}
				if st.Bytes != int64(len(w.buf)) {
					t.Fatalf("%s budget=%d: stats report %d bytes, wrote %d", name, budget, st.Bytes, len(w.buf))
				}
				if st.Rows != g.NumVertices() || st.K != 7 || st.Walks != 9 {
					t.Fatalf("%s: stats %+v disagree with resolved options", name, st)
				}
			}
		}

		// One round trip per graph: the streamed file loads, from a stream
		// and for write-back, to an index Equal to the materialized build.
		loaded, err := Load(bytes.NewReader(want.Bytes()), IndexFile)
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
		mx, err := LoadWriteBack(path, IndexFile)
		if err != nil {
			t.Fatalf("%s: opening streamed bytes for write-back: %v", name, err)
		}
		if !mx.Equal(dense) {
			t.Fatalf("%s: write-back streamed index != dense build", name)
		}
		mx.Close()
	}
}

// TestBuildShardStreamingByteIdentical: a streamed shard file must
// reproduce Save's bytes for ranges that start and end in the middle of
// posting blocks, including empty and one-vertex ranges.
func TestBuildShardStreamingByteIdentical(t *testing.T) {
	g := gen.WebGraph(300, 5, 21)
	opt := Options{Walks: 8, K: 6, Seed: 17}
	ranges := [][2]int{{0, 300}, {37, 181}, {64, 128}, {1, 2}, {50, 50}, {299, 300}, {0, 63}}
	for _, rg := range ranges {
		lo, hi := rg[0], rg[1]
		sx, err := Build(g, opt, lo, hi)
		if err != nil {
			t.Fatal(err)
		}
		want := bytes.NewBuffer(saveBytes(t, sx, ShardFile))
		for _, budget := range streamBudgets(opt.Walks * opt.K) {
			w := &memWriterAt{}
			st, err := BuildStreaming(g, Options{Walks: 8, K: 6, Seed: 17, Workers: 2}, lo, hi, ShardFile, w, budget)
			if err != nil {
				t.Fatalf("[%d,%d) budget=%d: %v", lo, hi, budget, err)
			}
			if !bytes.Equal(w.buf, want.Bytes()) {
				t.Fatalf("[%d,%d) budget=%d: streamed shard bytes differ", lo, hi, budget)
			}
			if st.Rows != hi-lo {
				t.Fatalf("[%d,%d): stats report %d rows", lo, hi, st.Rows)
			}
		}
		loaded, err := Load(bytes.NewReader(want.Bytes()), ShardFile)
		if err != nil {
			t.Fatalf("[%d,%d): loading streamed shard: %v", lo, hi, err)
		}
		if !loaded.Equal(sx) {
			t.Fatalf("[%d,%d): loaded streamed shard != dense shard", lo, hi)
		}
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
		want := bytes.NewBuffer(saveBytes(t, dense, IndexFile))
		budget := 1 + rng.Int63n(int64(4*n*dense.Walks()*dense.Horizon())+64)
		w := &memWriterAt{}
		stream := Options{Walks: opt.Walks, K: opt.K, Seed: opt.Seed, Workers: 1 + rng.Intn(4)}
		if _, err := BuildStreaming(g, stream, 0, n, IndexFile, w, budget); err != nil {
			t.Fatalf("trial %d (n=%d budget=%d): %v", trial, n, budget, err)
		}
		if !bytes.Equal(w.buf, want.Bytes()) {
			t.Fatalf("trial %d (n=%d budget=%d): streamed bytes differ", trial, n, budget)
		}
	}
}

// TestBuildStreamingErrors: invalid budgets, options, and shard ranges are
// rejected before anything is written.
func TestBuildStreamingErrors(t *testing.T) {
	g := gen.WebGraph(20, 4, 1)
	for _, budget := range []int64{0, -7} {
		w := &memWriterAt{}
		if _, err := BuildStreaming(g, Options{Walks: 4, K: 3}, 0, 20, IndexFile, w, budget); err == nil {
			t.Errorf("BuildStreaming accepted budget %d", budget)
		}
		if len(w.buf) != 0 {
			t.Errorf("BuildStreaming wrote %d bytes despite budget error", len(w.buf))
		}
	}
	if _, err := BuildStreaming(g, Options{C: 2}, 0, 20, IndexFile, &memWriterAt{}, 1<<20); err == nil {
		t.Error("BuildStreaming accepted damping factor 2")
	}
	if _, err := BuildStreaming(g, Options{Walks: 4, K: 3}, 5, 30, ShardFile, &memWriterAt{}, 1<<20); err == nil {
		t.Error("BuildStreaming accepted out-of-range shard")
	}
	if _, err := BuildStreaming(g, Options{Walks: 4, K: 3}, 5, 10, IndexFile, &memWriterAt{}, 1<<20); err == nil {
		t.Error("BuildStreaming wrote a narrower range as a full index file")
	}
	if _, err := BuildStreaming(g, Options{Walks: 4, K: 3}, 5, 10, ShardFile, &memWriterAt{}, 0); err == nil {
		t.Error("BuildStreaming accepted zero budget")
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

// TestStreamSliceVertices pins the budget-to-slice-width resolution.
func TestStreamSliceVertices(t *testing.T) {
	cases := []struct {
		budget int64
		stride int
		rows   int
		want   int
	}{
		{1, 100, 500, 1},         // sub-row budget degrades to one vertex
		{399, 100, 500, 1},       // just below one row
		{400, 100, 500, 1},       // exactly one row
		{4000, 100, 500, 10},     // ten rows
		{1 << 40, 100, 500, 500}, // capped at rows
		{1 << 40, 100, 0, 1},     // an empty range still gets one (unused) row
		// An unbounded budget on an empty range must not size the slice
		// buffer from the budget (shard.BuildAll with more shards than
		// vertices).
		{math.MaxInt64, 100, 0, 1},
		{math.MaxInt64, 100, 500, 500},
	}
	for _, c := range cases {
		if got := streamSliceVertices(c.budget, c.stride, c.rows); got != c.want {
			t.Errorf("streamSliceVertices(%d, %d, %d) = %d, want %d", c.budget, c.stride, c.rows, got, c.want)
		}
	}
}
