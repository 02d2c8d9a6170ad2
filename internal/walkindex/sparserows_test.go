package walkindex

import (
	"context"
	"errors"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"oipsr/graph"
	"oipsr/graph/gen"
	"oipsr/internal/sparserow"
)

// TestMultiSourceBitIdenticalToSingleSource: every row of a batched
// SparseRows query equals the same source asked alone (a batch of one)
// and the sweep model, bitwise, for every batch shape and worker count —
// the acceptance criterion of the shared traversal.
func TestMultiSourceBitIdenticalToSingleSource(t *testing.T) {
	g := gen.WebGraph(150, 6, 13)
	ix, err := buildFull(g, Options{Walks: 60, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	all := make([]int, 0, 15)
	for q := 0; q < 150; q += 10 {
		all = append(all, q)
	}
	batches := [][]int{
		{5},                // a batch of one
		{3, 3},             // duplicate sources
		{0, 7, 33, 149, 7}, // mixed, with a repeat
		all,                // a wide batch
	}
	for _, sources := range batches {
		swept := sweepRows(ix, nil, sources)
		for _, workers := range []int{1, 2, 3, 7} {
			rows := msRows(t, ix, nil, sources, workers)
			if len(rows) != len(sources) {
				t.Fatalf("SparseRows(%v) returned %d rows", sources, len(rows))
			}
			for i, q := range sources {
				if !slices.Equal(rows[i], ssRow(t, ix, q)) || !slices.Equal(rows[i], swept[i]) {
					t.Fatalf("workers=%d sources=%v: row %d (q=%d) differs from the source alone or from the sweep", workers, sources, i, q)
				}
			}
			requireSparseRows(t, ix, nil, sources, workers, swept, "batch")
		}
	}
}

// TestMultiSourceDeadAndIsolated: sources whose walks die immediately (and
// fully isolated vertices) answer as the sweep does — score 1 for the
// source itself and nothing else, so a row of one entry.
func TestMultiSourceDeadAndIsolated(t *testing.T) {
	g := graph.MustFromEdges(4, [][2]int{{0, 1}}) // 2 and 3 isolated, 0 a source
	ix, err := buildFull(g, Options{Walks: 20, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	sources := []int{0, 2, 3}
	requireSparseRows(t, ix, nil, sources, 2, sweepRows(ix, nil, sources), "dead and isolated")
	rows, err := ix.SparseRows(context.Background(), nil, sources, 2)
	if err != nil {
		t.Fatal(err)
	}
	defer sparserow.Release(rows...)
	for i, q := range sources {
		if rows[i].Len() != 1 || rows[i].IDs[0] != int32(q) || rows[i].Scores[0] != 1 {
			t.Fatalf("q=%d: row %v, want only (q, 1)", q, rows[i])
		}
	}
}

// TestMultiSourceEmptyBatch: an empty batch is a clean no-op.
func TestMultiSourceEmptyBatch(t *testing.T) {
	g := gen.WebGraph(20, 4, 1)
	ix, err := buildFull(g, Options{Walks: 10, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if rows := msRows(t, ix, nil, nil, 3); len(rows) != 0 {
		t.Fatalf("SparseRows(nil) returned %d rows, want 0", len(rows))
	}
}

// TestSparseRowsCancelLeavesScratchClean: SparseRows accumulates into a
// pooled row that must be all zero whenever it sits in the pool. A query
// cancelled between two fingerprints has already credited cells; it must
// zero exactly those before it returns, or the next query through the same
// scratch adds its scores to the leftovers. The pool is pinned to one row
// here, so "the same scratch" is certain rather than likely.
func TestSparseRowsCancelLeavesScratchClean(t *testing.T) {
	g := gen.WebGraph(300, 6, 17)
	const walks = 50
	ix, err := buildFull(g, Options{Walks: walks, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	scratch := make([]float64, ix.Width())
	defer func(pool *sync.Pool) { scratchPool = pool }(scratchPool)
	scratchPool = &sync.Pool{New: func() any { return &scratch }}
	hub := 0 // the source with the most non-zero scores: the most to clean up
	for q, best := 0, 0; q < ix.n; q++ {
		if nz := ix.n - count(sweepRow(ix, q), 0); nz > best {
			hub, best = q, nz
		}
	}
	for _, at := range []int{1, 2, walks / 2, walks} {
		ctx := &countingCtx{Context: context.Background(), cancelAt: at}
		if rows, err := ix.SparseRows(ctx, nil, []int{hub}, 1); !errors.Is(err, context.Canceled) || rows != nil {
			t.Fatalf("cancel at poll %d: rows %v, err %v", at, rows != nil, err)
		}
		if dirty := len(scratch) - count(scratch, 0); dirty != 0 {
			t.Fatalf("cancel at poll %d left %d dirty cells in the pooled scratch", at, dirty)
		}
		for _, q := range []int{hub, 5, ix.n - 1} {
			requireSparseRows(t, ix, nil, []int{q}, 1, [][]float64{sweepRow(ix, q)}, "after a cancelled query")
		}
	}
}

func count(row []float64, x float64) int {
	c := 0
	for _, s := range row {
		if s == x {
			c++
		}
	}
	return c
}

// TestSparseRowsConcurrentReaders: queries share the scratch pool and the
// row pool; under -race, rows released while others are being filled must
// never be seen changing.
func TestSparseRowsConcurrentReaders(t *testing.T) {
	g := gen.WebGraph(200, 6, 3)
	ix, err := buildFull(g, Options{Walks: 40, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	want := make([][]float64, ix.n)
	for q := range want {
		want[q] = sweepRow(ix, q)
	}
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			for i := 0; i < 200; i++ {
				sources := []int{rng.Intn(ix.n), rng.Intn(ix.n), rng.Intn(ix.n)}
				rows, err := ix.SparseRows(context.Background(), nil, sources, 1+w%2)
				if err != nil {
					t.Error(err)
					return
				}
				for j, q := range sources {
					ref := sparseOf(0, want[q])
					if !slices.Equal(rows[j].IDs, ref.IDs) || !slices.Equal(rows[j].Scores, ref.Scores) {
						t.Errorf("source %d: concurrent SparseRows differs from the sweep", q)
					}
				}
				sparserow.Release(rows...)
			}
		}(w)
	}
	wg.Wait()
}

// sparseOf is the sparse row a dense one stands for, cell i as vertex
// base+i.
func sparseOf(base int32, dense []float64) *sparserow.Row {
	row := &sparserow.Row{}
	for i, s := range dense {
		if s != 0 {
			row.Append(base+int32(i), s)
		}
	}
	return row
}

// BenchmarkSparseRows times one source's row with one worker, per graph
// family at the contract's scales — web d=11 n=6000 (serve-zipf's shape),
// citation d=4 n=15000 (mapped-edits') and coauthor d=8 n=15000 — over the
// sources with an in-set only (a source without one answers at once),
// visited in a fixed shuffled order. 100 walks a vertex. It reports
// µs/source.
func BenchmarkSparseRows(b *testing.B) {
	for _, c := range benchFamilies {
		b.Run(c.name, func(b *testing.B) {
			g := c.g()
			ix, err := buildFull(g, Options{Walks: 100, Seed: 1})
			if err != nil {
				b.Fatal(err)
			}
			var sources []int
			for v := 0; v < g.NumVertices(); v++ {
				if len(g.In(v)) > 0 {
					sources = append(sources, v)
				}
			}
			rand.New(rand.NewSource(1)).Shuffle(len(sources), func(i, j int) { sources[i], sources[j] = sources[j], sources[i] })
			ctx := context.Background()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				rows, err := ix.SparseRows(ctx, nil, sources[i%len(sources):i%len(sources)+1], 1)
				if err != nil {
					b.Fatal(err)
				}
				sparserow.Release(rows...)
			}
			b.ReportMetric(float64(b.Elapsed().Microseconds())/float64(b.N), "µs/source")
		})
	}
}
