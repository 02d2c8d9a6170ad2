package walkindex

import (
	"context"
	"errors"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"oipsr/graph/gen"
	"oipsr/internal/sparserow"
)

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
		if nz := ix.n - count(ssRow(t, ix, q), 0); nz > best {
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
			requireSparseRows(t, ix, nil, []int{q}, 1, [][]float64{ssRow(t, ix, q)}, "after a cancelled query")
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
		want[q] = ssRow(t, ix, q)
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
						t.Errorf("source %d: concurrent SparseRows differs from SingleSource", q)
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
