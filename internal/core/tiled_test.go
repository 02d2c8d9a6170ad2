package core

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"oipsr/graph"
	"oipsr/internal/simmat"
)

// requireBitIdentical fails unless the tiled matrix equals the dense one in
// every bit of every cell, both triangles included.
func requireBitIdentical(t *testing.T, dense, tiled simmat.Source, ctx string) {
	t.Helper()
	n := dense.N()
	want, got := make([]float64, n), make([]float64, n)
	for i := 0; i < n; i++ {
		if err := dense.RowInto(i, want); err != nil {
			t.Fatalf("%s: dense RowInto(%d): %v", ctx, i, err)
		}
		if err := tiled.RowInto(i, got); err != nil {
			t.Fatalf("%s: RowInto(%d): %v", ctx, i, err)
		}
		for j := 0; j < n; j++ {
			if math.Float64bits(got[j]) != math.Float64bits(want[j]) {
				t.Fatalf("%s: cell (%d,%d): tiled %v != dense %v", ctx, i, j, got[j], want[j])
			}
		}
	}
}

// TestComputeTiledBitIdentical: the acceptance criterion of the tiled
// backend — for every block size (incl. B=1, ragged borders, B>=n) and
// every worker count, Compute with Options.Tile set equals the dense
// Compute bit for bit, and the operation counts match exactly.
func TestComputeTiledBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for _, n := range []int{17, 40} {
		g := randomGraph(rng, n, 4*n)
		for _, disableOuter := range []bool{false, true} {
			base := Options{C: 0.6, K: 5, DisableOuter: disableOuter, Workers: 1}
			dense, dst, err := Compute(g, base)
			if err != nil {
				t.Fatal(err)
			}
			for _, block := range []int{1, 3, 8, n, n + 5} {
				for _, workers := range []int{1, 2, 5} {
					opt := base
					opt.Workers = workers
					opt.Tile = simmat.TileOptions{BlockSize: block}
					tiled, tst, err := Compute(g, opt)
					if err != nil {
						t.Fatal(err)
					}
					ctx := testCtx(n, block, workers, disableOuter)
					requireBitIdentical(t, dense, tiled, ctx)
					if tst.InnerAdds != dst.InnerAdds || tst.OuterAdds != dst.OuterAdds {
						t.Errorf("%s: op counts drifted: inner %d vs %d, outer %d vs %d",
							ctx, tst.InnerAdds, dst.InnerAdds, tst.OuterAdds, dst.OuterAdds)
					}
					tiled.Close()
				}
			}
		}
	}
}

// TestComputeTiledUnderBudget: a memory cap far below the dense state
// forces spill-to-disk mid-sweep, and the result is still bit-identical
// while the resident high-water mark respects the cap.
func TestComputeTiledUnderBudget(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	const n = 60
	// Every vertex gets an in-edge, so the block is all n rows.
	b := graph.NewBuilder(n, 0)
	b.EnsureVertices(n)
	for v := 0; v < n; v++ {
		b.AddEdge(rng.Intn(n), v)
		b.AddEdge(rng.Intn(n), rng.Intn(n))
	}
	g := b.MustBuild()
	dense, _, err := Compute(g, Options{C: 0.6, K: 4, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	const block = 16
	tileBytes := int64(block * block * 8)
	budget := 6 * tileBytes // far below the ~2 * n(n+B)/2 * 8 working set
	for _, workers := range []int{1, 3} {
		tiled, st, err := Compute(g, Options{C: 0.6, K: 4, Workers: workers,
			Tile: simmat.TileOptions{BlockSize: block, MaxMemoryBytes: budget, SpillDir: t.TempDir()}})
		if err != nil {
			t.Fatal(err)
		}
		requireBitIdentical(t, dense, tiled, "budgeted")
		if st.Tile.Spills == 0 {
			t.Errorf("workers=%d: no spills under budget %d (high-water %d)", workers, budget, st.Tile.HighWaterBytes)
		}
		if st.Tile.HighWaterBytes > budget {
			t.Errorf("workers=%d: high-water %d exceeds budget %d", workers, st.Tile.HighWaterBytes, budget)
		}
		tiled.Close()
	}
}

// TestComputeTiledStopDiff: the early-stopping rule sees the same max-norm
// differences as the dense path and stops at the same iteration.
func TestComputeTiledStopDiff(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	g := randomGraph(rng, 30, 120)
	opt := Options{C: 0.6, K: 40, StopDiff: 1e-4}
	dense, dst, err := Compute(g, opt)
	if err != nil {
		t.Fatal(err)
	}
	opt.Tile = simmat.TileOptions{BlockSize: 7}
	tiled, tst, err := Compute(g, opt)
	if err != nil {
		t.Fatal(err)
	}
	defer tiled.Close()
	if tst.Iterations != dst.Iterations || tst.FinalDiff != dst.FinalDiff {
		t.Errorf("stopping drifted: iters %d vs %d, final diff %v vs %v",
			tst.Iterations, dst.Iterations, tst.FinalDiff, dst.FinalDiff)
	}
	requireBitIdentical(t, dense, tiled, "stopdiff")
}

func testCtx(n, block, workers int, disableOuter bool) string {
	return fmt.Sprintf("n=%d block=%d workers=%d disableOuter=%v", n, block, workers, disableOuter)
}
