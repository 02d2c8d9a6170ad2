package dsr

import (
	"math/rand"
	"testing"

	"oipsr/graph"
	"oipsr/internal/simmat"
)

// TestComputeTiledBitIdentical: the differential engine's tiled backend
// equals the dense path bit for bit for every block size and worker count,
// accumulator included.
func TestComputeTiledBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	n := 31
	b := graph.NewBuilder(n, 0)
	b.EnsureVertices(n)
	for i := 0; i < 5*n; i++ {
		b.AddEdge(rng.Intn(n), rng.Intn(n))
	}
	g := b.MustBuild()

	base := Options{C: 0.6, K: 6, Workers: 1}
	dense, dst, err := Compute(g, base)
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]float64, n)
	for _, block := range []int{1, 4, 9, n, n + 7} {
		for _, workers := range []int{1, 3} {
			opt := base
			opt.Workers = workers
			opt.Tile = simmat.TileOptions{BlockSize: block}
			tiled, tst, err := Compute(g, opt)
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < n; i++ {
				if err := tiled.RowInto(i, buf); err != nil {
					t.Fatal(err)
				}
				for j := 0; j < n; j++ {
					if buf[j] != dense.At(i, j) {
						t.Fatalf("block=%d workers=%d: cell (%d,%d): tiled %v != dense %v",
							block, workers, i, j, buf[j], dense.At(i, j))
					}
				}
			}
			if tst.InnerAdds != dst.InnerAdds || tst.OuterAdds != dst.OuterAdds {
				t.Errorf("block=%d workers=%d: op counts drifted", block, workers)
			}
			tiled.Close()
		}
	}
}

// TestComputeTiledBudget: the three-matrix differential state fits under a
// cap that spills, and stays bit-identical.
func TestComputeTiledBudget(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	n := 40
	b := graph.NewBuilder(n, 0)
	b.EnsureVertices(n)
	for i := 0; i < 4*n; i++ {
		b.AddEdge(rng.Intn(n), rng.Intn(n))
	}
	g := b.MustBuild()
	dense, _, err := Compute(g, Options{C: 0.6, K: 4})
	if err != nil {
		t.Fatal(err)
	}
	const block = 8
	budget := int64(8 * block * block * 8)
	tiled, st, err := Compute(g, Options{C: 0.6, K: 4,
		Tile: simmat.TileOptions{BlockSize: block, MaxMemoryBytes: budget, SpillDir: t.TempDir()}})
	if err != nil {
		t.Fatal(err)
	}
	defer tiled.Close()
	if st.Tile.Spills == 0 || st.Tile.HighWaterBytes > budget {
		t.Errorf("spills %d, high-water %d under budget %d", st.Tile.Spills, st.Tile.HighWaterBytes, budget)
	}
	got, err := tiled.Dense()
	if err != nil {
		t.Fatal(err)
	}
	want, err := dense.Dense()
	if err != nil {
		t.Fatal(err)
	}
	for i := range got.Data() {
		if got.Data()[i] != want.Data()[i] {
			t.Fatalf("cell %d drifted under budget", i)
		}
	}
}
