package simrank

import (
	"math/rand"
	"testing"

	"oipsr/graph"
	"oipsr/simrank/engine"
)

func tiledTestGraph(n int, seed int64) *graph.Graph {
	rng := rand.New(rand.NewSource(seed))
	b := graph.NewBuilder(n, 0)
	b.EnsureVertices(n)
	for i := 0; i < 4*n; i++ {
		b.AddEdge(rng.Intn(n), rng.Intn(n))
	}
	return b.MustBuild()
}

// TestComputeTiledBackend: the public dispatch produces bit-identical
// scores for every supported engine, reports tile accounting under a
// spilling budget that its peak never exceeds, and rejects engines without
// tiled support. The registry's Caps().Tiled splits the two sets.
func TestComputeTiledBackend(t *testing.T) {
	g := tiledTestGraph(30, 5)
	const budget = 8 * 8 * 8 * 8 // eight 8×8 tiles
	for _, alg := range engine.Names() {
		if e, _ := engine.Get(alg); !e.Caps().Tiled {
			if _, _, err := Compute(g, Options{Algorithm: alg, BlockSize: 8}); err == nil {
				t.Errorf("%s: tiled backend accepted but unsupported", alg)
			}
			continue
		}
		dense, _, err := Compute(g, Options{Algorithm: alg, K: 4})
		if err != nil {
			t.Fatal(err)
		}
		tiled, st, err := Compute(g, Options{Algorithm: alg, K: 4, Workers: 2,
			BlockSize: 8, MaxMemoryBytes: budget, SpillDir: t.TempDir()})
		if err != nil {
			t.Fatalf("%s: %v", alg, err)
		}
		for i := 0; i < g.NumVertices(); i++ {
			for j := 0; j < g.NumVertices(); j++ {
				if tiled.Score(i, j) != dense.Score(i, j) {
					t.Fatalf("%s: (%d,%d): tiled %v != dense %v", alg, i, j, tiled.Score(i, j), dense.Score(i, j))
				}
			}
		}
		if st.TileSpills == 0 || st.TilePeakBytes == 0 {
			t.Errorf("%s: tile accounting missing: peak %d, spills %d", alg, st.TilePeakBytes, st.TileSpills)
		}
		if st.TilePeakBytes > budget {
			t.Errorf("%s: peak resident %d exceeds the cap %d", alg, st.TilePeakBytes, budget)
		}
		// TopK must agree across backends too.
		dk, tk := dense.TopK(0, 5), tiled.TopK(0, 5)
		for i := range dk {
			if dk[i] != tk[i] {
				t.Errorf("%s: TopK[%d] = %+v, dense %+v", alg, i, tk[i], dk[i])
			}
		}
		if err := tiled.Close(); err != nil {
			t.Errorf("%s: Close: %v", alg, err)
		}
		if err := dense.Close(); err != nil {
			t.Errorf("%s: dense Close: %v", alg, err)
		}
	}
}
