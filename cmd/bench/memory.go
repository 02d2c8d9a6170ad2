package main

import (
	"fmt"
	"os"
	"runtime"
	"time"

	"oipsr/graph/gen"
	"oipsr/simrank"
)

// runMemoryWorkload demonstrates the memory-bounded tiled sweep engine:
// an OIP-SR run at an n whose dense backend needs two m^2 float64 matrices
// (m = vertices with a non-empty in-set, the rows OIP-SR stores) that
// provably exceed a hard cap, completed by the tiled backend under
// that cap with LRU eviction and spill-to-disk. The run is verified
// bit-identical against the dense backend (which this workload, unlike a
// genuinely RAM-starved deployment, can still afford), and a block-size
// sweep shows the working-set / spill-traffic trade-off.
func runMemoryWorkload(cfg config) {
	header("memory: tiled engine under a hard cap", "tiled backend")

	n := 1024 / cfg.scale
	g := gen.WebGraph(n, webDeg, cfg.seed)
	m := 0
	for v := 0; v < g.NumVertices(); v++ {
		if g.InDegree(v) > 0 {
			m++
		}
	}
	denseBytes := 2 * sq(int64(m)) * 8
	// A cap the dense backend provably exceeds: ~3/8 of its two-matrix
	// state (the tiled upper triangle alone is ~1/2 + tile slack).
	capBytes := denseBytes * 3 / 8
	spill, err := os.MkdirTemp("", "bench-memory-")
	must(err)
	defer os.RemoveAll(spill)

	fmt.Printf("n = %d, m = %d: dense backend needs %s for 2 score matrices; cap = %s\n",
		g.NumVertices(), m, kb(denseBytes), kb(capBytes))

	t0 := time.Now()
	dense, dst, err := simrank.Compute(g, simrank.Options{Algorithm: simrank.OIPSR, C: 0.6, K: 8})
	must(err)
	denseTime := time.Since(t0)
	if dst.StateBytes != denseBytes {
		fmt.Printf("  (dense engine reports %s state)\n", kb(dst.StateBytes))
	}

	workers := benchWorkers
	if workers < 1 {
		workers = runtime.GOMAXPROCS(0)
	}
	fmt.Printf("%-8s | %12s %12s %8s %8s | %10s | %s\n",
		"block", "peak resident", "spilled", "spills", "loads", "time", "vs dense")
	for _, block := range []int{32, 64, 128} {
		// Each worker pins a tile while streaming a row, so the cap must
		// hold a few tiles per worker to make progress.
		if block > m || int64(block*block*8)*int64(workers+2) > capBytes {
			fmt.Printf("%-8d | (tile too large for this cap, skipped)\n", block)
			continue
		}
		t1 := time.Now()
		tiled, st, err := simrank.Compute(g, simrank.Options{
			Algorithm: simrank.OIPSR, C: 0.6, K: 8, Workers: benchWorkers,
			BlockSize: block, MaxMemoryBytes: capBytes, SpillDir: spill,
		})
		must(err)
		elapsed := time.Since(t1)
		if st.TilePeakBytes > capBytes {
			fmt.Printf("bench: BUG: peak resident %d exceeds cap %d\n", st.TilePeakBytes, capBytes)
			os.Exit(1)
		}
		diff := tiled.MaxDiff(dense)
		verdict := "bit-identical"
		if diff != 0 {
			verdict = fmt.Sprintf("DIVERGED by %g", diff)
		}
		fmt.Printf("%-8d | %12s %12s %8d %8d | %10v | %s\n",
			block, kb(st.TilePeakBytes), kb(st.TileSpilledBytes),
			st.TileSpills, st.TileLoads, elapsed.Round(time.Millisecond), verdict)
		emitJSON("memory", map[string]any{
			"n":             g.NumVertices(),
			"block":         block,
			"cap_bytes":     capBytes,
			"dense_bytes":   denseBytes,
			"peak_bytes":    st.TilePeakBytes,
			"spills":        st.TileSpills,
			"spilled_bytes": st.TileSpilledBytes,
			"loads":         st.TileLoads,
			"seconds":       seconds(elapsed),
			"max_diff":      diff,
			"iterations":    st.Iterations,
		})
		must(tiled.Close())
	}
	fmt.Printf("(dense run: %v; tiling pays only past RAM — expect slower wall-clock, identical bits)\n",
		denseTime.Round(time.Millisecond))
}
