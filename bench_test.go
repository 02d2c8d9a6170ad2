// Package-level benchmarks: one testing.B benchmark per table/figure of the
// paper's evaluation (Section V) plus ablations of the OIP-SR design
// choices ARCHITECTURE.md describes under "The paper's machinery". The
// cmd/bench harness prints the same data as formatted tables; these benches
// integrate with `go test -bench` for regression tracking.
//
// Workload sizes are kept small enough for -bench=. to finish in minutes on
// a laptop; the shapes (who wins, how ratios move with density/accuracy)
// are what matters, as in the paper's Section V.
package main

import (
	"fmt"
	"testing"

	"oipsr/graph"
	"oipsr/graph/gen"
	"oipsr/simrank"
)

// benchGraphs caches generated workloads across benchmarks.
var benchGraphs = map[string]*graph.Graph{}

func workload(name string, make func() *graph.Graph) *graph.Graph {
	if g, ok := benchGraphs[name]; ok {
		return g
	}
	g := make()
	benchGraphs[name] = g
	return g
}

func web() *graph.Graph {
	return workload("web", func() *graph.Graph { return gen.WebGraph(1000, 11, 1) })
}
func patent() *graph.Graph {
	return workload("patent", func() *graph.Graph { return gen.CitationGraph(1300, 4, 1) })
}
func dblp(i int) *graph.Graph {
	return workload(fmt.Sprintf("dblp%d", i), func() *graph.Graph { return gen.DBLPSnapshot(i, 8, 1) })
}

func runAlgo(b *testing.B, g *graph.Graph, opt simrank.Options) {
	b.Helper()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s, st, err := simrank.Compute(g, opt)
		if err != nil {
			b.Fatal(err)
		}
		s.Close() // tiled-backend results hold tiles + spill files
		if i == 0 {
			b.ReportMetric(float64(st.Iterations), "iters")
			if st.InnerAdds > 0 {
				b.ReportMetric(float64(st.InnerAdds+st.OuterAdds), "adds")
			}
			if st.ShareRatio > 0 {
				b.ReportMetric(st.ShareRatio, "share")
			}
		}
	}
}

// --- Fig. 5: dataset statistics (cost of workload generation + stats) ---

func BenchmarkDatasetStats(b *testing.B) {
	for i := 0; i < b.N; i++ {
		g := gen.WebGraph(1000, 11, int64(i))
		s := graph.ComputeStats(g)
		if s.Vertices != 1000 {
			b.Fatal("bad workload")
		}
	}
}

// --- Fig. 6a left: the four algorithms on DBLP snapshots ---

func BenchmarkExp1DBLP(b *testing.B) {
	for i := 0; i < 4; i++ {
		g := dblp(i)
		b.Run(fmt.Sprintf("snap=d%02d/algo=oip-dsr", 2+3*i), func(b *testing.B) {
			runAlgo(b, g, simrank.Options{Algorithm: simrank.OIPDSR, C: 0.6, Eps: 1e-3})
		})
		b.Run(fmt.Sprintf("snap=d%02d/algo=oip-sr", 2+3*i), func(b *testing.B) {
			runAlgo(b, g, simrank.Options{Algorithm: simrank.OIPSR, C: 0.6, Eps: 1e-3})
		})
		b.Run(fmt.Sprintf("snap=d%02d/algo=psum-sr", 2+3*i), func(b *testing.B) {
			runAlgo(b, g, simrank.Options{Algorithm: simrank.PsumSR, C: 0.6, Eps: 1e-3})
		})
		b.Run(fmt.Sprintf("snap=d%02d/algo=mtx-sr", 2+3*i), func(b *testing.B) {
			runAlgo(b, g, simrank.Options{Algorithm: simrank.MtxSR, C: 0.6, Seed: 1})
		})
	}
}

// --- Fig. 6a middle/right: time vs K on the web / citation workloads ---

func BenchmarkExp1Web(b *testing.B) {
	for _, k := range []int{5, 15, 25} {
		for _, alg := range []simrank.Algorithm{simrank.OIPSR, simrank.PsumSR} {
			b.Run(fmt.Sprintf("K=%d/algo=%s", k, alg), func(b *testing.B) {
				runAlgo(b, web(), simrank.Options{Algorithm: alg, C: 0.6, K: k})
			})
		}
	}
}

func BenchmarkExp1Patent(b *testing.B) {
	for _, k := range []int{5, 10, 20} {
		for _, alg := range []simrank.Algorithm{simrank.OIPSR, simrank.PsumSR} {
			b.Run(fmt.Sprintf("K=%d/algo=%s", k, alg), func(b *testing.B) {
				runAlgo(b, patent(), simrank.Options{Algorithm: alg, C: 0.6, K: k})
			})
		}
	}
}

// --- Fig. 6b: the two phases of OIP (MST build vs iteration sweeps) ---

func BenchmarkExp1PhasePlan(b *testing.B) {
	g := web()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		// K=0 is not allowed, so measure a single-iteration run, which is
		// dominated by planning on this workload; the harness prints exact
		// phase splits.
		if _, st, err := simrank.Compute(g, simrank.Options{C: 0.6, K: 1}); err != nil {
			b.Fatal(err)
		} else if st.PlanTime <= 0 {
			b.Fatal("no plan time recorded")
		}
	}
}

// --- Fig. 6c: density sweep ---

func BenchmarkExp1Density(b *testing.B) {
	for _, d := range []int{10, 30, 50} {
		g := workload(fmt.Sprintf("density%d", d), func() *graph.Graph {
			return gen.WebGraph(700, d, 7)
		})
		for _, alg := range []simrank.Algorithm{simrank.OIPDSR, simrank.OIPSR, simrank.PsumSR} {
			b.Run(fmt.Sprintf("d=%d/algo=%s", d, alg), func(b *testing.B) {
				runAlgo(b, g, simrank.Options{Algorithm: alg, C: 0.6, Eps: 1e-3})
			})
		}
	}
}

// --- Fig. 6d: memory (reported as metrics on a single run) ---

func BenchmarkExp2Memory(b *testing.B) {
	g := dblp(3)
	for _, alg := range []simrank.Algorithm{simrank.PsumSR, simrank.OIPSR, simrank.OIPDSR, simrank.MtxSR} {
		b.Run("algo="+string(alg), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				_, st, err := simrank.Compute(g, simrank.Options{Algorithm: alg, C: 0.6, Eps: 1e-3, Seed: 1})
				if err != nil {
					b.Fatal(err)
				}
				if i == 0 {
					b.ReportMetric(float64(st.AuxBytes), "aux-B")
					b.ReportMetric(float64(st.StateBytes), "state-B")
				}
			}
		})
	}
}

// --- Fig. 6e/6f: convergence (iterations to accuracy) ---

func BenchmarkExp3Convergence(b *testing.B) {
	g := workload("conv", func() *graph.Graph { return gen.CoauthorGraph(600, 3, 1) })
	for _, eps := range []float64{1e-2, 1e-4, 1e-6} {
		b.Run(fmt.Sprintf("eps=%.0e/algo=oip-sr", eps), func(b *testing.B) {
			runAlgo(b, g, simrank.Options{Algorithm: simrank.OIPSR, C: 0.8, K: 200, StopDiff: eps})
		})
		b.Run(fmt.Sprintf("eps=%.0e/algo=oip-dsr", eps), func(b *testing.B) {
			runAlgo(b, g, simrank.Options{Algorithm: simrank.OIPDSR, C: 0.8, Eps: eps})
		})
	}
}

// --- Fig. 6g/6h: ordering quality (NDCG as a reported metric) ---

func BenchmarkExp4NDCG(b *testing.B) {
	g := workload("conv", func() *graph.Graph { return gen.CoauthorGraph(600, 3, 1) })
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sr, _, err := simrank.Compute(g, simrank.Options{Algorithm: simrank.OIPSR, C: 0.8, Eps: 1e-5})
		if err != nil {
			b.Fatal(err)
		}
		ds, _, err := simrank.Compute(g, simrank.Options{Algorithm: simrank.OIPDSR, C: 0.8, Eps: 1e-5})
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			q := 0
			for v := 0; v < g.NumVertices(); v++ {
				if g.InDegree(v) > g.InDegree(q) {
					q = v
				}
			}
			ideal := make([]int, 0, g.NumVertices()-1)
			for _, r := range sr.TopK(q, g.NumVertices()) {
				ideal = append(ideal, r.Vertex)
			}
			rel := simrank.GradeByRank(g.NumVertices(), ideal, []int{10, 30, 50})
			dsRank := make([]int, 0, g.NumVertices()-1)
			for _, r := range ds.TopK(q, g.NumVertices()) {
				dsRank = append(dsRank, r.Vertex)
			}
			b.ReportMetric(simrank.NDCG(rel, dsRank, 30), "ndcg30")
		}
	}
}

// --- Parallel sweep engine: speedup vs worker count ---

// BenchmarkSweepParallel exercises the chain-level worker pool on a
// power-law web graph (n = 2000). K is high enough that the one-off
// DMST-Reduce planning phase is amortized and the sweeps dominate; scores
// and add counts are bit-identical across the worker counts, so the bench
// measures pure scheduling/scaling behavior.
func BenchmarkSweepParallel(b *testing.B) {
	g := workload("scaling", func() *graph.Graph { return gen.WebGraph(2000, 11, 1) })
	for _, w := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("workers=%d", w), func(b *testing.B) {
			runAlgo(b, g, simrank.Options{Algorithm: simrank.OIPSR, C: 0.6, K: 15, Workers: w})
		})
	}
}

// BenchmarkSweepTiled tracks the tiled backend's overhead against the
// dense engine on the same workload: unbounded (storage layout cost only)
// and under a memory cap at half the dense state (adds eviction and
// spill-to-disk traffic). Scores are bit-identical in every configuration,
// so the delta is pure storage-path cost.
func BenchmarkSweepTiled(b *testing.B) {
	g := workload("tiled", func() *graph.Graph { return gen.WebGraph(1000, 11, 1) })
	denseState := 2 * int64(g.NumVertices()) * int64(g.NumVertices()) * 8
	b.Run("dense", func(b *testing.B) {
		runAlgo(b, g, simrank.Options{Algorithm: simrank.OIPSR, C: 0.6, K: 8})
	})
	b.Run("tiled-unbounded", func(b *testing.B) {
		runAlgo(b, g, simrank.Options{Algorithm: simrank.OIPSR, C: 0.6, K: 8, BlockSize: 128})
	})
	b.Run("tiled-capped", func(b *testing.B) {
		runAlgo(b, g, simrank.Options{Algorithm: simrank.OIPSR, C: 0.6, K: 8,
			BlockSize: 128, MaxMemoryBytes: denseState / 2, SpillDir: b.TempDir()})
	})
}

// --- Ablations: outer sharing, psum's threshold ---

func BenchmarkAblationOuterSharing(b *testing.B) {
	g := web()
	b.Run("outer=on", func(b *testing.B) {
		runAlgo(b, g, simrank.Options{C: 0.6, K: 10})
	})
	b.Run("outer=off", func(b *testing.B) {
		runAlgo(b, g, simrank.Options{C: 0.6, K: 10, DisableOuterSharing: true})
	})
}

func BenchmarkAblationPsumThreshold(b *testing.B) {
	g := web()
	b.Run("threshold=0", func(b *testing.B) {
		runAlgo(b, g, simrank.Options{Algorithm: simrank.PsumSR, C: 0.6, K: 10})
	})
	b.Run("threshold=1e-4", func(b *testing.B) {
		runAlgo(b, g, simrank.Options{Algorithm: simrank.PsumSR, C: 0.6, K: 10, Threshold: 1e-4})
	})
}
