package core

import (
	"math/rand"
	"testing"

	"oipsr/graph"
	"oipsr/graph/gen"
	"oipsr/internal/partition"
	"oipsr/internal/simmat"
)

// parallelWorkloads are the graphs every parallel-vs-serial equivalence test
// runs over: the paper's example, dense-ish random graphs, and structured
// generator output with real chain sharing.
func parallelWorkloads(t testing.TB) map[string]*graph.Graph {
	t.Helper()
	rng := rand.New(rand.NewSource(42))
	return map[string]*graph.Graph{
		"paper":    paperGraph(t),
		"random":   randomGraph(rng, 40, 200),
		"web":      gen.WebGraph(150, 8, 3),
		"citation": gen.CitationGraph(120, 4, 5),
	}
}

// TestParallelSweepBitIdentical: multiple ping-ponged sweeps through a
// 4-worker pool produce byte-for-byte the same matrix and the same
// operation counts as the serial sweeper.
func TestParallelSweepBitIdentical(t *testing.T) {
	for name, g := range parallelWorkloads(t) {
		plan, err := partition.BuildPlan(g, partition.Options{})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for _, workers := range []int{2, 4, 7} {
			serial := NewSweeper(g, plan, false)
			pool := NewParallelSweeper(g, plan, false, workers)
			m := serial.Kept()

			sa, sb := simmat.NewIdentity(m), simmat.New(m)
			pa, pb := simmat.NewIdentity(m), simmat.New(m)
			for k := 0; k < 4; k++ {
				serial.Sweep(sa, sb, 1, 0.6, true)
				pool.Sweep(pa, pb, 1, 0.6, true)
				sa, sb = sb, sa
				pa, pb = pb, pa
			}
			if d := simmat.MaxDiff(sa, pa); d != 0 {
				t.Errorf("%s workers=%d: matrices differ by %g, want bit-identical", name, workers, d)
			}
			if serial.Stats() != pool.Stats() {
				t.Errorf("%s workers=%d: stats diverged: serial %+v pool %+v",
					name, workers, serial.Stats(), pool.Stats())
			}
		}
	}
}

// TestParallelComputeBitIdentical: the OIP-SR engine end-to-end, Workers 1
// vs N, including the StopDiff early-stopping path (which exercises the
// parallel MaxDiff).
func TestParallelComputeBitIdentical(t *testing.T) {
	for name, g := range parallelWorkloads(t) {
		for _, opt := range []Options{
			{C: 0.6, K: 5},
			{C: 0.8, K: 30, StopDiff: 1e-4},
			{C: 0.6, K: 5, DisableOuter: true},
		} {
			serialOpt, poolOpt := opt, opt
			serialOpt.Workers = 1
			poolOpt.Workers = 4
			want, wst, err := Compute(g, serialOpt)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			got, gst, err := Compute(g, poolOpt)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if d := maxDiff(t, want, got); d != 0 {
				t.Errorf("%s %+v: scores differ by %g, want bit-identical", name, opt, d)
			}
			if wst.InnerAdds != gst.InnerAdds || wst.OuterAdds != gst.OuterAdds {
				t.Errorf("%s %+v: add counts diverged: serial (%d,%d) pool (%d,%d)",
					name, opt, wst.InnerAdds, wst.OuterAdds, gst.InnerAdds, gst.OuterAdds)
			}
			if wst.Iterations != gst.Iterations || wst.FinalDiff != gst.FinalDiff {
				t.Errorf("%s %+v: stopping diverged: serial (%d,%g) pool (%d,%g)",
					name, opt, wst.Iterations, wst.FinalDiff, gst.Iterations, gst.FinalDiff)
			}
		}
	}
}

// TestScheduleCoversChains: the LPT scheduler assigns every chain exactly
// once, never invents work, and is deterministic.
func TestScheduleCoversChains(t *testing.T) {
	g := gen.WebGraph(200, 9, 11)
	plan, err := partition.BuildPlan(g, partition.Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 2, 3, 8} {
		seen := map[int]int{}
		sched := schedule(plan.Chains, workers)
		if len(sched) != workers {
			t.Fatalf("workers=%d: %d buckets", workers, len(sched))
		}
		for _, bucket := range sched {
			for _, ch := range bucket {
				seen[ch.Start]++
			}
		}
		if len(seen) != len(plan.Chains) {
			t.Errorf("workers=%d: %d distinct chains scheduled, want %d", workers, len(seen), len(plan.Chains))
		}
		for start, cnt := range seen {
			if cnt != 1 {
				t.Errorf("workers=%d: chain at %d scheduled %d times", workers, start, cnt)
			}
		}
		again := schedule(plan.Chains, workers)
		for w := range sched {
			if len(sched[w]) != len(again[w]) {
				t.Fatalf("workers=%d: scheduling is not deterministic", workers)
			}
			for i := range sched[w] {
				if sched[w][i] != again[w][i] {
					t.Fatalf("workers=%d: scheduling is not deterministic", workers)
				}
			}
		}
	}
}

// TestParallelSweeperCapsWorkers: the pool never exceeds the chain count,
// and worker counts below 1 resolve to at least one worker.
func TestParallelSweeperCapsWorkers(t *testing.T) {
	g := paperGraph(t)
	plan, err := partition.BuildPlan(g, partition.Options{})
	if err != nil {
		t.Fatal(err)
	}
	sw := NewParallelSweeper(g, plan, false, 1000)
	if sw.Workers() > len(plan.Chains) {
		t.Errorf("pool size %d exceeds chain count %d", sw.Workers(), len(plan.Chains))
	}
	if NewParallelSweeper(g, plan, false, -1).Workers() < 1 {
		t.Error("negative worker request resolved below 1")
	}
}

// sweepWebGraph is the sweep-web benchmark's graph for seed:
// gen.WebGraph(1500, 11, 1) with vertex v renamed perm[v], perm the seed's
// rand.Perm. golden_test.go keeps its own copy, relabelled, so that file
// still compiles alone at the commit its goldens are recorded from.
func sweepWebGraph(tb testing.TB, seed int64) *graph.Graph {
	g := gen.WebGraph(1500, 11, 1)
	perm := rand.New(rand.NewSource(seed)).Perm(g.NumVertices())
	var edges [][2]int
	g.Edges(func(u, v int) bool {
		edges = append(edges, [2]int{perm[u], perm[v]})
		return true
	})
	h, err := graph.FromEdges(g.NumVertices(), edges)
	if err != nil {
		tb.Fatal(err)
	}
	return h
}

// BenchmarkSweepOnly measures the sweep phase alone (plan prebuilt) across
// pool sizes, the purest view of chain-level scaling, and on sweep-web's
// seed-1 graph at one worker, where procedure OP dominates: ns/outer_add
// is the sweep's time per addition of procedure OP.
func BenchmarkSweepOnly(b *testing.B) {
	run := func(b *testing.B, g *graph.Graph, plan *partition.Plan, workers int) {
		sw := NewParallelSweeper(g, plan, false, workers)
		prev, next := simmat.NewIdentity(sw.Kept()), simmat.New(sw.Kept())
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			sw.Sweep(prev, next, 1, 0.6, true)
			prev, next = next, prev
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(sw.Stats().OuterAdds), "ns/outer_add")
	}
	g := gen.WebGraph(2000, 11, 1)
	plan, err := partition.BuildPlan(g, partition.Options{})
	if err != nil {
		b.Fatal(err)
	}
	for _, workers := range []int{1, 2, 4, 8} {
		b.Run(map[int]string{1: "workers=1", 2: "workers=2", 4: "workers=4", 8: "workers=8"}[workers], func(b *testing.B) {
			run(b, g, plan, workers)
		})
	}
	b.Run("sweep-web/workers=1", func(b *testing.B) {
		g := sweepWebGraph(b, 1)
		plan, err := partition.BuildPlan(g, partition.Options{})
		if err != nil {
			b.Fatal(err)
		}
		run(b, g, plan, 1)
	})
}
