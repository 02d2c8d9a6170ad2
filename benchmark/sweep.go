package main

// sweep-web: the paper's offline use. One caller alternates an all-pairs
// OIP-SR (primary op) and an all-pairs OIP-DSR (second op) on a web graph
// at the paper's defaults. walkindex and simrankd do nothing here.

import (
	"fmt"
	"math/rand"
	"time"
)

const (
	// The dataset is fixed; the seed renumbers its vertices. Two seeds
	// sweep isomorphic graphs — the same sharing structure, the same
	// amount of work — laid out differently. (Web graphs drawn from
	// different seeds differ by 30% in OIP-SR time.)
	sweepVertices   = 1500
	sweepAvgDeg     = 11
	sweepGraphSeed  = 1
	sweepWarmRounds = 6  // per set-up, so that one set-up takes about 2 s
	sweepRounds     = 40 // measured [OIP-SR, OIP-DSR] rounds at defaultSeconds
)

// relabel renumbers the vertices of g by a seed permutation.
func relabel(g graphT, seed int64) (graphT, error) {
	perm := rand.New(rand.NewSource(seed)).Perm(g.n())
	edges := g.edges()
	for i, e := range edges {
		edges[i] = [2]int32{int32(perm[e[0]]), int32(perm[e[1]])}
	}
	return graphFromEdges(g.n(), edges)
}

type sweepInstance struct {
	g          graphT
	genS       float64
	psum       scoresT
	psumStats  sweepStats
	psumWallMs float64
}

func runSweepWeb(c config) (*result, error) {
	n := c.shrink(sweepVertices, 120)
	warm := c.shrink(sweepWarmRounds, 1)
	rounds := c.scale(sweepRounds, 12)
	res := &result{e2e: map[string]float64{}, layer: map[string]float64{}}

	// Set-up: generate the graph, run the psum-SR reference the check
	// compares against, and warm both engines.
	inst, setupS, err := repeatSetup(setupReps, func() (*sweepInstance, error) {
		in := &sweepInstance{}
		t0 := time.Now()
		var err error
		if in.g, err = relabel(webGraph(n, sweepAvgDeg, sweepGraphSeed), c.seed); err != nil {
			return nil, err
		}
		in.genS = time.Since(t0).Seconds()
		t0 = time.Now()
		if in.psum, in.psumStats, err = computeAllPairs(in.g, "psum-sr", c.workers); err != nil {
			return nil, err
		}
		in.psumWallMs = ms(time.Since(t0))
		for i := 0; i < warm; i++ {
			for _, algo := range []string{"oip-sr", "oip-dsr"} {
				if _, _, err := computeAllPairs(in.g, algo, c.workers); err != nil {
					return nil, err
				}
			}
		}
		return in, nil
	}, func(*sweepInstance) {})
	if err != nil {
		return nil, err
	}
	g := inst.g
	res.note("graph=web n=%d m=%d graph_seed=%d relabelled_by_seed warm_rounds=%d measured_rounds=%d callers=1", g.n(), g.m(), sweepGraphSeed, warm, rounds)

	// Measured phase.
	var srLat, dsrLat []time.Duration
	var sr, dsr scoresT
	var srStats sweepStats
	mem := markMem()
	t0 := time.Now()
	for i := 0; i < rounds; i++ {
		a := time.Now()
		if sr, srStats, err = computeAllPairs(g, "oip-sr", c.workers); err != nil {
			return nil, err
		}
		b := time.Now()
		if dsr, _, err = computeAllPairs(g, "oip-dsr", c.workers); err != nil {
			return nil, err
		}
		srLat = append(srLat, b.Sub(a))
		dsrLat = append(dsrLat, time.Since(b))
	}
	wall := time.Since(t0)
	mem.layerMetrics(2*rounds, res.layer)
	res.attempted = 2 * rounds

	// Check: OIP-SR shares partial sums, it must not change the scores.
	if d := sr.maxDiff(inst.psum); d > 1e-12 {
		return nil, fmt.Errorf("sweep-web: OIP-SR differs from psum-SR by %.3g (> 1e-12)", d)
	}

	// Paper Exp. 4: how much of OIP-SR's top-10 does OIP-DSR keep.
	var overlaps []float64
	for q := 0; q < g.n(); q++ {
		overlaps = append(overlaps, overlap(dsr.topK(q, 10), sr.topK(q, 10)))
	}

	tailP := tailPercentile(len(srLat))
	res.e2e["setup_s"] = setupS
	res.e2e["op_p50_ms"] = median(millis(srLat))
	res.e2e["op_tail_ms"] = quantile(millis(srLat), tailP)
	res.e2e["throughput_ops_s"] = float64(2*rounds) / wall.Seconds()
	res.e2e["second_op_p50_ms"] = median(millis(dsrLat))
	res.e2e["index_bytes_per_vertex"] = float64(srStats.stateBytes+srStats.auxBytes) / float64(g.n())
	res.e2e["precision_at_10"] = mean(overlaps)
	res.note("primary=oip-sr samples=%d tail=p%.0f second=oip-dsr samples=%d measured_wall_s=%.2f precision_sources=%d",
		len(srLat), tailP*100, len(dsrLat), wall.Seconds(), len(overlaps))

	if c.trace {
		if err := traceSweepWeb(c, inst, rounds, res); err != nil {
			return nil, err
		}
	}
	return res, nil
}

// traceSweepWeb replays the measured rounds under spans. The engines
// report their own phase split (Stats.PlanTime, Stats.ComputeTime); the
// plan time is cross-checked by a direct partition.BuildPlan span.
func traceSweepWeb(c config, inst *sweepInstance, rounds int, res *result) error {
	g := inst.g
	tr := newTracer()
	var sr, dsr sweepStats
	var planMs, coreMs, dsrMs []float64
	t0 := time.Now()
	for i := 0; i < rounds; i++ {
		root := tr.start("op.round", 0, i)
		id := tr.start("simrank.compute.oip-sr", root, i)
		_, st, err := computeAllPairs(g, "oip-sr", c.workers)
		tr.end(id)
		if err != nil {
			return err
		}
		sr = st
		tr.count(id, "inner_adds", float64(st.innerAdds))
		tr.count(id, "outer_adds", float64(st.outerAdds))
		planMs = append(planMs, ms(st.plan))
		coreMs = append(coreMs, ms(st.compute))

		id = tr.start("simrank.compute.oip-dsr", root, i)
		_, st, err = computeAllPairs(g, "oip-dsr", c.workers)
		tr.end(id)
		if err != nil {
			return err
		}
		dsr = st
		dsrMs = append(dsrMs, ms(st.compute))
		tr.end(root)
	}
	replayWall := time.Since(t0)
	for i := 0; i < rounds; i++ {
		id := tr.start("partition.build_plan", 0, i)
		err := buildPlan(g)
		tr.end(id)
		if err != nil {
			return err
		}
	}
	if err := tr.write(spanFile(c)); err != nil {
		return err
	}

	l := res.layer
	l["graph.gen_s"] = inst.genS
	l["partition.plan_ms"] = median(planMs)
	l["partition.share_ratio"] = sr.shareRatio
	l["partition.avg_diff"] = sr.avgDiff
	l["core.sweep_ms"] = median(coreMs)
	l["core.inner_adds"] = float64(sr.innerAdds)
	l["core.outer_adds"] = float64(sr.outerAdds)
	l["core.aux_bytes"] = float64(sr.auxBytes)
	l["core.adds_vs_psum_ratio"] = float64(sr.innerAdds+sr.outerAdds) / float64(inst.psumStats.innerAdds+inst.psumStats.outerAdds)
	l["dsr.sweep_ms"] = median(dsrMs)
	l["dsr.iterations"] = float64(dsr.iterations)
	l["psum.compute_ms"] = inst.psumWallMs
	l["psum.adds"] = float64(inst.psumStats.innerAdds + inst.psumStats.outerAdds)
	l["simmat.state_bytes"] = float64(sr.stateBytes)
	l["trace.overhead_ratio"] = float64(2*rounds) / replayWall.Seconds() / res.e2e["throughput_ops_s"]
	res.note("trace: spans=%d file=%s partition.build_plan_direct_ms=%.3f oip-sr_iterations=%d",
		len(tr.spans), spanFile(c), median(tr.durations("partition.build_plan")), sr.iterations)
	return nil
}
