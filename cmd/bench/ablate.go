package main

import (
	"fmt"
	"time"

	"oipsr/simrank"
)

// runAblations measures what partial-sums sharing saves: OIP-SR in full,
// with outer sharing ablated, and psum-SR with no sharing at all. All
// variants compute identical scores (property-tested in internal/core);
// only cost moves.
func runAblations(cfg config) {
	header("Ablations: OIP-SR design choices on berkstan*", "DESIGN.md")
	g := webGraph(cfg)
	fmt.Printf("workload: n=%d m=%d d=%.1f, K=10 C=0.6\n", g.NumVertices(), g.NumEdges(), g.AvgInDegree())
	fmt.Printf("%-28s | %12s %12s | %14s %14s\n", "variant", "plan", "compute", "inner adds", "outer adds")

	variants := []struct {
		name string
		opt  simrank.Options
	}{
		{"full OIP-SR", simrank.Options{Algorithm: simrank.OIPSR}},
		{"inner sharing only", simrank.Options{Algorithm: simrank.OIPSR, DisableOuterSharing: true}},
		{"psum-SR (no sharing)", simrank.Options{Algorithm: simrank.PsumSR}},
	}
	for _, v := range variants {
		v.opt.C = 0.6
		v.opt.K = 10
		v.opt.Workers = benchWorkers
		_, st, err := simrank.Compute(g, v.opt)
		must(err)
		fmt.Printf("%-28s | %12v %12v | %14d %14d\n",
			v.name, st.PlanTime.Round(time.Millisecond), st.ComputeTime.Round(time.Millisecond),
			st.InnerAdds, st.OuterAdds)
	}
}
