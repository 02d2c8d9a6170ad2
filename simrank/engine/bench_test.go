package engine_test

import (
	"context"
	"fmt"
	"testing"

	"oipsr/graph/gen"
	"oipsr/simrank/engine"
)

// BenchmarkEngines times, through the registry alone, the all-pairs engines
// no contract workload runs, on sweep-web's seed-1 graph (web, n = 1500,
// d = 11) at one worker and at the default pool (workers=0, every CPU).
// aux-B is the engine's Stats.AuxBytes.
func BenchmarkEngines(b *testing.B) {
	g := gen.WebGraph(1500, 11, 1)
	for _, alg := range []engine.Algorithm{engine.MonteCarlo} {
		e, ok := engine.Get(alg)
		if !ok {
			b.Fatalf("%s is not registered", alg)
		}
		for _, workers := range []int{1, 0} {
			b.Run(fmt.Sprintf("%s/workers=%d", alg, workers), func(b *testing.B) {
				var aux int64
				for i := 0; i < b.N; i++ {
					_, st, err := e.Compute(context.Background(), g, engine.Params{Seed: 1, Workers: workers})
					if err != nil {
						b.Fatal(err)
					}
					aux = st.AuxBytes
				}
				b.ReportMetric(float64(aux), "aux-B")
			})
		}
	}
}
