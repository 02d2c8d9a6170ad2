package partition_test

import (
	"testing"

	"oipsr/graph/gen"
	"oipsr/internal/partition"
)

// BenchmarkBuildPlan times DMST-Reduce on sweep-web's seed-1 graph
// (gen.WebGraph(1500, 11, 1) relabelled by seed 1; 499 non-empty in-sets),
// the plan every OIP-SR and OIP-DSR Compute call there builds first.
func BenchmarkBuildPlan(b *testing.B) {
	g := relabelled(b, gen.WebGraph(1500, 11, 1), 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := partition.BuildPlan(g, partition.Options{}); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/1e6/float64(b.N), "ms/op")
}
