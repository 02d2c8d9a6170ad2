package graph_test

import (
	"math/rand"
	"testing"

	"oipsr/graph"
	"oipsr/graph/gen"
)

// BenchmarkApplyEdits times one 8-edit batch — half removals of a present
// in-edge, half random additions, the mix the walk index's update
// benchmarks apply — on the graphs those benchmarks edit. Each batch is
// drawn afresh against the same base graph.
func BenchmarkApplyEdits(b *testing.B) {
	for _, c := range []struct {
		name string
		g    func() *graph.Graph
	}{
		{"citation-d4-n15000", func() *graph.Graph { return gen.CitationGraph(15000, 4, 1) }},
		{"web-d11-n100000", func() *graph.Graph { return gen.WebGraph(100000, 11, 1) }},
	} {
		b.Run(c.name, func(b *testing.B) {
			g := c.g()
			n := g.NumVertices()
			rng := rand.New(rand.NewSource(1))
			edits := make([]graph.Edit, 8)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for j := range edits {
					v := rng.Intn(n)
					if in := g.In(v); len(in) > 0 && j%2 == 0 {
						edits[j] = graph.Edit{Op: graph.EditRemove, U: in[rng.Intn(len(in))], V: v}
					} else {
						edits[j] = graph.Edit{Op: graph.EditAdd, U: rng.Intn(n), V: v}
					}
				}
				if _, _, err := g.ApplyEdits(edits); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
