package simrank

import (
	"testing"

	"oipsr/graph"
	"oipsr/graph/gen"
)

// TestWorkersBitIdentical is the public-API determinism contract: for every
// engine, a pooled run returns exactly the scores — and exactly
// the operation counts — of the serial run.
func TestWorkersBitIdentical(t *testing.T) {
	graphs := map[string]*graph.Graph{
		"web":      gen.WebGraph(120, 8, 3),
		"citation": gen.CitationGraph(130, 4, 5),
		"coauthor": gen.CoauthorGraph(90, 3, 2),
	}
	for name, g := range graphs {
		for _, alg := range Algorithms() {
			opt := Options{Algorithm: alg, C: 0.6, K: 5, Seed: 11, Walks: 20}
			opt.Workers = 1
			want, wst, err := Compute(g, opt)
			if err != nil {
				t.Fatalf("%s/%s: %v", name, alg, err)
			}
			for _, workers := range []int{2, 4} {
				opt.Workers = workers
				got, gst, err := Compute(g, opt)
				if err != nil {
					t.Fatalf("%s/%s: %v", name, alg, err)
				}
				if d := want.MaxDiff(got); d != 0 {
					t.Errorf("%s/%s workers=%d: scores differ by %g, want bit-identical", name, alg, workers, d)
				}
				if wst.InnerAdds != gst.InnerAdds || wst.OuterAdds != gst.OuterAdds {
					t.Errorf("%s/%s workers=%d: add counts diverged: (%d,%d) vs (%d,%d)",
						name, alg, workers, wst.InnerAdds, wst.OuterAdds, gst.InnerAdds, gst.OuterAdds)
				}
			}
		}
	}
}
