package dsr

import (
	"testing"

	"oipsr/graph"
	"oipsr/graph/gen"
)

// TestParallelBitIdentical: OIP-DSR with a worker pool matches the serial
// engine bit-for-bit, in scores and in operation counts, with and without
// OIP sharing.
func TestParallelBitIdentical(t *testing.T) {
	for name, g := range map[string]*graph.Graph{
		"web":      gen.WebGraph(120, 8, 3),
		"citation": gen.CitationGraph(150, 4, 7),
		"coauthor": gen.CoauthorGraph(100, 3, 1),
	} {
		for _, disable := range []bool{false, true} {
			want, wst, err := Compute(g, Options{C: 0.6, K: 6, DisableSharing: disable, Workers: 1})
			if err != nil {
				t.Fatal(err)
			}
			got, gst, err := Compute(g, Options{C: 0.6, K: 6, DisableSharing: disable, Workers: 4})
			if err != nil {
				t.Fatal(err)
			}
			if d := maxDiff(t, want, got); d != 0 {
				t.Errorf("%s disable=%v: scores differ by %g, want bit-identical", name, disable, d)
			}
			if wst.InnerAdds != gst.InnerAdds || wst.OuterAdds != gst.OuterAdds {
				t.Errorf("%s disable=%v: add counts diverged: (%d,%d) vs (%d,%d)",
					name, disable, wst.InnerAdds, wst.OuterAdds, gst.InnerAdds, gst.OuterAdds)
			}
		}
	}
}
