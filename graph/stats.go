package graph

import "fmt"

// Stats summarizes the structural properties of a graph that drive SimRank
// cost: size, density, degree spread, and in-neighborhood overlap. The
// overlap fields quantify how much partial-sums sharing is available to
// OIP-SR (Section III of the paper): the more distinct vertices appear in
// multiple in-neighbor sets, the more sub-summations can be reused.
type Stats struct {
	Vertices int
	Edges    int

	AvgDegree   float64 // m / n, the paper's d
	MaxInDeg    int
	MaxOutDeg   int
	EmptyInSets int // vertices with I(v) = empty set (scores vs. them are 0)

	// InSetUnion is |union of all I(v)|; InSetTotal is sum of |I(v)| = m.
	// Sharing is guaranteed on every MST path when InSetUnion < InSetTotal
	// (correctness note, Section III-C).
	InSetUnion int
	InSetTotal int

	// OverlapRatio = 1 - InSetUnion/InSetTotal, in [0, 1); higher means more
	// redundancy available for sharing.
	OverlapRatio float64
}

// ComputeStats scans the graph once and returns its Stats.
func ComputeStats(g *Graph) Stats {
	s := Stats{
		Vertices:  g.NumVertices(),
		Edges:     g.NumEdges(),
		AvgDegree: g.AvgInDegree(),
	}
	seen := make([]bool, g.NumVertices())
	for v := 0; v < g.NumVertices(); v++ {
		din, dout := g.InDegree(v), g.OutDegree(v)
		if din > s.MaxInDeg {
			s.MaxInDeg = din
		}
		if dout > s.MaxOutDeg {
			s.MaxOutDeg = dout
		}
		if din == 0 {
			s.EmptyInSets++
		}
		for _, u := range g.In(v) {
			if !seen[u] {
				seen[u] = true
				s.InSetUnion++
			}
		}
	}
	s.InSetTotal = g.NumEdges()
	if s.InSetTotal > 0 {
		s.OverlapRatio = 1 - float64(s.InSetUnion)/float64(s.InSetTotal)
	}
	return s
}

// String renders the stats as one row of the paper's Fig. 5 dataset table.
func (s Stats) String() string {
	return fmt.Sprintf("n=%d m=%d d=%.1f maxIn=%d maxOut=%d emptyIn=%d overlap=%.2f",
		s.Vertices, s.Edges, s.AvgDegree, s.MaxInDeg, s.MaxOutDeg, s.EmptyInSets, s.OverlapRatio)
}
