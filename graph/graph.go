// Package graph provides the directed-graph substrate used by all SimRank
// algorithms in this repository.
//
// A Graph is an immutable directed graph stored in compressed sparse row
// (CSR) form, indexed both ways: for every vertex v the graph exposes the
// sorted in-neighbor list I(v) and the sorted out-neighbor list O(v) as
// zero-copy slices. SimRank is defined in terms of in-neighbor sets, and the
// OIP-SR engine additionally walks out-neighbor lists to enumerate vertices
// whose in-neighbor sets overlap, so both directions are precomputed.
//
// Graphs are built through a Builder (see builder.go) or loaded from disk
// with the gio subpackage. Vertices are dense integers in [0, NumVertices()).
package graph

import "fmt"

// Graph is an immutable directed graph in dual-CSR form.
//
// The zero value is an empty graph with no vertices. All slices returned by
// accessor methods alias internal storage and must not be modified.
type Graph struct {
	n int // number of vertices
	m int // number of edges

	// In-CSR: inList[inStart[v]:inStart[v+1]] is the sorted in-neighbor
	// list of v, i.e. all u with an edge u->v.
	inStart []int
	inList  []int

	// Out-CSR: outList[outStart[v]:outStart[v+1]] is the sorted
	// out-neighbor list of v, i.e. all w with an edge v->w.
	outStart []int
	outList  []int
}

// NumVertices returns the number of vertices n.
func (g *Graph) NumVertices() int { return g.n }

// NumEdges returns the number of directed edges m.
func (g *Graph) NumEdges() int { return g.m }

// In returns the sorted in-neighbor list I(v). The slice aliases internal
// storage and must not be modified.
func (g *Graph) In(v int) []int {
	return g.inList[g.inStart[v]:g.inStart[v+1]]
}

// Out returns the sorted out-neighbor list O(v). The slice aliases internal
// storage and must not be modified.
func (g *Graph) Out(v int) []int {
	return g.outList[g.outStart[v]:g.outStart[v+1]]
}

// InDegree returns |I(v)|.
func (g *Graph) InDegree(v int) int {
	return g.inStart[v+1] - g.inStart[v]
}

// OutDegree returns |O(v)|.
func (g *Graph) OutDegree(v int) int {
	return g.outStart[v+1] - g.outStart[v]
}

// HasEdge reports whether the directed edge u->v exists. It runs in
// O(log |I(v)|) time via binary search on the in-neighbor list of v.
func (g *Graph) HasEdge(u, v int) bool {
	in := g.In(v)
	lo, hi := 0, len(in)
	for lo < hi {
		mid := (lo + hi) / 2
		if in[mid] < u {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo < len(in) && in[lo] == u
}

// AvgInDegree returns m/n, the average in-degree d used throughout the paper
// (and equal to the average out-degree).
func (g *Graph) AvgInDegree() float64 {
	if g.n == 0 {
		return 0
	}
	return float64(g.m) / float64(g.n)
}

// Edges invokes fn for every directed edge (u, v) in increasing order of u
// and, within a source, increasing v. Iteration stops early if fn returns
// false.
func (g *Graph) Edges(fn func(u, v int) bool) {
	for u := 0; u < g.n; u++ {
		for _, v := range g.Out(u) {
			if !fn(u, v) {
				return
			}
		}
	}
}

// Validate checks internal CSR invariants: monotone offset arrays, neighbor
// ids in range, sorted and duplicate-free adjacency lists, and matching edge
// counts between the two CSR directions. It returns nil for a well-formed
// graph. It is primarily used by tests and by gio when loading untrusted
// input.
func (g *Graph) Validate() error {
	if g.n < 0 {
		return fmt.Errorf("graph: negative vertex count %d", g.n)
	}
	if len(g.inStart) != g.n+1 || len(g.outStart) != g.n+1 {
		return fmt.Errorf("graph: offset array length mismatch (n=%d, |inStart|=%d, |outStart|=%d)",
			g.n, len(g.inStart), len(g.outStart))
	}
	if err := validateCSR("in", g.n, g.inStart, g.inList); err != nil {
		return err
	}
	if err := validateCSR("out", g.n, g.outStart, g.outList); err != nil {
		return err
	}
	if len(g.inList) != g.m || len(g.outList) != g.m {
		return fmt.Errorf("graph: edge count mismatch (m=%d, |inList|=%d, |outList|=%d)",
			g.m, len(g.inList), len(g.outList))
	}
	return nil
}

func validateCSR(dir string, n int, start, list []int) error {
	if start[0] != 0 {
		return fmt.Errorf("graph: %s-CSR offset[0] = %d, want 0", dir, start[0])
	}
	if start[n] != len(list) {
		return fmt.Errorf("graph: %s-CSR offset[n] = %d, want %d", dir, start[n], len(list))
	}
	for v := 0; v < n; v++ {
		if start[v] > start[v+1] {
			return fmt.Errorf("graph: %s-CSR offsets not monotone at vertex %d", dir, v)
		}
		row := list[start[v]:start[v+1]]
		for i, u := range row {
			if u < 0 || u >= n {
				return fmt.Errorf("graph: %s-neighbor %d of vertex %d out of range [0,%d)", dir, u, v, n)
			}
			if i > 0 && row[i-1] >= u {
				return fmt.Errorf("graph: %s-neighbors of vertex %d not strictly sorted at index %d", dir, v, i)
			}
		}
	}
	return nil
}
