package graph

import (
	"fmt"
	"sort"
)

// Builder accumulates directed edges and produces an immutable Graph.
//
// Duplicate edges are coalesced. Self-loops are kept, because the SimRank
// recurrence is well defined for them. The zero value is ready to use.
type Builder struct {
	n        int
	src, dst []int
}

// NewBuilder returns a builder pre-sized for a graph with n vertices and
// roughly m edges. Both hints may be zero.
func NewBuilder(n, m int) *Builder {
	return &Builder{
		n:   n,
		src: make([]int, 0, m),
		dst: make([]int, 0, m),
	}
}

// AddEdge records the directed edge u->v. Vertex ids may exceed the initial
// size hint; the final graph spans [0, max id]. Negative ids are rejected at
// Build time.
func (b *Builder) AddEdge(u, v int) {
	if u >= b.n {
		b.n = u + 1
	}
	if v >= b.n {
		b.n = v + 1
	}
	b.src = append(b.src, u)
	b.dst = append(b.dst, v)
}

// EnsureVertices guarantees the built graph has at least n vertices even if
// some of them are isolated.
func (b *Builder) EnsureVertices(n int) {
	if n > b.n {
		b.n = n
	}
}

// Build sorts, deduplicates and freezes the accumulated edges into a Graph.
// The builder may be reused afterwards; the returned graph does not share
// storage with it.
func (b *Builder) Build() (*Graph, error) {
	for i := range b.src {
		if b.src[i] < 0 || b.dst[i] < 0 {
			return nil, fmt.Errorf("graph: negative vertex id in edge (%d, %d)", b.src[i], b.dst[i])
		}
	}
	type edge struct{ u, v int }
	edges := make([]edge, len(b.src))
	for i := range b.src {
		edges[i] = edge{b.src[i], b.dst[i]}
	}
	sort.Slice(edges, func(i, j int) bool {
		if edges[i].u != edges[j].u {
			return edges[i].u < edges[j].u
		}
		return edges[i].v < edges[j].v
	})
	// Deduplicate in place.
	uniq := edges[:0]
	for i, e := range edges {
		if i == 0 || e != edges[i-1] {
			uniq = append(uniq, e)
		}
	}
	edges = uniq

	g := &Graph{
		n:        b.n,
		m:        len(edges),
		inStart:  make([]int, b.n+1),
		outStart: make([]int, b.n+1),
		inList:   make([]int, len(edges)),
		outList:  make([]int, len(edges)),
	}

	// Out-CSR directly from the (u, v)-sorted order.
	for _, e := range edges {
		g.outStart[e.u+1]++
	}
	for v := 0; v < b.n; v++ {
		g.outStart[v+1] += g.outStart[v]
	}
	for i, e := range edges {
		g.outList[i] = e.v
		_ = i
	}

	// In-CSR by counting sort on the destination.
	for _, e := range edges {
		g.inStart[e.v+1]++
	}
	for v := 0; v < b.n; v++ {
		g.inStart[v+1] += g.inStart[v]
	}
	next := append([]int(nil), g.inStart[:b.n]...)
	for _, e := range edges {
		g.inList[next[e.v]] = e.u
		next[e.v]++
	}
	// Destinations were appended in increasing source order per destination,
	// so each in-list is already sorted; edges are (u,v)-sorted which
	// guarantees sources arrive in increasing order for every v.
	return g, nil
}

// MustBuild is Build for statically-known-good inputs; it panics on error.
func (b *Builder) MustBuild() *Graph {
	g, err := b.Build()
	if err != nil {
		panic(err)
	}
	return g
}

// FromEdges is a convenience constructor building a graph with at least n
// vertices from an edge slice of (u, v) pairs.
func FromEdges(n int, edges [][2]int) (*Graph, error) {
	b := NewBuilder(n, len(edges))
	b.EnsureVertices(n)
	for _, e := range edges {
		b.AddEdge(e[0], e[1])
	}
	return b.Build()
}

// MustFromEdges is FromEdges for statically-known-good inputs.
func MustFromEdges(n int, edges [][2]int) *Graph {
	g, err := FromEdges(n, edges)
	if err != nil {
		panic(err)
	}
	return g
}
