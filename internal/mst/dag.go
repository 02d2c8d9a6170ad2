package mst

import "errors"

// ErrCyclicSelection is returned by GreedyAcyclic when per-vertex minimum
// in-edge selection produces a cycle, i.e. the input was not a DAG (or not
// one in which greedy selection is safe).
var ErrCyclicSelection = errors.New("mst: greedy selection formed a cycle; input is not a DAG")

// GreedyAcyclic computes a minimum spanning arborescence for digraphs whose
// edges respect some topological order (DAGs). In a DAG the cheapest
// incoming edge of every vertex can never close a cycle, so per-vertex
// minimum selection is globally optimal and runs in O(E).
//
// DMST-Reduce produces exactly such inputs: candidate edges only point from
// in-neighbor sets of smaller (in-degree, id) rank to larger ones, so the
// cost graph is a DAG and this fast path applies. GreedyAcyclic verifies
// acyclicity of its selection and returns ErrCyclicSelection if the caller's
// DAG assumption was wrong, rather than returning a non-tree.
func GreedyAcyclic(n, root int, edges []Edge) (*Arborescence, error) {
	if root < 0 || root >= n {
		return nil, errors.New("mst: root out of range")
	}
	a := &Arborescence{
		Root:   root,
		Parent: make([]int, n),
		Edge:   make([]int, n),
	}
	for v := range a.Parent {
		a.Parent[v] = -1
		a.Edge[v] = -1
	}
	for i, e := range edges {
		if e.From < 0 || e.From >= n || e.To < 0 || e.To >= n {
			return nil, errors.New("mst: edge endpoint out of range")
		}
		if e.From == e.To || e.To == root {
			continue
		}
		// Ties break toward the smallest parent id so the selection is
		// deterministic regardless of edge enumeration order: any
		// enumeration of one edge set yields the same tree.
		cur := a.Edge[e.To]
		if cur == -1 || e.Weight < edges[cur].Weight ||
			(e.Weight == edges[cur].Weight && e.From < edges[cur].From) {
			a.Edge[e.To] = i
			a.Parent[e.To] = e.From
		}
	}
	for v := 0; v < n; v++ {
		if v != root && a.Edge[v] == -1 {
			return nil, ErrUnreachable
		}
	}
	// Verify the selection is a tree (reaches root without cycles).
	state := make([]int, n)
	for v := 0; v < n; v++ {
		u := v
		var path []int
		for u != root && state[u] == 0 {
			state[u] = 1
			path = append(path, u)
			u = a.Parent[u]
		}
		if u != root && state[u] == 1 {
			return nil, ErrCyclicSelection
		}
		for _, p := range path {
			state[p] = 2
		}
	}
	for v := 0; v < n; v++ {
		if v != root {
			a.Total += edges[a.Edge[v]].Weight
		}
	}
	return a, nil
}

// Children returns the tree's child lists indexed by vertex, in increasing
// child order. Useful for DFS traversals of the partial-sums order.
func (a *Arborescence) Children() [][]int {
	kids := make([][]int, len(a.Parent))
	for v, p := range a.Parent {
		if p >= 0 {
			kids[p] = append(kids[p], v)
		}
	}
	return kids
}

// Validate checks that the arborescence spans all n vertices: exactly one
// parent per non-root vertex and every vertex reaches the root.
func (a *Arborescence) Validate() error {
	n := len(a.Parent)
	if a.Root < 0 || a.Root >= n {
		return errors.New("mst: root out of range")
	}
	if a.Parent[a.Root] != -1 {
		return errors.New("mst: root has a parent")
	}
	for v := 0; v < n; v++ {
		if v == a.Root {
			continue
		}
		if a.Parent[v] < 0 || a.Parent[v] >= n {
			return errors.New("mst: vertex lacks a valid parent")
		}
	}
	// Every vertex must reach the root in <= n steps.
	for v := 0; v < n; v++ {
		u := v
		for steps := 0; u != a.Root; steps++ {
			if steps > n {
				return errors.New("mst: cycle detected")
			}
			u = a.Parent[u]
		}
	}
	return nil
}
