// Package mst computes minimum spanning arborescences (directed minimum
// spanning trees) of weighted digraphs.
//
// The DMST-Reduce procedure of the paper (Section III-C) builds a weighted
// digraph over in-neighbor sets and extracts a directed MST rooted at a
// virtual node to obtain a topological order for partial-sums sharing. The
// paper cites Gabow et al. [7]; this package implements the classic
// Chu-Liu/Edmonds contraction algorithm (O(V*E)) plus a linear-time
// specialization for DAG inputs. partition.BuildPlan selects the same
// arborescence in one counting pass without an edge list; this package is
// the oracle its tests hold it to, over the paper's dense pair table.
package mst

import (
	"errors"
	"fmt"
)

// Edge is a weighted directed edge From -> To.
type Edge struct {
	From, To int
	Weight   float64
}

// Arborescence is a spanning tree of a digraph oriented away from Root:
// every vertex other than the root has exactly one parent.
type Arborescence struct {
	Root   int
	Parent []int // Parent[v] = u for the tree edge u->v; Parent[Root] = -1
	Edge   []int // Edge[v] = index into the input edge slice; -1 for the root
	Total  float64
}

// ErrUnreachable is returned when some vertex has no path from the root, so
// no spanning arborescence exists.
var ErrUnreachable = errors.New("mst: not all vertices reachable from root")

// Edmonds computes a minimum spanning arborescence of the digraph with n
// vertices and the given edge list, rooted at root. Self-loops are ignored.
// Parallel edges are allowed (the cheapest relevant one wins). The
// implementation is the recursive Chu-Liu/Edmonds contraction with original
// edge-identity tracking, so the returned Arborescence references input
// edges directly.
func Edmonds(n, root int, edges []Edge) (*Arborescence, error) {
	if root < 0 || root >= n {
		return nil, fmt.Errorf("mst: root %d out of range [0,%d)", root, n)
	}
	for _, e := range edges {
		if e.From < 0 || e.From >= n || e.To < 0 || e.To >= n {
			return nil, fmt.Errorf("mst: edge (%d,%d) out of range [0,%d)", e.From, e.To, n)
		}
	}
	ids := make([]int, len(edges))
	work := make([]Edge, len(edges))
	copy(work, edges)
	for i := range ids {
		ids[i] = i
	}
	chosen, err := edmondsRec(n, root, work, ids)
	if err != nil {
		return nil, err
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
	for _, id := range chosen {
		e := edges[id]
		a.Parent[e.To] = e.From
		a.Edge[e.To] = id
		a.Total += e.Weight
	}
	return a, nil
}

// edmondsRec solves the problem on the current contracted graph. ids[i]
// carries the original edge index of work edge i through contractions. It
// returns the original indices of the chosen arborescence edges.
func edmondsRec(n, root int, edges []Edge, ids []int) ([]int, error) {
	const none = -1

	// 1. Cheapest incoming edge for every non-root vertex.
	bestEdge := make([]int, n)
	for v := range bestEdge {
		bestEdge[v] = none
	}
	for i, e := range edges {
		if e.From == e.To || e.To == root {
			continue
		}
		if bestEdge[e.To] == none || e.Weight < edges[bestEdge[e.To]].Weight {
			bestEdge[e.To] = i
		}
	}
	for v := 0; v < n; v++ {
		if v != root && bestEdge[v] == none {
			return nil, ErrUnreachable
		}
	}

	// 2. Detect cycles among the selected in-edges.
	comp := make([]int, n) // contracted component id, or -1 until assigned
	state := make([]int, n)
	for v := range comp {
		comp[v] = none
	}
	nComp := 0
	for v := 0; v < n; v++ {
		if state[v] != 0 {
			continue
		}
		// Walk parents until hitting the root, a visited vertex, or a cycle.
		path := []int{}
		u := v
		for u != root && state[u] == 0 {
			state[u] = 1 // on current path
			path = append(path, u)
			u = edges[bestEdge[u]].From
		}
		if u != root && state[u] == 1 {
			// Found a new cycle; u is on the current path.
			cid := nComp
			nComp++
			w := u
			for {
				comp[w] = cid
				w = edges[bestEdge[w]].From
				if w == u {
					break
				}
			}
		}
		for _, p := range path {
			state[p] = 2
		}
	}

	if nComp == 0 {
		// No cycles: the selected edges form the optimum arborescence.
		chosen := make([]int, 0, n-1)
		for v := 0; v < n; v++ {
			if v != root {
				chosen = append(chosen, ids[bestEdge[v]])
			}
		}
		return chosen, nil
	}

	// 3. Contract: cycle vertices keep their cycle component id; all other
	// vertices get fresh ids after the cycle ids.
	for v := 0; v < n; v++ {
		if comp[v] == none {
			comp[v] = nComp
			nComp++
		}
	}
	newRoot := comp[root]

	// 4. Rebuild edges between components. For an edge entering a contracted
	// cycle at vertex t, the adjusted weight is w - weight(bestEdge[t]):
	// choosing it means discarding the cycle's own in-edge at t.
	var (
		newEdges []Edge
		newIDs   []int
		enters   []int // for each new edge, the original entry vertex (or -1)
	)
	// Components with more than one member are exactly the contracted cycles.
	inCycle := make([]bool, nComp)
	compSize := make([]int, nComp)
	for v := 0; v < n; v++ {
		compSize[comp[v]]++
	}
	for c, s := range compSize {
		inCycle[c] = s > 1
	}
	for i, e := range edges {
		cu, cv := comp[e.From], comp[e.To]
		if cu == cv {
			continue
		}
		w := e.Weight
		entry := -1
		if inCycle[cv] {
			w -= edges[bestEdge[e.To]].Weight
			entry = e.To
		}
		newEdges = append(newEdges, Edge{From: cu, To: cv, Weight: w})
		newIDs = append(newIDs, ids[i])
		enters = append(enters, entry)
	}

	sub, err := edmondsRec(nComp, newRoot, newEdges, newIDs)
	if err != nil {
		return nil, err
	}

	// 5. Expand: start with all cycle edges selected, then for each chosen
	// contracted edge entering a cycle at vertex t, drop the cycle edge into
	// t. Map original edge id -> entry vertex for the chosen set.
	entryOf := make(map[int]int, len(newIDs))
	for i, id := range newIDs {
		if enters[i] != -1 {
			// Multiple contracted edges can share an original id only if the
			// input had duplicate ids, which Edmonds never produces.
			entryOf[id] = enters[i]
		}
	}
	chosenSet := make(map[int]bool, len(sub))
	for _, id := range sub {
		chosenSet[id] = true
	}
	dropInEdge := make([]bool, n)
	for _, id := range sub {
		if t, ok := entryOf[id]; ok && chosenSet[id] {
			dropInEdge[t] = true
		}
	}
	var chosen []int
	chosen = append(chosen, sub...)
	for v := 0; v < n; v++ {
		if v != root && inCycle[comp[v]] && !dropInEdge[v] {
			chosen = append(chosen, ids[bestEdge[v]])
		}
	}
	return chosen, nil
}
