package graph

import (
	"fmt"
	"sort"
)

// EditOp selects the operation an Edit performs.
type EditOp uint8

const (
	// EditAdd inserts the directed edge U->V; a no-op if it already exists.
	EditAdd EditOp = iota
	// EditRemove deletes the directed edge U->V; a no-op if it is absent.
	EditRemove
)

// String returns "add" or "remove".
func (op EditOp) String() string {
	switch op {
	case EditAdd:
		return "add"
	case EditRemove:
		return "remove"
	}
	return fmt.Sprintf("EditOp(%d)", uint8(op))
}

// Edit is one directed-edge change in an ApplyEdits batch.
type Edit struct {
	Op   EditOp
	U, V int
}

// EditSummary describes the net effect of an ApplyEdits batch.
type EditSummary struct {
	// Added and Removed count the edges that actually changed: adds of
	// already-present edges and removes of absent edges are no-ops and do
	// not contribute.
	Added, Removed int
	// DirtyIn lists, sorted ascending, every vertex whose in-neighbor list
	// differs between the old and new graph — exactly the dirty set an
	// incremental walk-index repair (walkindex.Update) needs.
	DirtyIn []int
	// DirtyOut is the same for out-neighbor lists.
	DirtyOut []int
}

// ApplyEdits returns a new graph with the edit batch applied, leaving the
// receiver untouched. Each CSR direction is rebuilt from its sorted dirty
// list: only the dirty rows are merged with their deltas, and the rows
// between two of them are copied in one run with their offsets shifted in
// one pass. So the cost is O(|edits| log |edits|) of merging plus an
// O(n + m) copy at memory speed, regardless of how many edits are no-ops.
//
// Semantics: edits are applied in order, so within one batch the last edit
// to a given (U, V) pair wins; duplicate edits coalesce. Adding an existing
// edge or removing an absent one is a silent no-op (reported only through
// the summary counts). Self-loops may be added and removed like any other
// edge. The vertex set is fixed: edits mentioning vertices outside
// [0, NumVertices()) are rejected, as are unknown ops.
func (g *Graph) ApplyEdits(edits []Edit) (*Graph, EditSummary, error) {
	var sum EditSummary
	for i, e := range edits {
		if e.Op != EditAdd && e.Op != EditRemove {
			return nil, sum, fmt.Errorf("graph: edit %d: unknown op %v", i, e.Op)
		}
		if e.U < 0 || e.U >= g.n || e.V < 0 || e.V >= g.n {
			return nil, sum, fmt.Errorf("graph: edit %d: edge (%d, %d) outside vertex range [0,%d)", i, e.U, e.V, g.n)
		}
	}

	// Net effect per edge pair: the last edit wins.
	net := make(map[[2]int]EditOp, len(edits))
	for _, e := range edits {
		net[[2]int{e.U, e.V}] = e.Op
	}

	// Split the effective changes (those that disagree with the current
	// graph) into per-vertex deltas for each CSR direction.
	addOut := map[int][]int{} // u -> new out-neighbors
	rmOut := map[int][]int{}
	addIn := map[int][]int{} // v -> new in-neighbors
	rmIn := map[int][]int{}
	for uv, op := range net {
		u, v := uv[0], uv[1]
		has := g.HasEdge(u, v)
		switch {
		case op == EditAdd && !has:
			addOut[u] = append(addOut[u], v)
			addIn[v] = append(addIn[v], u)
			sum.Added++
		case op == EditRemove && has:
			rmOut[u] = append(rmOut[u], v)
			rmIn[v] = append(rmIn[v], u)
			sum.Removed++
		}
	}

	sum.DirtyIn = sortedKeys(addIn, rmIn)
	sum.DirtyOut = sortedKeys(addOut, rmOut)
	m2 := g.m + sum.Added - sum.Removed
	ng := &Graph{n: g.n, m: m2}
	ng.inStart, ng.inList = applyRows(g.n, m2, g.inStart, g.inList, sum.DirtyIn, addIn, rmIn)
	ng.outStart, ng.outList = applyRows(g.n, m2, g.outStart, g.outList, sum.DirtyOut, addOut, rmOut)
	return ng, sum, nil
}

// applyRows returns the offsets and list of one CSR direction of n rows
// and m edges: the rows of start and list, with each row of dirty
// (ascending) merged with its delta in add and rm, and the rows between
// two dirty vertices copied with one append, their offsets shifted in one
// pass by how far the merges so far moved them.
func applyRows(n, m int, start, list, dirty []int, add, rm map[int][]int) ([]int, []int) {
	nStart, nList := make([]int, n+1), make([]int, 0, m)
	copyRows := func(lo, hi int) { // rows lo..hi-1; nStart[lo] is set
		if lo == hi {
			return
		}
		shift := len(nList) - start[lo]
		nList = append(nList, list[start[lo]:start[hi]]...)
		src := start[lo+1 : hi+1]
		dst := nStart[lo+1 : hi+1][:len(src)]
		for i, off := range src {
			dst[i] = off + shift
		}
	}
	next := 0 // the first row not yet written
	for _, d := range dirty {
		copyRows(next, d)
		nList = appendMergedRow(nList, list[start[d]:start[d+1]], add[d], rm[d])
		nStart[d+1] = len(nList)
		next = d + 1
	}
	copyRows(next, n)
	return nStart, nList
}

// appendMergedRow appends old ∪ add ∖ rm to dst in sorted order. old is
// already sorted; add and rm are sorted in place here. add and rm are
// disjoint from each other by construction (one net op per edge pair), add
// is disjoint from old, and rm ⊆ old.
func appendMergedRow(dst, old, add, rm []int) []int {
	sort.Ints(add)
	sort.Ints(rm)
	ai, ri := 0, 0
	for _, x := range old {
		for ai < len(add) && add[ai] < x {
			dst = append(dst, add[ai])
			ai++
		}
		if ri < len(rm) && rm[ri] == x {
			ri++
			continue
		}
		dst = append(dst, x)
	}
	return append(dst, add[ai:]...)
}

// sortedKeys returns the sorted union of the key sets of two maps.
func sortedKeys(a, b map[int][]int) []int {
	keys := make([]int, 0, len(a)+len(b))
	for k := range a {
		keys = append(keys, k)
	}
	for k := range b {
		if _, dup := a[k]; !dup {
			keys = append(keys, k)
		}
	}
	sort.Ints(keys)
	return keys
}
