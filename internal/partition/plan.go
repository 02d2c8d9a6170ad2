package partition

import (
	"fmt"
	"sort"
	"unsafe"

	"oipsr/graph"
	"oipsr/internal/mst"
)

// Options configure plan construction.
type Options struct {
	// Dense builds the full O(n^2)-pair cost table exactly as the paper's
	// DMST-Reduce pseudocode does. The default (false) enumerates only pairs
	// of vertices whose in-neighbor sets overlap, which is lossless: a
	// candidate edge can only beat the from-scratch root edge when the sets
	// intersect (|A(+)B| < |B|-1 requires |A∩B| >= 1).
	Dense bool

	// PairCap bounds, per shared in-neighbor, how many co-out-neighbor pairs
	// are generated (0 = unlimited). Capping turns candidate generation from
	// Sum |O(y)|^2 into Sum |O(y)|*cap on hub-heavy graphs at the price of
	// possibly missing some sharing opportunities.
	PairCap int

	// UseEdmonds forces the general Chu-Liu/Edmonds algorithm instead of the
	// greedy DAG fast path. Both produce minimum-weight arborescences of the
	// candidate graph; greedy exploits that the candidate graph is a DAG.
	UseEdmonds bool
}

// Plan is the output of DMST-Reduce: the order in which to compute partial
// sums over the non-empty in-neighbor sets and how to derive each from an
// earlier one,
//
//	Partial_{I(v)} = Partial_{I(p)} + sum_{x in add} s(x,.) - sum_{x in sub} s(x,.)
//
// per Proposition 3 (Eq. 9), with add = I(v)\I(p) and sub = I(p)\I(v).
//
// The plan carries two views of the same MST:
//
//   - The chain view (Roots/Parent/ChainSteps/ChainDiffs): each subtree
//     linearized into its DFS preorder — the paper's Fig. 2d path
//     decomposition — used for the inner partial-sum vectors, where a
//     branching tree would pay every symmetric difference twice (apply and
//     undo on backtrack) while a direct preorder transition never costs
//     more (triangle inequality) and usually costs less.
//   - The tree view (TreeParent/TreeSteps/TreeDiffs): the arborescence
//     itself, used for the outer partial sums of procedure OP, where the
//     value at every node is a scalar that can be kept on a stack, so
//     branching costs nothing and the raw MST weight is the exact work.
type Plan struct {
	// Roots lists vertices whose partial sums start from scratch, in
	// processing order (chain view).
	Roots []int
	// Parent[v] is the chain predecessor of v, or -1 for roots and for
	// vertices with empty in-neighbor sets (which have no partial sums).
	Parent []int
	// TreeParent[v] is v's parent in the arborescence, or -1 for tree
	// roots and empty sets.
	TreeParent []int

	// ChainSteps and TreeSteps are the two views flattened into execution
	// order, so the per-iteration engines run tight loops with no stack
	// bookkeeping. Parent indexes the same slice (-1 = from scratch); for
	// ChainSteps it is always the preceding entry or -1.
	ChainSteps []Step
	TreeSteps  []Step

	// ChainDiffs and TreeDiffs hold each step's difference lists, indexed
	// like ChainSteps and TreeSteps. A from-scratch step's list is its
	// whole in-neighbor set I(v), all of it added.
	ChainDiffs, TreeDiffs Diffs

	// Chains partitions ChainSteps into its maximal sequential runs: each
	// chain starts at a from-scratch root (Parent < 0) and extends through
	// the consecutive derived steps. Chains are mutually independent — no
	// chain reads another chain's partial-sum vector, and the rows of the
	// next iterate written by distinct chains are disjoint — so they are the
	// unit of work the parallel sweep engine schedules across workers. The
	// slice is ordered by Start and covers ChainSteps exactly.
	Chains []Chain

	// NumSets is the number of non-empty in-neighbor sets (tree nodes).
	NumSets int
	// Additions is the number of vector add/subtract operations one full
	// inner partial-sums sweep costs under the chain view: |I(r)|-1 per
	// from-scratch root plus the direct symmetric difference per chain
	// edge.
	Additions int
	// TreeWeight is the raw minimum-spanning-arborescence weight — the
	// per-target cost of one outer sweep under the tree view (Additions
	// can differ because preorder transitions diff consecutive sets
	// directly).
	TreeWeight int
	// ScratchAdditions is what the same sweep costs without any sharing
	// (psum-SR): Sum over non-empty I(v) of |I(v)|-1.
	ScratchAdditions int
	// SharedEdges counts tree edges that reuse a parent (cost < scratch).
	SharedEdges int
	// AvgDiff is the paper's d_(+): the mean |I(p) (+) I(v)| over shared
	// edges, the per-set cost of the sharing sweep. 0 when nothing is shared.
	AvgDiff float64
}

// Diffs is one view's difference lists in CSR form: step i adds the rows
// IDs[Off[i]:Split[i]] and subtracts the rows IDs[Split[i]:Off[i+1]]. Off
// has one entry more than there are steps.
type Diffs struct {
	IDs   []int32
	Off   []int32
	Split []int32
}

func newDiffs(steps int) Diffs {
	return Diffs{Off: append(make([]int32, 0, steps+1), 0), Split: make([]int32, 0, steps)}
}

// At returns step i's add and sub lists as views into IDs.
func (d *Diffs) At(i int) (add, sub []int32) {
	return d.IDs[d.Off[i]:d.Split[i]], d.IDs[d.Split[i]:d.Off[i+1]]
}

// push appends the next step's lists.
func (d *Diffs) push(add, sub []int) {
	for _, x := range add {
		d.IDs = append(d.IDs, int32(x))
	}
	d.Split = append(d.Split, int32(len(d.IDs)))
	for _, x := range sub {
		d.IDs = append(d.IDs, int32(x))
	}
	d.Off = append(d.Off, int32(len(d.IDs)))
}

// Bytes reports the memory held by the plan: every array it keeps, counted
// at its length and element size (ids, offsets and split points 4 bytes
// each). Part of the "intermediate memory" OIP-SR spends beyond psum-SR
// (the paper measures this in Fig. 6d).
func (p *Plan) Bytes() int64 {
	b := int64(len(p.Roots)+len(p.Parent)+len(p.TreeParent)) * 8
	b += int64(len(p.ChainSteps)+len(p.TreeSteps)) * int64(unsafe.Sizeof(Step{}))
	b += int64(len(p.Chains)) * int64(unsafe.Sizeof(Chain{}))
	for _, d := range []*Diffs{&p.ChainDiffs, &p.TreeDiffs} {
		b += int64(len(d.IDs)+len(d.Off)+len(d.Split)) * 4
	}
	return b
}

// ShareRatio is the fraction of from-scratch additions avoided by sharing:
// 1 - Additions/ScratchAdditions (0 when there is nothing to add).
func (p *Plan) ShareRatio() float64 {
	if p.ScratchAdditions == 0 {
		return 0
	}
	return 1 - float64(p.Additions)/float64(p.ScratchAdditions)
}

// PartitionOf reports the partition P(I(v)) induced by the plan in the form
// of Fig. 3a: the reused block I(v) ∩ I(parent) (empty for roots) and the
// residual block I(v) \ I(parent) (= I(v) for roots). The sub list needed
// to undo parent-only elements is the step's ChainDiffs entry.
func (p *Plan) PartitionOf(g *graph.Graph, v int) (shared, residual []int) {
	if p.Parent[v] < 0 {
		return nil, append([]int(nil), g.In(v)...)
	}
	return SortedIntersect(g.In(v), g.In(p.Parent[v])), SortedDiff(g.In(v), g.In(p.Parent[v]))
}

// Step is one entry of a flattened plan traversal: compute the partial sums
// of Vertex either from scratch (Parent < 0) or from the partial sums of
// the step at index Parent, applying the step's ChainDiffs or TreeDiffs
// lists.
type Step struct {
	Vertex int
	Parent int32
}

// Chain is one maximal sequential run of ChainSteps: the half-open index
// range [Start, End) plus an estimated cost in scalar additions, the input
// to the parallel sweep's longest-cost-first scheduler.
type Chain struct {
	Start, End int
	// Cost estimates the scalar additions one sweep spends on this chain:
	// every vector add/sub on the inner partial-sum vector costs n scalar
	// adds, and every row emitted runs procedure OP once (roughly TreeWeight
	// + NumSets scalar operations, independent of the row).
	Cost int64
}

// Len returns the number of chain steps (= rows emitted) in the chain.
func (c Chain) Len() int { return c.End - c.Start }

// buildChains derives the Chains index from ChainSteps. A new chain begins
// at every from-scratch step; the inner cost of a step is |I(v)|-1 vector
// ops at roots and its add plus sub lists on derived steps, each worth n
// scalar additions.
func (p *Plan) buildChains(g *graph.Graph) {
	n := int64(g.NumVertices())
	emit := int64(p.TreeWeight + p.NumSets) // per-row procedure-OP estimate
	p.Chains = p.Chains[:0]
	for i := 0; i < len(p.ChainSteps); {
		j := i
		var inner int64
		for ; j < len(p.ChainSteps); j++ {
			s := p.ChainSteps[j]
			if j > i && s.Parent < 0 {
				break
			}
			inner += int64(p.ChainDiffs.Off[j+1] - p.ChainDiffs.Off[j])
			if s.Parent < 0 {
				inner-- // the first row is copied, not added
			}
		}
		p.Chains = append(p.Chains, Chain{Start: i, End: j, Cost: inner*n + int64(j-i)*emit})
		i = j
	}
}

// TrivialPlan returns the no-sharing plan: every non-empty in-neighbor set
// is a root computed from scratch. Driving the OIP engine with a trivial
// plan reproduces psum-SR exactly (the paper notes OIP-SR generalizes
// psum-SR: the trivial partition P(I(a)) = {I(a)} collapses Eq. 6 to
// Eq. 5). Used by ablation benches and by the differential engine's
// no-sharing mode.
func TrivialPlan(g *graph.Graph) *Plan {
	n := g.NumVertices()
	p := &Plan{Parent: make([]int, n), TreeParent: make([]int, n)}
	for v := 0; v < n; v++ {
		p.Parent[v] = -1
		p.TreeParent[v] = -1
		if g.InDegree(v) > 0 {
			p.NumSets++
		}
	}
	p.ChainDiffs, p.TreeDiffs = newDiffs(p.NumSets), newDiffs(p.NumSets)
	for v := 0; v < n; v++ {
		if in := g.In(v); len(in) > 0 {
			p.Roots = append(p.Roots, v)
			p.ChainSteps = append(p.ChainSteps, Step{Vertex: v, Parent: -1})
			p.TreeSteps = append(p.TreeSteps, Step{Vertex: v, Parent: -1})
			p.ChainDiffs.push(in, nil)
			p.TreeDiffs.push(in, nil)
			p.ScratchAdditions += ScratchCost(in)
		}
	}
	p.Additions = p.ScratchAdditions
	p.TreeWeight = p.ScratchAdditions
	p.buildChains(g)
	return p
}

// BuildPlan runs DMST-Reduce on g: it constructs the weighted cost graph
// over non-empty in-neighbor sets, extracts a minimum spanning arborescence
// rooted at the virtual empty set, and converts it into a Plan.
func BuildPlan(g *graph.Graph, opt Options) (*Plan, error) {
	n := g.NumVertices()

	// Tree nodes: 0 is the virtual ? root; nodes 1..k are the vertices with
	// non-empty in-neighbor sets, ranked by (in-degree, id) so that all
	// candidate edges point from lower to higher rank and the cost graph is
	// a DAG (ties in in-degree are broken by id; ARCHITECTURE.md, "The
	// paper's machinery": greedy selection on DAG-ordered cost graphs).
	var verts []int
	for v := 0; v < n; v++ {
		if g.InDegree(v) > 0 {
			verts = append(verts, v)
		}
	}
	sort.Slice(verts, func(i, j int) bool {
		di, dj := g.InDegree(verts[i]), g.InDegree(verts[j])
		if di != dj {
			return di < dj
		}
		return verts[i] < verts[j]
	})
	node := make([]int, n) // vertex -> tree node id (0 means absent)
	for i, v := range verts {
		node[v] = i + 1
	}
	nNodes := len(verts) + 1

	var edges []mst.Edge
	// Root edges: compute each set from scratch.
	for i, v := range verts {
		edges = append(edges, mst.Edge{From: 0, To: i + 1, Weight: float64(ScratchCost(g.In(v)))})
	}
	// Candidate sharing edges.
	addPair := func(a, b int) {
		// Orient by rank; only strictly beneficial edges are added.
		na, nb := node[a], node[b]
		if na > nb {
			na, nb = nb, na
			a, b = b, a
		}
		ia, ib := g.In(a), g.In(b)
		sd := SymmetricDiffSize(ia, ib)
		if sd < len(ib)-1 {
			edges = append(edges, mst.Edge{From: na, To: nb, Weight: float64(sd)})
		}
	}
	if opt.Dense {
		for i := 0; i < len(verts); i++ {
			for j := i + 1; j < len(verts); j++ {
				addPair(verts[i], verts[j])
			}
		}
	} else {
		type pair struct{ a, b int }
		seen := make(map[pair]bool)
		for y := 0; y < n; y++ {
			outs := g.Out(y)
			lim := len(outs)
			for i := 0; i < len(outs); i++ {
				jmax := lim
				if opt.PairCap > 0 && i+1+opt.PairCap < jmax {
					jmax = i + 1 + opt.PairCap
				}
				for j := i + 1; j < jmax; j++ {
					a, b := outs[i], outs[j]
					if node[a] > node[b] {
						a, b = b, a
					}
					pr := pair{a, b}
					if seen[pr] {
						continue
					}
					seen[pr] = true
					addPair(a, b)
				}
			}
		}
	}

	var arb *mst.Arborescence
	var err error
	if opt.UseEdmonds {
		arb, err = mst.Edmonds(nNodes, 0, edges)
	} else {
		arb, err = mst.GreedyAcyclic(nNodes, 0, edges)
	}
	if err != nil {
		return nil, fmt.Errorf("partition: building DMST: %w", err)
	}

	return linearize(g, verts, arb), nil
}

// linearize converts the arborescence over tree nodes (0 = the virtual ?,
// i+1 = verts[i]) into the executable plan: each root subtree is flattened
// into its DFS preorder and consecutive sets are connected by their direct
// symmetric difference. This is exactly the paper's Fig. 2d path
// decomposition, generalized to branching trees. By the triangle inequality
// |A(+)C| <= |A(+)B| + |B(+)C| a direct preorder transition never costs
// more than backtracking the tree (undoing and re-applying edge diffs), and
// between similar siblings it costs much less. A transition that would cost
// at least as much as recomputing from scratch breaks the chain instead
// (the set becomes a new from-scratch root), so every chain edge is
// strictly profitable.
func linearize(g *graph.Graph, verts []int, arb *mst.Arborescence) *Plan {
	n := g.NumVertices()
	p := &Plan{
		Parent:     make([]int, n),
		TreeParent: make([]int, n),
		ChainDiffs: newDiffs(len(verts)),
		TreeDiffs:  newDiffs(len(verts)),
		NumSets:    len(verts),
		TreeWeight: int(arb.Total),
	}
	for v := range p.Parent {
		p.Parent[v] = -1
		p.TreeParent[v] = -1
	}
	for _, v := range verts {
		p.ScratchAdditions += ScratchCost(g.In(v))
	}

	kids := arb.Children()
	// Tree view: flatten the arborescence into preorder steps with parent
	// step indices and the edge diffs.
	{
		stepOf := make([]int32, len(verts)+1)
		var stack []int
		for _, r := range kids[0] {
			stack = append(stack, r)
			for len(stack) > 0 {
				node := stack[len(stack)-1]
				stack = stack[:len(stack)-1]
				v := verts[node-1]
				parent := int32(-1)
				if pn := arb.Parent[node]; pn != 0 {
					parent = stepOf[pn]
					pv := verts[pn-1]
					p.TreeParent[v] = pv
					p.TreeDiffs.push(SortedDiff(g.In(v), g.In(pv)), SortedDiff(g.In(pv), g.In(v)))
				} else {
					p.TreeDiffs.push(g.In(v), nil)
				}
				stepOf[node] = int32(len(p.TreeSteps))
				p.TreeSteps = append(p.TreeSteps, Step{Vertex: v, Parent: parent})
				for i := len(kids[node]) - 1; i >= 0; i-- {
					stack = append(stack, kids[node][i])
				}
			}
		}
	}
	sumDiff := 0
	startFresh := func(v int) {
		p.Roots = append(p.Roots, v)
		p.ChainDiffs.push(g.In(v), nil)
		p.Additions += ScratchCost(g.In(v))
		p.ChainSteps = append(p.ChainSteps, Step{Vertex: v, Parent: -1})
	}
	// Iterative DFS preorder over each subtree hanging off the virtual root.
	var stack []int
	for _, rootNode := range kids[0] {
		prev := -1
		stack = append(stack[:0], rootNode)
		for len(stack) > 0 {
			node := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			v := verts[node-1]
			if prev < 0 {
				startFresh(v)
			} else {
				add := SortedDiff(g.In(v), g.In(prev))
				sub := SortedDiff(g.In(prev), g.In(v))
				if cost := len(add) + len(sub); cost < ScratchCost(g.In(v)) {
					p.Parent[v] = prev
					p.ChainDiffs.push(add, sub)
					p.Additions += cost
					p.SharedEdges++
					sumDiff += cost
					p.ChainSteps = append(p.ChainSteps, Step{
						Vertex: v, Parent: int32(len(p.ChainSteps) - 1),
					})
				} else {
					startFresh(v)
				}
			}
			prev = v
			// Push children in reverse so preorder visits them in order.
			for i := len(kids[node]) - 1; i >= 0; i-- {
				stack = append(stack, kids[node][i])
			}
		}
	}
	if p.SharedEdges > 0 {
		p.AvgDiff = float64(sumDiff) / float64(p.SharedEdges)
	}
	p.buildChains(g)
	return p
}
