package partition

import (
	"sort"
	"unsafe"

	"oipsr/graph"
)

// Options configure plan construction. It has no fields: DMST-Reduce has
// one path, and the type stays only so that callers keep their signature.
type Options struct{}

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

// push appends the next step's lists, add = in \ from and sub = from \ in,
// merged straight into IDs, and returns their total length. A from-scratch
// step passes from = nil: its list is all of in, all of it added.
func (d *Diffs) push(in, from []int) int {
	start := len(d.IDs)
	d.IDs = appendDiff(d.IDs, in, from)
	d.Split = append(d.Split, int32(len(d.IDs)))
	d.IDs = appendDiff(d.IDs, from, in)
	d.Off = append(d.Off, int32(len(d.IDs)))
	return len(d.IDs) - start
}

// pop removes the last step's lists.
func (d *Diffs) pop() {
	last := len(d.Split) - 1
	d.IDs = d.IDs[:d.Off[last]]
	d.Off, d.Split = d.Off[:last+1], d.Split[:last]
}

// appendDiff appends a \ b, for strictly sorted a and b, to dst.
func appendDiff(dst []int32, a, b []int) []int32 {
	j := 0
	for _, x := range a {
		for j < len(b) && b[j] < x {
			j++
		}
		if j < len(b) && b[j] == x {
			j++
			continue
		}
		dst = append(dst, int32(x))
	}
	return dst
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

// BuildPlan runs DMST-Reduce on g: over the non-empty in-neighbor sets
// plus a virtual empty root it takes the minimum spanning arborescence of
// the cost graph whose edge a -> b weighs |I(a) (+) I(b)| (Eq. 7), with root
// edges weighing ScratchCost, and converts it into a Plan. The error is
// always nil.
//
// The sets are ranked by (in-degree, id) and every candidate edge points
// from a lower rank to a higher one, so the cost graph is a DAG and the
// arborescence is each set's cheapest in-edge, ties going to the lowest
// rank (ARCHITECTURE.md, "The paper's machinery"). One counting pass finds
// those edges with no pair table: b scatters |I(a) ∩ I(b)| over the
// lower-ranked sets a that share an in-neighbor y with it — read off
// lower[y], the sets of rank below b holding y, which fill up in rank
// order — and |I(a) (+) I(b)| = |I(a)| + |I(b)| - 2|I(a) ∩ I(b)|. A set
// that shares nothing with b weighs at least |I(b)|, more than its root
// edge, so the pairs it never counts are never chosen.
func BuildPlan(g *graph.Graph, _ Options) (*Plan, error) {
	n := g.NumVertices()
	var verts []int
	for v := 0; v < n; v++ {
		if g.InDegree(v) > 0 {
			verts = append(verts, v)
		}
	}
	// Rank by (in-degree, id): the sort is stable over increasing ids.
	sort.SliceStable(verts, func(i, j int) bool { return g.InDegree(verts[i]) < g.InDegree(verts[j]) })
	k := len(verts)
	// lower[off[y]:end[y]] lists, in rank order, the sets ranked below the
	// current one that hold y; every out-neighbor of y enters it once.
	off, end := make([]int32, n+1), make([]int32, n)
	for y := 0; y < n; y++ {
		off[y+1] = off[y] + int32(g.OutDegree(y))
		end[y] = off[y]
	}
	lower := make([]int32, off[n])
	cnt := make([]int32, k)
	var touched []int32
	parent := make([]int32, k)
	weight := 0
	for b, v := range verts {
		in := g.In(v)
		touched = touched[:0]
		for _, y := range in {
			for _, a := range lower[off[y]:end[y]] {
				if cnt[a] == 0 {
					touched = append(touched, a)
				}
				cnt[a]++
			}
			lower[end[y]] = int32(b)
			end[y]++
		}
		best, from := ScratchCost(in), int32(-1)
		for _, a := range touched {
			w := g.InDegree(verts[a]) + len(in) - 2*int(cnt[a])
			cnt[a] = 0
			if w < best || (w == best && from >= 0 && a < from) {
				best, from = w, a
			}
		}
		parent[b] = from
		weight += best
	}
	return linearize(g, verts, parent, weight), nil
}

// linearize converts the arborescence over verts (parent[i] is the index
// in verts of verts[i]'s tree parent, -1 for the virtual empty root;
// treeWeight its total weight) into the executable plan. Both views walk
// each root subtree in DFS preorder, children in verts order. The tree view
// keeps the arborescence's own edges. The chain view connects consecutive
// sets of the preorder by their direct symmetric difference — the paper's
// Fig. 2d path decomposition, generalized to branching trees. By the
// triangle inequality |A(+)C| <= |A(+)B| + |B(+)C| a direct preorder
// transition never costs more than backtracking the tree (undoing and
// re-applying edge diffs), and between similar siblings it costs much
// less. A transition that would cost at least as much as recomputing from
// scratch breaks the chain instead (the set becomes a new from-scratch
// root), so every chain edge is strictly profitable.
func linearize(g *graph.Graph, verts []int, parent []int32, treeWeight int) *Plan {
	n, k := g.NumVertices(), len(verts)
	p := &Plan{
		Parent:     make([]int, n),
		TreeParent: make([]int, n),
		ChainSteps: make([]Step, 0, k),
		TreeSteps:  make([]Step, 0, k),
		ChainDiffs: newDiffs(k),
		TreeDiffs:  newDiffs(k),
		NumSets:    k,
		TreeWeight: treeWeight,
	}
	for v := range p.Parent {
		p.Parent[v] = -1
		p.TreeParent[v] = -1
	}
	// Child lists as first-child / next-sibling links, first[k] holding
	// the virtual root's; linking in decreasing index order keeps each list
	// increasing.
	first, next := make([]int32, k+1), make([]int32, k)
	for i := range first {
		first[i] = -1
	}
	inSum, roots := 0, 0
	for i := k - 1; i >= 0; i-- {
		pi := int(parent[i])
		if pi < 0 {
			pi = k
			roots++
		}
		next[i], first[pi] = first[pi], int32(i)
		inSum += g.InDegree(verts[i])
	}
	// A root's tree list is its whole in-set, |I(v)| = ScratchCost + 1
	// ids; a chain step never holds more than its in-set.
	p.TreeDiffs.IDs = make([]int32, 0, treeWeight+roots)
	p.ChainDiffs.IDs = make([]int32, 0, inSum)
	p.ScratchAdditions = inSum - k

	stepOf := make([]int32, k)
	stack := make([]int32, 0, k)
	sumDiff := 0
	for r := first[k]; r >= 0; r = next[r] {
		prev := -1
		stack = append(stack[:0], r)
		for len(stack) > 0 {
			i := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			v := verts[i]
			in := g.In(v)

			tp := int32(-1)
			if pi := parent[i]; pi >= 0 {
				tp = stepOf[pi]
				p.TreeParent[v] = verts[pi]
				p.TreeDiffs.push(in, g.In(verts[pi]))
			} else {
				p.TreeDiffs.push(in, nil)
			}
			stepOf[i] = int32(len(p.TreeSteps))
			p.TreeSteps = append(p.TreeSteps, Step{Vertex: v, Parent: tp})

			shared := false
			if prev >= 0 {
				if cost := p.ChainDiffs.push(in, g.In(prev)); cost < ScratchCost(in) {
					shared = true
					p.Parent[v] = prev
					p.Additions += cost
					p.SharedEdges++
					sumDiff += cost
					p.ChainSteps = append(p.ChainSteps, Step{Vertex: v, Parent: int32(len(p.ChainSteps) - 1)})
				} else {
					p.ChainDiffs.pop()
				}
			}
			if !shared {
				p.Roots = append(p.Roots, v)
				p.ChainDiffs.push(in, nil)
				p.Additions += ScratchCost(in)
				p.ChainSteps = append(p.ChainSteps, Step{Vertex: v, Parent: -1})
			}
			prev = v
			// Preorder: i's subtree, then (below the root) its next sibling.
			if i != r && next[i] >= 0 {
				stack = append(stack, next[i])
			}
			if first[i] >= 0 {
				stack = append(stack, first[i])
			}
		}
	}
	if p.SharedEdges > 0 {
		p.AvgDiff = float64(sumDiff) / float64(p.SharedEdges)
	}
	p.buildChains(g)
	return p
}
