package partition

import "oipsr/graph"

// The set operations of Section III on strictly sorted in-neighbor lists,
// and the plan's partition of one in-set (Fig. 3a): the reference the
// tests hold BuildPlan's counting pass and its difference lists to.

// SortedIntersect returns the intersection of two strictly sorted slices as
// a new sorted slice.
func SortedIntersect(a, b []int) []int {
	var out []int
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] < b[j]:
			i++
		case a[i] > b[j]:
			j++
		default:
			out = append(out, a[i])
			i++
			j++
		}
	}
	return out
}

// SortedDiff returns a \ b for strictly sorted slices as a new sorted slice.
func SortedDiff(a, b []int) []int {
	var out []int
	i, j := 0, 0
	for i < len(a) {
		switch {
		case j >= len(b) || a[i] < b[j]:
			out = append(out, a[i])
			i++
		case a[i] > b[j]:
			j++
		default:
			i++
			j++
		}
	}
	return out
}

// IntersectSize returns |a ∩ b| for strictly sorted slices.
func IntersectSize(a, b []int) int {
	n := 0
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] < b[j]:
			i++
		case a[i] > b[j]:
			j++
		default:
			n++
			i++
			j++
		}
	}
	return n
}

// SymmetricDiffSize returns |a (+) b| = |a\b| + |b\a| for strictly sorted
// slices without materializing the difference.
func SymmetricDiffSize(a, b []int) int {
	n := 0
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] < b[j]:
			n++
			i++
		case a[i] > b[j]:
			n++
			j++
		default:
			i++
			j++
		}
	}
	return n + (len(a) - i) + (len(b) - j)
}

// TransitionCost computes TC_{A->B} of Eq. 7: the number of additions needed
// to obtain Partial_B given Partial_A, i.e. min(|A (+) B|, |B|-1). It is
// meaningful for |A| <= |B| (the only direction DMST-Reduce uses); the
// formula itself is total.
func TransitionCost(a, b []int) int {
	sd := SymmetricDiffSize(a, b)
	scratch := len(b) - 1
	if scratch < sd {
		return scratch
	}
	return sd
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
