// Package naive implements the original Jeh-Widom SimRank iteration (Eq. 2
// of the paper) without any memoization: s_{k+1}(a,b) is computed by summing
// the previous scores of every in-neighbor pair, costing O(K d^2 n^2) time.
//
// The paper uses this algorithm both as the historical baseline and as the
// semantic ground truth: psum-SR and OIP-SR are pure computational
// reorganizations of the very same iteration and must produce identical
// scores. This package is therefore the oracle every optimized engine is
// cross-validated against. It runs on the dense backend only: the OIP
// engines' tiled runs are held to its scores through the conformance
// goldens of package simrank.
package naive

import (
	"fmt"

	"oipsr/graph"
	"oipsr/internal/par"
	"oipsr/internal/simmat"
)

// Compute runs K iterations of Eq. 2 with damping factor c and returns s_K.
// It is the serial oracle form of ComputeWorkers.
func Compute(g *graph.Graph, c float64, k int) (*simmat.Matrix, error) {
	return ComputeWorkers(g, c, k, 1)
}

// ComputeWorkers is Compute with the row loop of each iteration split
// across a worker pool (workers < 1 means runtime.GOMAXPROCS(0)). Rows are
// embarrassingly parallel — row a reads only the previous iterate — and
// each row's arithmetic is unchanged, so the result is bit-identical for
// every worker count.
func ComputeWorkers(g *graph.Graph, c float64, k, workers int) (*simmat.Matrix, error) {
	if !(c > 0 && c < 1) {
		return nil, fmt.Errorf("naive: damping factor %v outside (0,1)", c)
	}
	if k < 0 {
		return nil, fmt.Errorf("naive: negative iteration count %d", k)
	}
	n := g.NumVertices()
	workers = par.ResolveMax(workers, n)
	prev := simmat.NewIdentity(n)
	if k == 0 {
		return prev, nil
	}
	next := simmat.New(n)
	for iter := 0; iter < k; iter++ {
		par.Do(workers, func(w int) {
			lo, hi := par.Range(n, workers, w)
			step(g, c, prev, next, lo, hi)
		})
		// Canonicalize the iterate: the row-min(a,b) value becomes the
		// score of both orderings (copies only; see the simmat package
		// comment). Every engine shares this rule, so the oracle matches
		// the optimized engines cell for cell.
		next.MirrorUpper(workers)
		prev, next = next, prev
	}
	return prev, nil
}

// step computes rows [lo, hi) of one iteration of Eq. 2 from prev into next.
func step(g *graph.Graph, c float64, prev, next *simmat.Matrix, lo, hi int) {
	n := g.NumVertices()
	for a := lo; a < hi; a++ {
		ia := g.In(a)
		rowNext := next.Row(a)
		for b := 0; b < n; b++ {
			switch {
			case a == b:
				rowNext[b] = 1
			case len(ia) == 0 || g.InDegree(b) == 0:
				rowNext[b] = 0
			default:
				ib := g.In(b)
				sum := 0.0
				for _, i := range ia {
					rowPrev := prev.Row(i)
					for _, j := range ib {
						sum += rowPrev[j]
					}
				}
				rowNext[b] = c / (float64(len(ia)) * float64(len(ib))) * sum
			}
		}
	}
}
