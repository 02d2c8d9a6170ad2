// Package psum implements psum-SR, the Lizorkin et al. algorithm the paper
// treats as the state of the art (reference [16]): SimRank iteration with
// partial sums memoization (Eqs. 4-5) but without any sharing across
// different in-neighbor sets.
//
// For every vertex a it materializes Partial_{I(a)}(y) = sum_{x in I(a)}
// s_k(x, y) once per iteration and reuses it for all second arguments b,
// bringing the naive O(K d^2 n^2) down to O(K d n^2). The package also
// implements the two auxiliary optimizations of [16] the paper mentions:
// essential-pair skipping (pairs with an empty in-neighbor set are a-priori
// zero and never touched) and threshold-sieved similarities (scores below a
// user threshold are clamped to zero, trading accuracy for fewer non-zeros).
//
// Rows are embarrassingly parallel — row a depends only on the previous
// iterate — so with Workers > 1 the row loop is split across a worker pool,
// each worker owning its own partial-sum buffer and counters. Every row's
// arithmetic is unchanged, so scores and counts are bit-identical for every
// worker count.
//
// Each iterate is canonicalized after the row barrier (the row-min(a,b)
// value is the score of both orderings; see the simmat package comment),
// the rule every engine shares, so psum-SR matches the naive oracle and the
// OIP engines cell for cell. psum-SR runs on the dense backend only: it is
// a baseline and an oracle, and the tiled backend belongs to the OIP
// engines.
package psum

import (
	"fmt"

	"oipsr/graph"
	"oipsr/internal/par"
	"oipsr/internal/simmat"
)

// Options configure a psum-SR run.
type Options struct {
	C float64 // damping factor in (0,1)
	K int     // number of iterations (>= 0)

	// Threshold enables threshold-sieved similarities: after each iteration
	// every score strictly below Threshold is set to 0. Zero disables
	// sieving (exact psum-SR).
	Threshold float64

	// Workers sets the row worker-pool size: 1 means serial, anything below
	// 1 means runtime.GOMAXPROCS(0).
	Workers int
}

// Stats reports the work an invocation performed, in the units the paper
// argues about: scalar additions spent building (inner) partial sums and
// consuming them (outer sums), plus the auxiliary memory beyond the two
// score matrices.
type Stats struct {
	Iterations  int
	InnerAdds   int64 // scalar additions building Partial_{I(a)}(.)
	OuterAdds   int64 // scalar additions summing partials over I(b)
	SievedPairs int64 // scores clamped to zero by the threshold
	AuxBytes    int64 // partial-sum buffers (one per worker)
}

// Compute runs psum-SR and returns s_K together with run statistics.
func Compute(g *graph.Graph, opt Options) (*simmat.Matrix, *Stats, error) {
	if !(opt.C > 0 && opt.C < 1) {
		return nil, nil, fmt.Errorf("psum: damping factor %v outside (0,1)", opt.C)
	}
	if opt.K < 0 {
		return nil, nil, fmt.Errorf("psum: negative iteration count %d", opt.K)
	}
	n := g.NumVertices()
	workers := par.ResolveMax(opt.Workers, n)
	st := &Stats{AuxBytes: int64(workers) * int64(n) * 8}
	prev := simmat.NewIdentity(n)
	if opt.K == 0 {
		return prev, st, nil
	}
	next := simmat.New(n)
	partials := make([][]float64, workers)
	for w := range partials {
		partials[w] = make([]float64, n)
	}
	// Reciprocal in-degrees: one multiplication instead of one division per
	// vertex pair in the inner loop.
	invDeg := make([]float64, n)
	for v := 0; v < n; v++ {
		if d := g.InDegree(v); d > 0 {
			invDeg[v] = 1 / float64(d)
		}
	}

	stats := make([]Stats, workers)
	for iter := 0; iter < opt.K; iter++ {
		st.Iterations++
		par.Do(workers, func(w int) {
			lo, hi := par.Range(n, workers, w)
			partial := partials[w]
			// Count into locals to keep the hot loops off the shared stats
			// slice (false sharing); fold in once after the row range.
			var wst Stats
			for a := lo; a < hi; a++ {
				ia := g.In(a)
				rowNext := next.Row(a)
				if len(ia) == 0 {
					// Essential-pair skipping: s(a,b) = 0 for all b != a.
					for b := range rowNext {
						rowNext[b] = 0
					}
					rowNext[a] = 1
					continue
				}
				// Memorize Partial_{I(a)}(y) for every y (Eq. 4).
				row0 := prev.Row(ia[0])
				copy(partial, row0)
				for _, x := range ia[1:] {
					rx := prev.Row(x)
					for y := range partial {
						partial[y] += rx[y]
					}
				}
				wst.InnerAdds += int64(len(ia)-1) * int64(n)

				consumeRow(g, a, opt.C, opt.Threshold, invDeg, partial, rowNext, &wst)
			}
			stats[w].InnerAdds += wst.InnerAdds
			stats[w].OuterAdds += wst.OuterAdds
			stats[w].SievedPairs += wst.SievedPairs
		})
		// Canonicalize the iterate: the row-min(a,b) value becomes the
		// score of both orderings (copies only; see package comment).
		next.MirrorUpper(workers)
		prev, next = next, prev
	}
	for w := range stats {
		st.InnerAdds += stats[w].InnerAdds
		st.OuterAdds += stats[w].OuterAdds
		st.SievedPairs += stats[w].SievedPairs
	}
	return prev, st, nil
}

// consumeRow consumes the memorized partial sums for every second argument
// b (Eq. 5), writing the full row into row.
func consumeRow(g *graph.Graph, a int, c, threshold float64, invDeg, partial, row []float64, wst *Stats) {
	n := g.NumVertices()
	scaleA := c * invDeg[a]
	for b := 0; b < n; b++ {
		if b == a {
			row[b] = 1
			continue
		}
		ib := g.In(b)
		if len(ib) == 0 {
			row[b] = 0
			continue
		}
		sum := 0.0
		for _, j := range ib {
			sum += partial[j]
		}
		wst.OuterAdds += int64(len(ib) - 1)
		v := scaleA * invDeg[b] * sum
		if threshold > 0 && v < threshold {
			if v != 0 {
				wst.SievedPairs++
			}
			v = 0
		}
		row[b] = v
	}
}
