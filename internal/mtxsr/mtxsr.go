// Package mtxsr implements mtx-SR, the SVD-based SimRank approximation of
// Li et al. (EDBT 2010), the paper's matrix-form baseline [14].
//
// Starting from the series form S = (1-C) sum_i C^i Q^i (Q^T)^i (Eq. 12)
// and a rank-r truncated SVD Q ~ U S V^T, powers collapse through the small
// matrix W = S V^T U:
//
//	Q^i (Q^T)^i ~ U W^(i-1) S^2 (W^T)^(i-1) U^T   (i >= 1)
//
// so S ~ (1-C) (I + C * U M U^T) where M is the r x r fixed point of
// M = S^2 + C W M W^T. The heavy objects are U (n x r) and the final
// materialization; this is why the paper finds mtx-SR at least an order of
// magnitude more memory-hungry than the partial-sums family and only usable
// on low-rank graphs like DBLP (its SVD "destroys the sparsity of a graph").
//
// The truncation error is uncontrolled on general digraphs — the paper
// points out the approximation-error bound is unknown for digraphs — so the
// package reports the achieved fixed-point residual but makes no accuracy
// promise beyond rank = n, where it recovers Eq. 12 exactly.
package mtxsr

import (
	"fmt"
	"math"
	"time"

	"oipsr/graph"
	"oipsr/internal/linalg"
	"oipsr/internal/par"
	"oipsr/internal/simmat"
)

// Options configure an mtx-SR run.
type Options struct {
	// C is the damping factor in (0,1). Defaults to 0.6.
	C float64
	// Rank is the SVD truncation rank r. Defaults to ceil(sqrt(n)), the
	// low-rank regime Li et al. target.
	Rank int
	// PowerIters is the number of subspace-iteration rounds. Defaults to 8.
	PowerIters int
	// SolveTol is the max-norm tolerance for the M fixed point. Defaults to
	// 1e-12.
	SolveTol float64
	// Seed seeds the randomized SVD start block.
	Seed int64
	// Workers sets the worker-pool size for the dense linear algebra
	// (operator applies, matmuls, the output materialization): 1 means
	// serial, anything below 1 means all CPUs. Scores are bit-identical for
	// every worker count — workers own disjoint output rows and the per-row
	// arithmetic does not depend on the partition.
	Workers int
}

// Stats reports phase times and the memory that makes mtx-SR explode
// relative to the partial-sums algorithms.
type Stats struct {
	Rank       int
	SVDTime    time.Duration
	SolveTime  time.Duration
	SolveIters int
	Residual   float64 // final fixed-point residual of M
	AuxBytes   int64   // U, V, M, W and scratch (excludes the output matrix)
}

type qOperator struct {
	g       *graph.Graph
	workers int
}

func (q qOperator) Dims() (int, int) {
	n := q.g.NumVertices()
	return n, n
}

// Apply computes dst = Q*x: row i of dst is the average of x's rows over
// I(i). Rows are independent, so the worker partition cannot change the
// result.
func (q qOperator) Apply(x, dst *linalg.Dense) {
	n := q.g.NumVertices()
	k := x.Cols()
	workers := par.ResolveMax(q.workers, n)
	par.Do(workers, func(w int) {
		lo, hi := par.Range(n, workers, w)
		for i := lo; i < hi; i++ {
			drow := dst.Row(i)
			for j := 0; j < k; j++ {
				drow[j] = 0
			}
			in := q.g.In(i)
			if len(in) == 0 {
				continue
			}
			inv := 1 / float64(len(in))
			for _, u := range in {
				xrow := x.Row(u)
				for j := 0; j < k; j++ {
					drow[j] += xrow[j]
				}
			}
			for j := 0; j < k; j++ {
				drow[j] *= inv
			}
		}
	})
}

// ApplyT computes dst = Q^T*x: dst[j] = sum over i in O(j) of x[i]/|I(i)|.
// Rows of dst are independent, as in Apply.
func (q qOperator) ApplyT(x, dst *linalg.Dense) {
	n := q.g.NumVertices()
	k := x.Cols()
	workers := par.ResolveMax(q.workers, n)
	par.Do(workers, func(w int) {
		lo, hi := par.Range(n, workers, w)
		for j := lo; j < hi; j++ {
			drow := dst.Row(j)
			for c := 0; c < k; c++ {
				drow[c] = 0
			}
			for _, i := range q.g.Out(j) {
				inv := 1 / float64(q.g.InDegree(i))
				xrow := x.Row(i)
				// float64(...) forbids a multiply-add, so arm64
				// rounds as amd64 does.
				for c := 0; c < k; c++ {
					drow[c] += float64(inv * xrow[c])
				}
			}
		}
	})
}

// Compute runs mtx-SR and returns the approximate similarity matrix.
func (o *Options) normalize(n int) error {
	if o.C == 0 {
		o.C = 0.6
	}
	if !(o.C > 0 && o.C < 1) {
		return fmt.Errorf("mtxsr: damping factor %v outside (0,1)", o.C)
	}
	if o.Rank == 0 {
		o.Rank = int(math.Ceil(math.Sqrt(float64(n))))
	}
	if o.Rank < 1 || o.Rank > n {
		return fmt.Errorf("mtxsr: rank %d out of range [1,%d]", o.Rank, n)
	}
	if o.PowerIters == 0 {
		o.PowerIters = 8
	}
	if o.SolveTol == 0 {
		o.SolveTol = 1e-12
	}
	return nil
}

// Compute runs mtx-SR on g.
func Compute(g *graph.Graph, opt Options) (*simmat.Matrix, *Stats, error) {
	n := g.NumVertices()
	if err := opt.normalize(n); err != nil {
		return nil, nil, err
	}
	st := &Stats{Rank: opt.Rank}

	t0 := time.Now()
	svd, err := linalg.TruncatedSVDWorkers(qOperator{g, opt.Workers}, opt.Rank, opt.PowerIters, opt.Seed, opt.Workers)
	if err != nil {
		return nil, nil, err
	}
	st.SVDTime = time.Since(t0)

	r := opt.Rank
	// W = diag(sigma) V^T U.
	t1 := time.Now()
	vtU := linalg.MulWorkers(svd.V.T(), svd.U, opt.Workers)
	w := linalg.NewDense(r, r)
	for i := 0; i < r; i++ {
		si := svd.Sigma[i]
		for j := 0; j < r; j++ {
			w.Set(i, j, si*vtU.At(i, j))
		}
	}
	// Fixed point M = Sigma^2 + C W M W^T.
	sigma2 := linalg.NewDense(r, r)
	for i := 0; i < r; i++ {
		sigma2.Set(i, i, svd.Sigma[i]*svd.Sigma[i])
	}
	m := sigma2.Copy()
	const maxSolveIters = 500
	for it := 0; it < maxSolveIters; it++ {
		next := linalg.Mul(linalg.Mul(w, m), w.T()).Scale(opt.C).AddInPlace(sigma2)
		st.Residual = linalg.MaxAbsDiff(next, m)
		m = next
		st.SolveIters = it + 1
		if st.Residual <= opt.SolveTol {
			break
		}
		if math.IsNaN(st.Residual) || st.Residual > 1e9 {
			return nil, nil, fmt.Errorf("mtxsr: fixed-point iteration diverged (residual %g after %d iters); graph is not low-rank enough", st.Residual, it+1)
		}
	}

	// S = (1-C) (I + C U M U^T). The materialization is the n^2 r hot loop;
	// output rows are disjoint, so it parallelizes bit-identically.
	um := linalg.MulWorkers(svd.U, m, opt.Workers) // n x r
	out := simmat.New(n)
	cf := (1 - opt.C) * opt.C
	workers := par.ResolveMax(opt.Workers, n)
	par.Do(workers, func(w int) {
		lo, hi := par.Range(n, workers, w)
		for i := lo; i < hi; i++ {
			umRow := um.Row(i)
			orow := out.Row(i)
			for j := 0; j < n; j++ {
				ujRow := svd.U.Row(j)
				dot := 0.0
				for k := 0; k < r; k++ {
					dot += float64(umRow[k] * ujRow[k]) // no multiply-add
				}
				orow[j] = cf * dot
			}
			orow[i] += 1 - opt.C
		}
	})
	st.SolveTime = time.Since(t1)
	st.AuxBytes = svd.U.Bytes() + svd.V.Bytes() + int64(r)*8 +
		w.Bytes() + m.Bytes() + sigma2.Bytes() + um.Bytes()
	return out, st, nil
}
