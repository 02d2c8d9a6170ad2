package linalg

import (
	"fmt"
	"math"
	"math/rand"
)

// Operator is a matrix presented only through products with dense blocks.
// The SVD routine uses it so that sparse matrices (like the SimRank
// transition matrix Q) are never materialized.
type Operator interface {
	// Dims returns the operator's (rows, cols).
	Dims() (r, c int)
	// Apply computes dst = A*x for a cols x k block x, writing a rows x k
	// block into dst.
	Apply(x, dst *Dense)
	// ApplyT computes dst = A^T*x for a rows x k block x, writing a
	// cols x k block into dst.
	ApplyT(x, dst *Dense)
}

// SVDResult holds a truncated singular value decomposition A ~ U S V^T.
type SVDResult struct {
	U     *Dense    // rows x r, orthonormal columns (left singular vectors)
	V     *Dense    // cols x r, orthonormal columns (right singular vectors)
	Sigma []float64 // r singular values, decreasing
}

// TruncatedSVDWorkers computes the leading rank singular triplets of op
// via subspace iteration on A A^T with Rayleigh-Ritz extraction:
//
//	repeat: X <- orth(A (A^T X)); T = X^T A A^T X; rotate X by eigvecs(T)
//
// iters rounds of power iteration (8 is plenty for the damped SimRank
// series, whose accuracy is dominated by the rank cutoff rather than the
// subspace angle), seeded deterministically. The dense products are
// computed by a worker pool (par.Resolve semantics). The operator applies
// run on whatever parallelism op itself implements; results are
// bit-identical for every worker count.
func TruncatedSVDWorkers(op Operator, rank, iters int, seed int64, workers int) (*SVDResult, error) {
	rows, cols := op.Dims()
	if rank <= 0 || rank > rows || rank > cols {
		return nil, fmt.Errorf("linalg: rank %d out of range for %dx%d operator", rank, rows, cols)
	}
	if iters < 1 {
		iters = 1
	}
	rng := rand.New(rand.NewSource(seed))

	x := NewDense(rows, rank)
	for i := 0; i < rows; i++ {
		for j := 0; j < rank; j++ {
			x.Set(i, j, rng.NormFloat64())
		}
	}
	x, _ = ThinQR(x)

	tmpC := NewDense(cols, rank)
	tmpR := NewDense(rows, rank)
	for it := 0; it < iters; it++ {
		op.ApplyT(x, tmpC)   // A^T X
		op.Apply(tmpC, tmpR) // A A^T X
		x, _ = ThinQR(tmpR)
	}

	// Rayleigh-Ritz: T = (A^T X)^T (A^T X) = X^T A A^T X, eigenpairs give
	// the singular values squared and the rotation aligning X with U.
	op.ApplyT(x, tmpC) // B = A^T X  (cols x rank), B^T B = T
	t := MulWorkers(tmpC.T(), tmpC, workers)
	w, rot := SymEig(t)

	u := MulWorkers(x, rot, workers)
	sigma := make([]float64, rank)
	for i, wi := range w {
		if wi < 0 {
			wi = 0
		}
		sigma[i] = math.Sqrt(wi)
	}
	// V = A^T U diag(1/sigma); zero singular values get zero vectors.
	btu := MulWorkers(tmpC, rot, workers) // A^T X rot = A^T U
	v := NewDense(cols, rank)
	for j := 0; j < rank; j++ {
		if sigma[j] <= 1e-300 {
			continue
		}
		inv := 1 / sigma[j]
		for i := 0; i < cols; i++ {
			v.Set(i, j, btu.At(i, j)*inv)
		}
	}
	return &SVDResult{U: u, V: v, Sigma: sigma}, nil
}
