package linalg

import (
	"fmt"
	"math"
	"sort"
)

// SymEig computes the eigendecomposition of a small symmetric matrix a via
// the cyclic Jacobi rotation method: a = v * diag(w) * v^T with eigenvalues
// w sorted in decreasing order and orthonormal eigenvector columns in v.
// The input is not modified. Intended for the r x r Rayleigh-Ritz matrices
// of the truncated SVD (r is the low rank, typically <= a few hundred).
func SymEig(a *Dense) (w []float64, v *Dense) {
	n := a.Rows()
	if a.Cols() != n {
		panic(fmt.Sprintf("linalg: SymEig needs a square matrix, got %dx%d", n, a.Cols()))
	}
	m := a.Copy()
	v = Identity(n)

	const maxSweeps = 60
	for sweep := 0; sweep < maxSweeps; sweep++ {
		// float64(x*y) is the Go spec's explicit rounding: it forbids fusing
		// the product into a multiply-add, so arm64 rounds as amd64 does.
		off := 0.0
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				off += float64(m.At(i, j) * m.At(i, j))
			}
		}
		if off < 1e-28*float64(n*n) {
			break
		}
		for p := 0; p < n-1; p++ {
			for q := p + 1; q < n; q++ {
				apq := m.At(p, q)
				if math.Abs(apq) < 1e-300 {
					continue
				}
				app, aqq := m.At(p, p), m.At(q, q)
				theta := (aqq - app) / (2 * apq)
				t := math.Copysign(1, theta) / (math.Abs(theta) + math.Sqrt(float64(theta*theta)+1))
				c := 1 / math.Sqrt(float64(t*t)+1)
				s := t * c
				// Apply the rotation to rows/cols p and q of m.
				for k := 0; k < n; k++ {
					akp, akq := m.At(k, p), m.At(k, q)
					m.Set(k, p, float64(c*akp)-float64(s*akq))
					m.Set(k, q, float64(s*akp)+float64(c*akq))
				}
				for k := 0; k < n; k++ {
					apk, aqk := m.At(p, k), m.At(q, k)
					m.Set(p, k, float64(c*apk)-float64(s*aqk))
					m.Set(q, k, float64(s*apk)+float64(c*aqk))
				}
				// Accumulate eigenvectors.
				for k := 0; k < n; k++ {
					vkp, vkq := v.At(k, p), v.At(k, q)
					v.Set(k, p, float64(c*vkp)-float64(s*vkq))
					v.Set(k, q, float64(s*vkp)+float64(c*vkq))
				}
			}
		}
	}

	w = make([]float64, n)
	for i := 0; i < n; i++ {
		w[i] = m.At(i, i)
	}
	// Sort eigenpairs by decreasing eigenvalue.
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(i, j int) bool { return w[idx[i]] > w[idx[j]] })
	ws := make([]float64, n)
	vs := NewDense(n, n)
	for newCol, oldCol := range idx {
		ws[newCol] = w[oldCol]
		for i := 0; i < n; i++ {
			vs.Set(i, newCol, v.At(i, oldCol))
		}
	}
	return ws, vs
}
