package linalg

import (
	"fmt"
	"math"
)

// ThinQR computes the thin QR decomposition of an m x k matrix a (m >= k):
// a = q*r with q an m x k matrix with orthonormal columns and r upper
// triangular k x k. It uses Householder reflections applied in place, the
// numerically stable choice for the subspace-iteration orthonormalization
// step of the truncated SVD.
func ThinQR(a *Dense) (q, r *Dense) {
	m, k := a.Rows(), a.Cols()
	if m < k {
		panic(fmt.Sprintf("linalg: ThinQR needs rows >= cols, got %dx%d", m, k))
	}
	work := a.Copy()
	// vs[j] stores the j-th Householder vector (length m, zero above j).
	vs := make([][]float64, k)

	// float64(...) forbids a multiply-add (see jacobi.go).
	for j := 0; j < k; j++ {
		// Build the Householder vector annihilating work[j+1:, j].
		norm := 0.0
		for i := j; i < m; i++ {
			norm += float64(work.At(i, j) * work.At(i, j))
		}
		norm = math.Sqrt(norm)
		v := make([]float64, m)
		alpha := work.At(j, j)
		if norm == 0 {
			// Zero column below the diagonal: nothing to reflect.
			vs[j] = v
			continue
		}
		if alpha > 0 {
			norm = -norm
		}
		v[j] = alpha - norm
		for i := j + 1; i < m; i++ {
			v[i] = work.At(i, j)
		}
		vnorm2 := 0.0
		for i := j; i < m; i++ {
			vnorm2 += float64(v[i] * v[i])
		}
		if vnorm2 == 0 {
			vs[j] = v
			continue
		}
		// Apply H = I - 2 v v^T / (v^T v) to work[:, j:].
		for c := j; c < k; c++ {
			dot := 0.0
			for i := j; i < m; i++ {
				dot += float64(v[i] * work.At(i, c))
			}
			f := 2 * dot / vnorm2
			for i := j; i < m; i++ {
				work.Set(i, c, work.At(i, c)-float64(f*v[i]))
			}
		}
		vs[j] = v
	}

	r = NewDense(k, k)
	for i := 0; i < k; i++ {
		for j := i; j < k; j++ {
			r.Set(i, j, work.At(i, j))
		}
	}

	// Accumulate q = H_0 H_1 ... H_{k-1} applied to the first k columns of
	// the m x m identity.
	q = NewDense(m, k)
	for j := 0; j < k; j++ {
		q.Set(j, j, 1)
	}
	for j := k - 1; j >= 0; j-- {
		v := vs[j]
		vnorm2 := 0.0
		for i := j; i < m; i++ {
			vnorm2 += float64(v[i] * v[i])
		}
		if vnorm2 == 0 {
			continue
		}
		for c := 0; c < k; c++ {
			dot := 0.0
			for i := j; i < m; i++ {
				dot += float64(v[i] * q.At(i, c))
			}
			f := 2 * dot / vnorm2
			for i := j; i < m; i++ {
				q.Set(i, c, q.At(i, c)-float64(f*v[i]))
			}
		}
	}
	return q, r
}
