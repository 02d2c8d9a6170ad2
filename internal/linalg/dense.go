// Package linalg provides the dense linear algebra the mtx-SR baseline
// (Li et al., EDBT 2010 — reference [14] of the paper) is built on: dense
// matrices, thin Householder QR, a cyclic Jacobi symmetric eigensolver, and
// truncated SVD of sparse operators via subspace iteration with
// Rayleigh-Ritz extraction.
//
// Everything is implemented from scratch on float64 slices; matrices are
// row-major. The package is deliberately small: it contains exactly the
// operations the SVD-based SimRank approximation needs, implemented
// straightforwardly and validated against explicit oracles in the tests.
package linalg

import (
	"fmt"

	"oipsr/internal/par"
)

// Dense is a dense row-major rows x cols matrix.
type Dense struct {
	rows, cols int
	data       []float64
}

// NewDense returns a zero rows x cols matrix.
func NewDense(rows, cols int) *Dense {
	if rows < 0 || cols < 0 {
		panic(fmt.Sprintf("linalg: invalid dimensions %dx%d", rows, cols))
	}
	return &Dense{rows: rows, cols: cols, data: make([]float64, rows*cols)}
}

// Rows returns the row count.
func (m *Dense) Rows() int { return m.rows }

// Cols returns the column count.
func (m *Dense) Cols() int { return m.cols }

// At returns m[i,j].
func (m *Dense) At(i, j int) float64 { return m.data[i*m.cols+j] }

// Set assigns m[i,j] = v.
func (m *Dense) Set(i, j int, v float64) { m.data[i*m.cols+j] = v }

// Row returns row i aliasing internal storage.
func (m *Dense) Row(i int) []float64 { return m.data[i*m.cols : (i+1)*m.cols] }

// Copy returns a deep copy.
func (m *Dense) Copy() *Dense {
	c := NewDense(m.rows, m.cols)
	copy(c.data, m.data)
	return c
}

// Bytes reports the backing array's memory footprint.
func (m *Dense) Bytes() int64 { return int64(len(m.data)) * 8 }

// T returns the transpose as a new matrix.
func (m *Dense) T() *Dense {
	t := NewDense(m.cols, m.rows)
	for i := 0; i < m.rows; i++ {
		for j := 0; j < m.cols; j++ {
			t.Set(j, i, m.At(i, j))
		}
	}
	return t
}

// Mul returns a*b. Panics on dimension mismatch.
func Mul(a, b *Dense) *Dense { return MulWorkers(a, b, 1) }

// MulWorkers returns a*b with output rows computed in parallel across the
// given worker-pool size (par.Resolve semantics: < 1 means all CPUs). Each
// output row depends on one row of a and all of b, both read-only, and the
// per-row accumulation order is independent of the partition — results are
// bit-identical to the serial product for every worker count. Panics on
// dimension mismatch.
func MulWorkers(a, b *Dense, workers int) *Dense {
	if a.cols != b.rows {
		panic(fmt.Sprintf("linalg: Mul dimension mismatch %dx%d * %dx%d", a.rows, a.cols, b.rows, b.cols))
	}
	c := NewDense(a.rows, b.cols)
	w := par.ResolveMax(workers, a.rows)
	par.Do(w, func(id int) {
		lo, hi := par.Range(a.rows, w, id)
		for i := lo; i < hi; i++ {
			arow := a.Row(i)
			crow := c.Row(i)
			for k, av := range arow {
				if av == 0 {
					continue
				}
				brow := b.Row(k)
				// float64(...) forbids a multiply-add (see jacobi.go).
				for j, bv := range brow {
					crow[j] += float64(av * bv)
				}
			}
		}
	})
	return c
}

// Identity returns the n x n identity matrix.
func Identity(n int) *Dense {
	m := NewDense(n, n)
	for i := 0; i < n; i++ {
		m.Set(i, i, 1)
	}
	return m
}

// Scale multiplies every entry in place and returns the receiver.
func (m *Dense) Scale(s float64) *Dense {
	for i := range m.data {
		m.data[i] *= s
	}
	return m
}

// AddInPlace adds b entrywise into m. Panics on dimension mismatch.
func (m *Dense) AddInPlace(b *Dense) *Dense {
	if m.rows != b.rows || m.cols != b.cols {
		panic("linalg: AddInPlace dimension mismatch")
	}
	for i := range m.data {
		m.data[i] += b.data[i]
	}
	return m
}

// MaxAbsDiff returns the max-norm distance between two equally-sized
// matrices.
func MaxAbsDiff(a, b *Dense) float64 {
	if a.rows != b.rows || a.cols != b.cols {
		panic("linalg: MaxAbsDiff dimension mismatch")
	}
	d := 0.0
	for i := range a.data {
		x := a.data[i] - b.data[i]
		if x < 0 {
			x = -x
		}
		if x > d {
			d = x
		}
	}
	return d
}
