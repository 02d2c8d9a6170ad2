// Package simmat provides the score-matrix storage shared by every SimRank
// engine in this repository, along with the comparison utilities the tests
// and experiments use (max-norm distance, symmetry and range checks).
//
// Two backends implement the same logical n x n matrix:
//
//   - Matrix is the dense row-major backend. All-pairs SimRank inherently
//     produces Theta(n^2) scores; engines hold two such matrices (previous
//     and next iterate). Rows are the natural unit of work — s_k(a, *) — so
//     the matrix exposes zero-copy row access.
//   - Tiled (tiled.go) stores the upper triangle as a grid of B x B tiles
//     with a bounded-memory working set and optional spill-to-disk, for
//     OIP-SR and OIP-DSR runs whose dense iterates do not fit in RAM.
//
// Expanded (expanded.go) reads either backend as an m x m block of a
// larger n x n matrix whose other rows and columns are one value on the
// diagonal and +0 elsewhere: the form of the OIP engines' results, whose
// vertices with an empty in-set need no stored row.
//
// # Canonical symmetry
//
// SimRank is symmetric by definition, but the row-oriented engines compute
// s(a,b) and s(b,a) with differently-associated floating-point sums, so the
// two roundings can differ in the last bits. To give every engine and both
// backends one well-defined answer, every sweep engine canonicalizes each
// iterate: the value computed while emitting row min(a,b) is
// authoritative. The OIP engines' dense sweep computes that value once, in
// its final pass, into the lower cell and copies it onto the upper one;
// their tiled sweep stores only the canonical triangle, which is what makes
// tiled output bit-identical to dense output for every block size and
// worker count. psum-SR and the naive engine, dense only, emit rows and
// then mirror the upper triangle onto the lower one (MirrorUpper), so they
// match the OIP engines cell for cell. Transpose turns the OIP dense
// sweep's inner sums into rows for its procedure OP.
package simmat

import (
	"fmt"
	"math"

	"oipsr/internal/par"
)

// Source is the read-only view of a score matrix shared by the dense and
// tiled backends. Row assembly goes through RowInto so callers work
// identically against zero-copy dense rows and tile-scattered storage.
type Source interface {
	// N returns the dimension.
	N() int
	// At returns the score at (i, j).
	At(i, j int) float64
	// RowInto assembles logical row i into dst (len >= n).
	RowInto(i int, dst []float64) error
	// Bytes reports the logical storage footprint of the matrix.
	Bytes() int64
}

// Matrix is a dense row-major n x n score matrix.
type Matrix struct {
	n    int
	data []float64
}

var _ Source = (*Matrix)(nil)

// New returns an all-zero n x n matrix.
func New(n int) *Matrix {
	return &Matrix{n: n, data: make([]float64, n*n)}
}

// NewIdentity returns the n x n identity, the s_0 of every iterative model.
func NewIdentity(n int) *Matrix {
	m := New(n)
	for i := 0; i < n; i++ {
		m.data[i*n+i] = 1
	}
	return m
}

// N returns the dimension.
func (m *Matrix) N() int { return m.n }

// At returns m[i,j].
func (m *Matrix) At(i, j int) float64 { return m.data[i*m.n+j] }

// Set assigns m[i,j] = v.
func (m *Matrix) Set(i, j int, v float64) { m.data[i*m.n+j] = v }

// Add increments m[i,j] by v.
func (m *Matrix) Add(i, j int, v float64) { m.data[i*m.n+j] += v }

// Row returns row i as a slice aliasing internal storage.
func (m *Matrix) Row(i int) []float64 { return m.data[i*m.n : (i+1)*m.n] }

// RowInto copies row i into dst, satisfying Source. Dense callers on hot
// paths should prefer the zero-copy Row.
func (m *Matrix) RowInto(i int, dst []float64) error {
	copy(dst, m.Row(i))
	return nil
}

// Data returns the backing slice (row-major). Intended for engines' inner
// loops; external callers should prefer At/Row.
func (m *Matrix) Data() []float64 { return m.data }

// MirrorUpper copies the upper triangle onto the lower one, making the
// matrix exactly symmetric with the row-min(a,b) value as the canonical
// score of each pair (see the package comment). The pass is pure copies —
// no arithmetic — so any work split is bit-identical; workers < 1 means
// runtime.GOMAXPROCS(0).
func (m *Matrix) MirrorUpper(workers int) {
	n := m.n
	workers = par.ResolveMax(workers, n)
	par.Do(workers, func(w int) {
		lo, hi := par.Range(n, workers, w)
		for i := lo; i < hi; i++ {
			row := m.data[i*n : i*n+i]
			for j := range row {
				row[j] = m.data[j*n+i]
			}
		}
	})
}

// transposeTile is the side of the square tiles Transpose swaps: two
// 32 x 32 tiles of float64 are 16 KiB, so a swap stays in L1.
const transposeTile = 32

// Transpose transposes the matrix in place. It swaps each tile above the
// diagonal with its mirror tile below it, and transposes the diagonal
// tiles within themselves; worker w takes the tile rows w, w+workers, ...
// (workers < 1 means runtime.GOMAXPROCS(0)). Every cell is moved, never
// computed, so the result does not depend on the split.
func (m *Matrix) Transpose(workers int) {
	n, b := m.n, transposeTile
	tiles := (n + b - 1) / b
	workers = par.ResolveMax(workers, tiles)
	par.Do(workers, func(w int) {
		for ti := w; ti < tiles; ti += workers {
			i0, i1 := ti*b, min(ti*b+b, n)
			for j0 := i0; j0 < n; j0 += b {
				j1 := min(j0+b, n)
				for i := i0; i < i1; i++ {
					row := m.data[i*n : (i+1)*n]
					for j := max(j0, i+1); j < j1; j++ {
						row[j], m.data[j*n+i] = m.data[j*n+i], row[j]
					}
				}
			}
		}
	})
}

// Fill sets every entry to v.
func (m *Matrix) Fill(v float64) {
	for i := range m.data {
		m.data[i] = v
	}
}

// Reset zeroes the matrix.
func (m *Matrix) Reset() { m.Fill(0) }

// Copy returns a deep copy.
func (m *Matrix) Copy() *Matrix {
	c := New(m.n)
	copy(c.data, m.data)
	return c
}

// Bytes reports the memory footprint of the backing array.
func (m *Matrix) Bytes() int64 { return int64(len(m.data)) * 8 }

// StateBytes reports the memory footprint of `matrices` dense n x n float64
// score matrices. It is the single definition of the n^2 "state memory"
// every engine reports, so per-engine accounting cannot drift.
func StateBytes(n, matrices int) int64 {
	return int64(matrices) * int64(n) * int64(n) * 8
}

// MaxDiff returns max_{i,j} |a[i,j] - b[i,j]|, the max-norm distance used by
// every convergence statement in the paper (Proposition 7 uses the max
// norm explicitly).
func MaxDiff(a, b *Matrix) float64 {
	if a.n != b.n {
		panic(fmt.Sprintf("simmat: dimension mismatch %d vs %d", a.n, b.n))
	}
	d := 0.0
	for i := range a.data {
		if x := math.Abs(a.data[i] - b.data[i]); x > d {
			d = x
		}
	}
	return d
}

// MaxDiffWorkers is MaxDiff computed by a pool of workers over contiguous
// blocks of the backing arrays. Max is order-independent, so the result is
// exactly MaxDiff for every worker count (workers < 1 = GOMAXPROCS).
func MaxDiffWorkers(a, b *Matrix, workers int) float64 {
	if a.n != b.n {
		panic(fmt.Sprintf("simmat: dimension mismatch %d vs %d", a.n, b.n))
	}
	workers = par.Resolve(workers)
	if workers == 1 {
		return MaxDiff(a, b)
	}
	local := make([]float64, workers)
	par.Do(workers, func(w int) {
		lo, hi := par.Range(len(a.data), workers, w)
		d := 0.0
		for i := lo; i < hi; i++ {
			if x := math.Abs(a.data[i] - b.data[i]); x > d {
				d = x
			}
		}
		local[w] = d
	})
	d := 0.0
	for _, x := range local {
		if x > d {
			d = x
		}
	}
	return d
}

// MaxDiffSource is MaxDiff over any pair of backends: rows are assembled
// through the Source interface and compared cell by cell. Max is
// order-independent, so for dense inputs the result equals MaxDiff exactly.
func MaxDiffSource(a, b Source) (float64, error) {
	if a.N() != b.N() {
		return 0, fmt.Errorf("simmat: dimension mismatch %d vs %d", a.N(), b.N())
	}
	n := a.N()
	ra, rb := make([]float64, n), make([]float64, n)
	d := 0.0
	for i := 0; i < n; i++ {
		if err := a.RowInto(i, ra); err != nil {
			return 0, err
		}
		if err := b.RowInto(i, rb); err != nil {
			return 0, err
		}
		for j := range ra {
			if x := math.Abs(ra[j] - rb[j]); x > d {
				d = x
			}
		}
	}
	return d, nil
}

// CheckSymmetric returns an error if |m[i,j] - m[j,i]| > tol anywhere.
// SimRank is symmetric by definition; engines must preserve this.
func (m *Matrix) CheckSymmetric(tol float64) error {
	for i := 0; i < m.n; i++ {
		for j := i + 1; j < m.n; j++ {
			if math.Abs(m.At(i, j)-m.At(j, i)) > tol {
				return fmt.Errorf("simmat: asymmetry at (%d,%d): %g vs %g", i, j, m.At(i, j), m.At(j, i))
			}
		}
	}
	return nil
}

// CheckRange returns an error if any entry falls outside [lo-tol, hi+tol].
// Conventional SimRank scores lie in [0, 1].
func (m *Matrix) CheckRange(lo, hi, tol float64) error {
	for i, v := range m.data {
		if v < lo-tol || v > hi+tol {
			return fmt.Errorf("simmat: entry (%d,%d) = %g outside [%g,%g]", i/m.n, i%m.n, v, lo, hi)
		}
	}
	return nil
}
