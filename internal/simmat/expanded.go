package simmat

import (
	"fmt"
	"io"
)

// Expanded is the logical n x n matrix held as an m x m block over m of
// the vertices plus one value for everything else: slot[v] in [0, m) puts
// vertex v on row and column slot[v] of the block, and a vertex outside
// the block has the row and column diag·δ — diag on the diagonal, +0
// everywhere else. The OIP engines return their scores in this form,
// because the rows and columns of the vertices with an empty in-set are
// exactly that (see the internal/core package comment), and storing them
// would cost n^2 - m^2 cells for nothing.
//
// The slot map must number the block's vertices 0..m-1 in increasing
// vertex order (monotone: u < v in the block implies slot[u] < slot[v]),
// so slot[v] <= v, which is what lets RowInto expand a row in place. A
// value outside [0, m) only says the vertex is outside the block.
type Expanded struct {
	n, m  int
	slot  []int32
	block Source
	diag  float64
}

var _ Source = (*Expanded)(nil)

// Expand returns the len(slot) x len(slot) view of block (m x m) under
// slot, with diag on the diagonal of every vertex outside the block. It
// keeps slot and block, and copies neither.
func Expand(slot []int32, block Source, diag float64) *Expanded {
	return &Expanded{n: len(slot), m: block.N(), slot: slot, block: block, diag: diag}
}

// N returns the dimension.
func (e *Expanded) N() int { return e.n }

// in reports whether slot s lies in the block.
func (e *Expanded) in(s int32) bool { return s >= 0 && int(s) < e.m }

// At returns the score at (i, j).
func (e *Expanded) At(i, j int) float64 {
	si, sj := e.slot[i], e.slot[j]
	switch {
	case e.in(si) && e.in(sj):
		return e.block.At(int(si), int(sj))
	case i == j:
		return e.diag
	}
	return 0
}

// RowInto assembles logical row i into dst (len >= n): the block row is
// read into dst[:m] and spread to its vertices from the right, which never
// overwrites a block cell before reading it because slot[v] <= v.
func (e *Expanded) RowInto(i int, dst []float64) error {
	dst = dst[:e.n]
	si := e.slot[i]
	if !e.in(si) {
		clear(dst)
		dst[i] = e.diag
		return nil
	}
	if err := e.block.RowInto(int(si), dst[:e.m]); err != nil {
		return err
	}
	for v := e.n - 1; v >= 0; v-- {
		if s := e.slot[v]; e.in(s) {
			dst[v] = dst[s]
		} else {
			dst[v] = 0
		}
	}
	return nil
}

// Bytes reports the block's storage plus the slot map.
func (e *Expanded) Bytes() int64 { return e.block.Bytes() + int64(len(e.slot))*4 }

// Close releases the block when it holds resources (a tiled block's tile
// store and spill files); it is a no-op for a dense block.
func (e *Expanded) Close() error {
	if c, ok := e.block.(io.Closer); ok {
		return c.Close()
	}
	return nil
}

// Dense assembles the full logical matrix into a dense Matrix. Intended
// for tests and small results only.
func (e *Expanded) Dense() (*Matrix, error) {
	out := New(e.n)
	for i := 0; i < e.n; i++ {
		if err := e.RowInto(i, out.Row(i)); err != nil {
			return nil, fmt.Errorf("simmat: expanding row %d: %w", i, err)
		}
	}
	return out, nil
}
