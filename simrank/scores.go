package simrank

import (
	"io"
	"sort"

	"oipsr/internal/simmat"
)

// Scores holds the all-pairs similarity matrix produced by Compute, backed
// either by a dense matrix or — when Options.BlockSize selected the tiled
// backend — by tiled storage with a bounded working set.
type Scores struct {
	src simmat.Source
}

// Ranked is one entry of a top-k result.
type Ranked struct {
	Vertex int
	Score  float64
}

// N returns the number of vertices.
func (s *Scores) N() int { return s.src.N() }

// Score returns s(a, b).
func (s *Scores) Score(a, b int) float64 { return s.src.At(a, b) }

// Row returns the similarity row s(a, *). When the scores are a plain
// dense matrix (psum-SR, naive, P-Rank, ...) the slice aliases internal
// storage and must not be modified. Every other result assembles a fresh
// slice: OIP-SR and OIP-DSR scores, which are stored as the block over the
// vertices with a non-empty in-set, and the tiled backend, which reads
// tiles (and panics if a spilled tile cannot be read back — possible only
// with spill enabled on a failing disk).
func (s *Scores) Row(a int) []float64 {
	if m, ok := s.src.(*simmat.Matrix); ok {
		return m.Row(a)
	}
	row := make([]float64, s.src.N())
	if err := s.src.RowInto(a, row); err != nil {
		panic(err)
	}
	return row
}

// TopK returns the k vertices most similar to query, excluding the query
// itself, in decreasing score order with ties broken by vertex id.
func (s *Scores) TopK(query, k int) []Ranked {
	row := s.Row(query)
	idx := rankDesc(row, query)
	if k > len(idx) {
		k = len(idx)
	}
	out := make([]Ranked, k)
	for i := 0; i < k; i++ {
		out[i] = Ranked{Vertex: idx[i], Score: row[idx[i]]}
	}
	return out
}

// MaxDiff returns the max-norm distance to another score matrix of the same
// dimension, across any backend combination.
func (s *Scores) MaxDiff(other *Scores) float64 {
	if a, ok := s.src.(*simmat.Matrix); ok {
		if b, ok := other.src.(*simmat.Matrix); ok {
			return simmat.MaxDiff(a, b)
		}
	}
	d, err := simmat.MaxDiffSource(s.src, other.src)
	if err != nil {
		panic(err)
	}
	return d
}

// Bytes reports the logical storage footprint of the score matrix.
func (s *Scores) Bytes() int64 { return s.src.Bytes() }

// Close releases the resources behind tiled-backend scores (resident tiles
// and spill files). It is a no-op for the dense backend; calling it is
// always safe and always correct once the scores are no longer needed.
func (s *Scores) Close() error {
	if c, ok := s.src.(io.Closer); ok {
		return c.Close()
	}
	return nil
}

// rankDesc orders all vertices except skip by decreasing score, breaking
// ties by vertex id for determinism.
func rankDesc(row []float64, skip int) []int {
	idx := make([]int, 0, len(row)-1)
	for i := range row {
		if i != skip {
			idx = append(idx, i)
		}
	}
	sort.SliceStable(idx, func(a, b int) bool {
		if row[idx[a]] != row[idx[b]] {
			return row[idx[a]] > row[idx[b]]
		}
		return idx[a] < idx[b]
	})
	return idx
}
