// Package sparserow is the score row the serving path hands from layer to
// layer: the non-zero entries of one source's similarity vector, as sorted
// vertex ids beside their scores.
//
// A single-source answer on the graphs this repository serves has a few
// dozen non-zero scores out of thousands of vertices, and the resident walk
// index produces exactly that list. Row keeps it a list — through the
// ranker, the threshold filter and the shard wire — so nothing downstream of
// the index costs n. Every operation is the twin of one on the dense
// n-vector the row stands for (absent ids score 0), and is tested against
// it: Top is top-m selection over that vector, Above its threshold filter,
// Densify writes it out.
//
// Rows are pooled (Get / Release). Whatever outlives a Release — a cached or
// streamed response body, a ranking — must hold copies, never the row's
// slices; Top and Above return fresh slices for that reason.
package sparserow

import (
	"sort"
	"sync"
)

// Row is a sparse score vector: IDs strictly ascending, Scores[i] the score
// of vertex IDs[i], every other vertex scoring 0.
type Row struct {
	IDs    []int32
	Scores []float64
}

// Entry is one scored vertex of a ranking. simrank/query re-exports it as
// Ranked; its JSON form is the wire form of every /v1 result list.
type Entry struct {
	Vertex int     `json:"vertex"`
	Score  float64 `json:"score"`
}

var pool = sync.Pool{New: func() any { return new(Row) }}

// Get returns an empty row from the pool.
func Get() *Row {
	r := pool.Get().(*Row)
	r.Reset()
	return r
}

// Release returns rows to the pool; the caller must not touch them again.
func Release(rows ...*Row) {
	for _, r := range rows {
		pool.Put(r)
	}
}

// Len returns the number of stored entries.
func (r *Row) Len() int { return len(r.IDs) }

// Reset empties the row, keeping its memory.
func (r *Row) Reset() {
	r.IDs, r.Scores = r.IDs[:0], r.Scores[:0]
}

// Append adds one entry; id must exceed every id already stored.
func (r *Row) Append(id int32, score float64) {
	r.IDs = append(r.IDs, id)
	r.Scores = append(r.Scores, score)
}

// AppendDense adds the non-zero cells of dense, cell i as vertex base+i;
// base must exceed every id already stored.
func (r *Row) AppendDense(base int32, dense []float64) {
	for i, s := range dense {
		if s != 0 {
			r.Append(base+int32(i), s)
		}
	}
}

// Merge folds o into r, which becomes the union of the two; o is left
// untouched. The two must share no id and no memory. Runs that arrive in
// range order — every id of o above every id of r, as when the legs of a
// fleet are folded shard by shard — are appended without a comparison.
func (r *Row) Merge(o *Row) {
	if len(o.IDs) == 0 {
		return
	}
	i, j := len(r.IDs)-1, len(o.IDs)-1
	r.IDs = append(r.IDs, o.IDs...)
	r.Scores = append(r.Scores, o.Scores...)
	if i < 0 || r.IDs[i] < o.IDs[0] {
		return
	}
	// Interleaved runs: merge from the back into the room just made.
	for k := len(r.IDs) - 1; j >= 0; k-- {
		if i >= 0 && r.IDs[i] > o.IDs[j] {
			r.IDs[k], r.Scores[k] = r.IDs[i], r.Scores[i]
			i--
		} else {
			r.IDs[k], r.Scores[k] = o.IDs[j], o.Scores[j]
			j--
		}
	}
}

// Densify writes the row out as the dense vector it stands for: dst is
// cleared and every stored entry scattered into it. Every id must be below
// len(dst).
func (r *Row) Densify(dst []float64) {
	clear(dst)
	for i, id := range r.IDs {
		dst[id] = r.Scores[i]
	}
}

// Above returns the vertices of [0, n) other than skip whose score is at
// least min, in decreasing score order with ties broken by vertex id — the
// dense threshold filter over the vector the row stands for. A positive min
// costs the stored entries alone; min <= 0 also admits every absent vertex
// at score 0, so the result (and the cost) is n-sized by definition. A NaN
// min admits nothing.
func (r *Row) Above(min float64, skip, n int) []Entry {
	out := []Entry{}
	if min <= 0 {
		next := 0
		for v := 0; v < n; v++ {
			var s float64
			if next < len(r.IDs) && int(r.IDs[next]) == v {
				s = r.Scores[next]
				next++
			}
			if v != skip && s >= min {
				out = append(out, Entry{Vertex: v, Score: s})
			}
		}
	} else {
		for i, id := range r.IDs {
			if int(id) != skip && r.Scores[i] >= min {
				out = append(out, Entry{Vertex: int(id), Score: r.Scores[i]})
			}
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Score != out[j].Score {
			return out[i].Score > out[j].Score
		}
		return out[i].Vertex < out[j].Vertex
	})
	return out
}

// Top returns the m best vertices of [0, n) other than skip, in decreasing
// score order with ties broken by vertex id — top-m selection over the dense
// vector the row stands for, which is why a row with fewer than m entries is
// padded with absent vertices at score 0 in ascending id order: the dense
// selection returns exactly those, and an exact rerank must re-score exactly
// them. Vertices are offered in id order through the same bounded sorted
// tail the dense selection keeps; a gap of absent vertices is skipped whole
// once the tail is full of scores no zero can displace.
func (r *Row) Top(m, skip, n int) []Entry {
	out := make([]Entry, 0, max(m, 0))
	if m <= 0 {
		return out
	}
	zeros := func(lo, hi int) {
		for v := lo; v < hi; v++ {
			if v == skip {
				continue
			}
			if len(out) == m && out[m-1].Score >= 0 {
				return // v follows every kept vertex, so it loses the tie too
			}
			out = offer(out, m, v, 0)
		}
	}
	next := 0
	for i, id := range r.IDs {
		zeros(next, int(id))
		next = int(id) + 1
		if int(id) != skip {
			out = offer(out, m, int(id), r.Scores[i])
		}
	}
	zeros(next, n)
	return out
}

// offer is one step of the bounded selection: out holds at most m entries in
// (score desc, vertex asc) order, and (v, s) enters it if it beats the last.
func offer(out []Entry, m, v int, s float64) []Entry {
	if len(out) == m {
		last := out[m-1]
		if s < last.Score || (s == last.Score && v > last.Vertex) {
			return out
		}
		out = out[:m-1]
	}
	i := sort.Search(len(out), func(i int) bool {
		return out[i].Score < s || (out[i].Score == s && out[i].Vertex > v)
	})
	out = append(out, Entry{})
	copy(out[i+1:], out[i:])
	out[i] = Entry{Vertex: v, Score: s}
	return out
}
