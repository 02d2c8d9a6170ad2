package walkindex

import (
	"context"
	"math/bits"
	"slices"
	"sort"
	"sync"

	"oipsr/graph"
	"oipsr/internal/par"
	"oipsr/internal/sparserow"
)

// The coalescence order: output-sensitive queries.
//
// Within one fingerprint, walkers that stand on the same vertex at the same
// step take the same edge from then on, so two walkers that share a live
// position at step t share every later position too. Sort the owned walkers
// of the fingerprint by the reversed path key (pos_K, …, pos_1, v), dead
// entries comparing as -1: the walkers standing on x at step t are exactly
// the walkers whose key starts with one particular (pos_K, …, pos_t), so
// every coalescence class is a contiguous run of the order. The first
// meeting step of two neighbours in the order is K+1 minus the length of
// their common live key prefix, and — the argument that makes a
// longest-common-prefix array work — the first meeting step of any two
// walkers is the largest such value between them, or never if any pair of
// neighbours between them never meets.
//
// forest stores that order and the neighbour meeting steps for every
// fingerprint: 6 bytes per stored walk. A query locates the source in each
// fingerprint's order by binary search on the key and walks outwards while
// neighbours still meet, touching only walkers that score — the cost is
// proportional to the answer, not to n·R·K. It is derived state:
// excluded from Equal, Save and Bytes, rebuilt by Build and Load, patched
// by Update.
type forest struct {
	// order[fp*width+i] is the store-local walker at rank i of fingerprint
	// fp's key order.
	order []int32
	// meet[fp*width+i] is the first step (1-based) at which the walkers at
	// ranks i and i+1 share a live position, 0 if they never do (and for
	// the last rank).
	meet []uint16
}

// ForestBytes returns the resident size of the coalescence order. It is
// reported beside Bytes, which keeps meaning the path storage alone.
func (ix *Index) ForestBytes() int64 {
	return int64(len(ix.forest.order))*4 + int64(len(ix.forest.meet))*2
}

// path returns the stored fingerprint-fp walk of store-local walker v.
func (ix *Index) path(v int32, fp int) []int32 {
	return ix.store.row(int(v)).walk(fp)
}

// firstMeet returns the first step (1-based) at which two walkers of one
// fingerprint share a live position, 0 if they never do. Shared positions
// form a suffix of the horizon — live ones, then the steps after a common
// death — so the scan runs backwards from the last step either walk
// reaches (past both ends they are equally dead) and stops at the first
// difference.
func firstMeet(a, b []int32) uint16 {
	var m uint16
	for t := max(len(a), len(b)) - 1; t >= 0; t-- {
		p := entry(a, t)
		if p != entry(b, t) {
			break
		}
		if p >= 0 {
			m = uint16(t + 1)
		}
	}
	return m
}

// keyLess orders two walkers of one fingerprint by (pos_K, …, pos_1, v),
// dead steps comparing as -1.
func keyLess(a []int32, va int, b []int32, vb int) bool {
	for t := max(len(a), len(b)) - 1; t >= 0; t-- {
		if x, y := entry(a, t), entry(b, t); x != y {
			return x < y
		}
	}
	return va < vb
}

// mergeMeet is the meeting step of two walkers given the meeting steps
// across the gap that separated them: the largest, or never if any is.
func mergeMeet(a, b uint16) uint16 {
	if a == 0 || b == 0 {
		return 0
	}
	return max(a, b)
}

// buildForest sorts every fingerprint of an index, in parallel
// over fingerprints (the Build worker convention).
func buildForest(ix *Index, workers int) *forest {
	width := ix.Width()
	f := &forest{order: make([]int32, ix.r*width), meet: make([]uint16, ix.r*width)}
	if width == 0 {
		return f
	}
	parts := par.ResolveMax(workers, ix.r)
	par.Do(parts, func(w int) {
		lo, hi := par.Range(ix.r, parts, w)
		s := newLeafLists(ix.n, width)
		for fp := lo; fp < hi; fp++ {
			ix.sortFingerprint(fp, f.order[fp*width:(fp+1)*width], f.meet[fp*width:(fp+1)*width], s)
		}
	})
	return f
}

// leafLists is the scratch of one sortFingerprint call: per position of
// the current step, the linked list of walkers standing there, already in
// key order. Position x lives at index x+1; index 0 collects the dead.
type leafLists struct {
	head, tail [2][]int32  // first and last walker of a position's list
	held       [2][]uint64 // bitmap of the positions that have a list
	next       []int32     // walker -> the walker after it in its list
	gap        []uint16    // walker -> its meeting step with that successor
}

func newLeafLists(n, width int) *leafLists {
	s := &leafLists{next: make([]int32, width), gap: make([]uint16, width)}
	for i := range s.head {
		s.head[i], s.tail[i] = make([]int32, n+1), make([]int32, n+1)
		s.held[i] = make([]uint64, n/64+1)
	}
	return s
}

// sortFingerprint fills ord and mt for one fingerprint by walking up the
// forest: the key order of the walkers standing on y after step t+1 is the
// concatenation, by ascending x, of the orders of the positions x that
// step onto y, so each step appends whole lists in O(1) — work
// proportional to the distinct (step, position) pairs, not to K·width.
// Two lists joined under a live y first meet there: the step is recorded
// on the seam and never changes again.
func (ix *Index) sortFingerprint(fp int, ord []int32, mt []uint16, s *leafLists) {
	clear(s.gap)
	into := 0
	join := func(y, first, last int32, step int) { // append list first..last to position y-1
		head, tail, held := s.head[into], s.tail[into], s.held[into]
		if held[y>>6]&(1<<(y&63)) == 0 {
			held[y>>6] |= 1 << (y & 63)
			head[y] = first
		} else {
			s.next[tail[y]] = first
			if y != 0 { // the dead stand together without meeting
				s.gap[tail[y]] = uint16(step)
			}
		}
		tail[y] = last
	}
	each := func(lv int, fn func(y int32)) { // held positions of a level, ascending
		for w, word := range s.held[lv] {
			for ; word != 0; word &= word - 1 {
				fn(int32(w<<6 + bits.TrailingZeros64(word)))
			}
		}
	}

	clear(s.held[into])
	for v := int32(0); int(v) < len(ord); v++ { // before step 1 every walker stands alone
		join(entry(ix.path(v, fp), 0)+1, v, v, 1)
	}
	for t := 1; t < ix.k; t++ {
		from := into
		into = 1 - into
		clear(s.held[into])
		each(from, func(x int32) {
			first := s.head[from][x]
			join(entry(ix.path(first, fp), t)+1, first, s.tail[from][x], t+1)
		})
	}
	i := 0
	each(into, func(y int32) {
		for v := s.head[into][y]; ; v = s.next[v] {
			ord[i], mt[i] = v, s.gap[v]
			i++
			if v == s.tail[into][y] {
				break
			}
		}
	})
}

// touchedPool recycles the touched-vertex lists of forest queries, so a
// served request allocates nothing for them in steady state.
var touchedPool = sync.Pool{New: func() any { return new([]int32) }}

// blockPool recycles the r*k blocks eachSource recomputes foreign sources
// into, so a shard answering for vertices it does not own allocates none
// in steady state.
var blockPool = sync.Pool{New: func() any { return new([]int32) }}

// scratchPool recycles the rows SparseRows accumulates into: every cell of
// a pooled row, up to its capacity, is zero. Working memory shared by every
// index of the process (they are sliced to the width asked for), so not part
// of any Index's Bytes.
var scratchPool = &sync.Pool{New: func() any { return new([]float64) }}

// getScratch returns a pooled all-zero row of at least width cells.
func getScratch(width int) *[]float64 {
	sp := scratchPool.Get().(*[]float64)
	if cap(*sp) < width {
		*sp = make([]float64, width)
	}
	return sp
}

// forestRow answers one source from the coalescence order: dst (one cell
// per owned vertex, all zero on entry) receives s(source, v) for every
// owned v, and the store-local ids of the cells written — every non-zero
// cell of dst, in no particular order — are appended to touched and
// returned, also beside an error. src is the source's walks and self
// its store-local id, which lies outside [0, width) for a foreign source; an
// owned source's own cell is set to exactly 1. Per target the first-meeting
// weights are added in fingerprint order and the sum is scaled by 1/R once —
// the arithmetic of the sweep, so the row is bit-identical to it. ctx is
// polled once per fingerprint.
//
// This is the only loop that walks the order. A dense caller passes its
// cleared row and drops the list (denseForestRow); a sparse one passes
// pooled scratch, gathers the listed cells and zeroes them again
// (sparseForestRow).
func (ix *Index) forestRow(ctx context.Context, src walkRow, self int, dst []float64, touched []int32) ([]int32, error) {
	f, width := ix.forest, len(dst)
	credit := func(v int32, m uint16) {
		if dst[v] == 0 {
			if ix.pow[m-1] == 0 {
				return // underflowed weight: adds nothing, must not list v twice
			}
			touched = append(touched, v)
		}
		dst[v] += ix.pow[m-1]
	}
	for fp := 0; fp < ix.r; fp++ {
		if err := ctx.Err(); err != nil {
			return touched, err
		}
		qp := src.walk(fp)
		if entry(qp, 0) < 0 {
			continue // dead before the first step: meets nobody
		}
		ord, mt := f.order[fp*width:(fp+1)*width], f.meet[fp*width:(fp+1)*width]
		// Walkers at ranks l and below precede the source, r and above
		// follow it; lm and rm are its meeting steps with those two.
		r := sort.Search(width, func(i int) bool { return !keyLess(ix.path(ord[i], fp), int(ord[i]), qp, self) })
		l := r - 1
		var lm, rm uint16
		if r < width && int(ord[r]) == self {
			// A stored source: its neighbours' steps are already known.
			rm = mt[r]
			r++
			if l >= 0 {
				lm = mt[l]
			}
		} else {
			if l >= 0 {
				lm = firstMeet(qp, ix.path(ord[l], fp))
			}
			if r < width {
				rm = firstMeet(qp, ix.path(ord[r], fp))
			}
		}
		for ; lm != 0; l-- {
			credit(ord[l], lm)
			if l == 0 {
				break
			}
			lm = mergeMeet(lm, mt[l-1])
		}
		for ; rm != 0; r++ {
			credit(ord[r], rm)
			rm = mergeMeet(rm, mt[r]) // the last rank's 0 ends the walk
		}
	}
	inv := 1 / float64(ix.r)
	for _, v := range touched {
		dst[v] *= inv
	}
	if self >= 0 && self < width {
		dst[self] = 1 // never credited: the walk outwards starts past it
		touched = append(touched, int32(self))
	}
	return touched, nil
}

// denseForestRow is forestRow for a caller that wants the dense row: dst
// arrives cleared and the touched list goes back to its pool unread.
func (ix *Index) denseForestRow(ctx context.Context, src walkRow, self int, dst []float64) error {
	tp := touchedPool.Get().(*[]int32)
	touched, err := ix.forestRow(ctx, src, self, dst, (*tp)[:0])
	*tp = touched
	touchedPool.Put(tp)
	return err
}

// sparseForestRow is forestRow for a caller that wants the answer as it is
// born: the cells it touched in a pooled scratch row (one cell per owned
// vertex, all zero when taken and again when put back, error or not) are
// sorted, appended to row under their global vertex ids, and zeroed.
func (ix *Index) sparseForestRow(ctx context.Context, src walkRow, self int, row *sparserow.Row) error {
	sp := getScratch(ix.Width())
	defer scratchPool.Put(sp)
	scratch := (*sp)[:ix.Width()]
	tp := touchedPool.Get().(*[]int32)
	touched, err := ix.forestRow(ctx, src, self, scratch, (*tp)[:0])
	if err == nil {
		slices.Sort(touched)
		for _, v := range touched {
			row.Append(int32(ix.lo)+v, scratch[v])
		}
	}
	for _, v := range touched {
		scratch[v] = 0
	}
	*tp = touched
	touchedPool.Put(tp)
	return err
}

// eachSource runs row(si, walks, store-local id) for every source of a
// batch, parallel over sources — the worker loop the dense and the sparse
// batch share. A failed row (ctx) stops its worker; the caller discards
// partial output.
func (ix *Index) eachSource(ctx context.Context, g *graph.Graph, sources []int, workers int, row func(si int, src walkRow, self int) error) error {
	parts := par.ResolveMax(workers, len(sources))
	par.Do(parts, func(w int) {
		lo, hi := par.Range(len(sources), parts, w)
		buf := blockPool.Get().(*[]int32) // recomputed block of a foreign source
		defer blockPool.Put(buf)
		for si := lo; si < hi; si++ {
			q := sources[si]
			src := ix.sourceRow(g, q, *buf)
			if !ix.Owns(q) {
				*buf = src.data
			}
			if row(si, src, q-ix.lo) != nil {
				return
			}
		}
	})
	return ctx.Err()
}

// SparseRows is MultiSource returning each row as its non-zero entries, keyed
// by global vertex id: out[i] lists, ascending, every owned v with
// s(sources[i], v) != 0 — an owned source's own (q, 1) included — and its
// scores are the dense row's, bit for bit. The entries are gathered from
// the cells forestRow touched in a pooled scratch row, so no width-sized
// vector is written or scanned per source. The rows come from sparserow's
// pool and are the caller's to release; on error none are returned.
func (ix *Index) SparseRows(ctx context.Context, g *graph.Graph, sources []int, workers int) ([]*sparserow.Row, error) {
	out := make([]*sparserow.Row, len(sources))
	for i := range out {
		out[i] = sparserow.Get()
	}
	err := ctx.Err()
	if len(sources) > 0 && ix.Width() > 0 {
		err = ix.eachSource(ctx, g, sources, workers, func(si int, src walkRow, self int) error {
			return ix.sparseForestRow(ctx, src, self, out[si])
		})
	}
	if err != nil {
		sparserow.Release(out...)
		return nil, err
	}
	return out, nil
}

// patch moves the walkers whose paths Update just repaired to their new
// ranks. walks are the repaired store-local walk ids, ascending. Per
// touched fingerprint the moved walkers are taken out — the segments
// between them close up and the meeting steps across each hole merge — and
// each is re-inserted where a key search over the unmoved walkers (whose
// keys did not change) puts it, with fresh meeting steps for its two new
// neighbours. The key order is total, so the patched structure is the one
// a rebuild produces, entry for entry.
func (f *forest) patch(ix *Index, walks []int32, workers int) {
	width := ix.Width()
	byFP := make([][]int32, ix.r) // moved walkers per fingerprint
	var fps []int
	for _, walk := range walks {
		fp := int(walk) % ix.r
		if byFP[fp] == nil {
			fps = append(fps, fp)
		}
		byFP[fp] = append(byFP[fp], walk/int32(ix.r))
	}
	parts := par.ResolveMax(workers, len(fps))
	par.Do(parts, func(w int) {
		lo, hi := par.Range(len(fps), parts, w)
		moved := make([]bool, width)
		var holes []int
		var ins []insertion
		for _, fp := range fps[lo:hi] {
			ord, mt := f.order[fp*width:(fp+1)*width], f.meet[fp*width:(fp+1)*width]
			mv := byFP[fp]

			// Take the moved walkers out, found by their marks: their paths
			// have already changed, so their old keys are gone.
			for _, v := range mv {
				moved[v] = true
			}
			holes = holes[:0]
			for i, v := range ord {
				if moved[v] {
					holes = append(holes, i)
					moved[v] = false
				}
			}
			kept := holes[0]
			for h, hole := range holes {
				if kept > 0 {
					mt[kept-1] = mergeMeet(mt[kept-1], mt[hole])
				}
				end := width
				if h+1 < len(holes) {
					end = holes[h+1]
				}
				copy(mt[kept:], mt[hole+1:end])
				kept += copy(ord[kept:], ord[hole+1:end])
			}

			// Each moved walker goes back in after the kept walkers its key
			// search counts before it; those sharing a gap sort by key.
			ins = ins[:0]
			for _, v := range mv {
				key := ix.path(v, fp)
				ins = append(ins, insertion{v, sort.Search(kept, func(i int) bool {
					return !keyLess(ix.path(ord[i], fp), int(ord[i]), key, int(v))
				})})
			}
			slices.SortFunc(ins, func(a, b insertion) int {
				if a.rank != b.rank {
					return a.rank - b.rank
				}
				if keyLess(ix.path(a.v, fp), int(a.v), ix.path(b.v, fp), int(b.v)) {
					return -1
				}
				return 1
			})

			// Open the gaps from the back: the kept walkers between two
			// insertion points shift right together.
			for j, end := len(ins)-1, kept; j >= 0; j-- {
				r := ins[j].rank
				copy(mt[r+j+1:], mt[r:end])
				copy(ord[r+j+1:], ord[r:end])
				ord[r+j] = ins[j].v
				end = r
			}
			for j, in := range ins {
				for i := max(in.rank+j-1, 0); i <= in.rank+j; i++ { // the walker before in.v, and in.v
					mt[i] = 0
					if i+1 < width {
						mt[i] = firstMeet(ix.path(ord[i], fp), ix.path(ord[i+1], fp))
					}
				}
			}
		}
	})
}

// insertion is a moved walker and the number of kept walkers before it.
type insertion struct {
	v    int32
	rank int
}
