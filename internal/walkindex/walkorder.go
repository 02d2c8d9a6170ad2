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
// forest stores that order, the neighbour meeting steps and the order's
// inverse for every fingerprint: 10 bytes per stored walk. A query finds an
// owned source's place in each fingerprint's order by its rank — no key is
// compared — and a foreign source's by binary search on the key, then walks
// outwards while neighbours still meet, touching only walkers that score:
// the cost is proportional to the answer, not to n·R·K. It is derived
// state: excluded from Equal, Save and Bytes, sorted from the graph by
// Build and by AttachGraph after a load (the walks are a pure function of
// the graph, so no stored walk is read), patched by Update, which also
// finds each moved walker's old slot by its rank instead of scanning the
// order.
type forest struct {
	// order[fp*width+i] is the store-local walker at rank i of fingerprint
	// fp's key order.
	order []int32
	// meet[fp*width+i] is the first step (1-based) at which the walkers at
	// ranks i and i+1 share a live position, 0 if they never do (and for
	// the last rank).
	meet []uint16
	// rank[fp*width+v] is store-local walker v's index in fingerprint fp's
	// order: order[fp*width+rank[fp*width+v]] == v.
	rank []int32
}

// ForestBytes returns the resident size of the coalescence order — order,
// meeting steps and ranks, 10 bytes per stored walk, 0 before a loaded
// index has its graph. It is reported beside Bytes, which keeps meaning the
// path storage alone.
func (ix *Index) ForestBytes() int64 {
	f := ix.forest
	if f == nil {
		return 0
	}
	return int64(len(f.order))*4 + int64(len(f.meet))*2 + int64(len(f.rank))*4
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

// fingerprint returns fingerprint fp's order, meeting steps and ranks.
func (f *forest) fingerprint(fp, width int) (ord []int32, mt []uint16, rk []int32) {
	lo, hi := fp*width, (fp+1)*width
	return f.order[lo:hi], f.meet[lo:hi], f.rank[lo:hi]
}

// buildForest sorts every fingerprint of an index from g, the graph its
// walks were taken on, in parallel over fingerprints (the Build worker
// convention).
func buildForest(ix *Index, g *graph.Graph, workers int) *forest {
	width := ix.Width()
	f := &forest{order: make([]int32, ix.r*width), meet: make([]uint16, ix.r*width), rank: make([]int32, ix.r*width)}
	if width == 0 {
		return f
	}
	hseed := splitmix64(uint64(ix.seed))
	parts := par.ResolveMax(workers, ix.r)
	par.Do(parts, func(w int) {
		lo, hi := par.Range(ix.r, parts, w)
		s := newLeafLists(ix.n, width)
		for fp := lo; fp < hi; fp++ {
			ord, mt, rk := f.fingerprint(fp, width)
			ix.sortFingerprint(g, hseed, fp, ord, mt, rk, s)
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

// sortFingerprint fills ord, mt and rk for one fingerprint by walking up the
// forest: the key order of the walkers standing on y after step t+1 is the
// concatenation, by ascending x, of the orders of the positions x that
// step onto y, so each step appends whole lists in O(1) — work
// proportional to the distinct (step, position) pairs, not to K·width.
// Where a list moves is the coupled move every walker on x takes, hashed
// from the graph as walkFrom does, so no stored walk is read. Two lists
// joined under a live y first meet there: the step is recorded on the seam
// and never changes again. Each walker's rank is written as it is emitted.
func (ix *Index) sortFingerprint(g *graph.Graph, hseed uint64, fp int, ord []int32, mt []uint16, rk []int32, s *leafLists) {
	move := func(x int32, t int) int32 { // where a walker on x stands after step t+1; -1 once dead
		if x < 0 {
			return -1
		}
		in := g.In(int(x))
		if len(in) == 0 {
			return -1
		}
		return int32(in[edgeChoice(hseed, fp, t, int(x), len(in))])
	}
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
	for v := int32(0); int(v) < len(ord); v++ { // before step 1 every walker stands alone on its start
		join(move(int32(ix.lo)+v, 0)+1, v, v, 1)
	}
	for t := 1; t < ix.k; t++ {
		from := into
		into = 1 - into
		clear(s.held[into])
		each(from, func(y int32) {
			join(move(y-1, t)+1, s.head[from][y], s.tail[from][y], t+1)
		})
	}
	i := 0
	each(into, func(y int32) {
		for v := s.head[into][y]; ; v = s.next[v] {
			ord[i], mt[i], rk[v] = v, s.gap[v], int32(i)
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

// scratchPool recycles the rows forestRow accumulates into: every cell of
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

// forestRow answers one source from the coalescence order, appending to
// row, ascending and under global vertex ids, every owned v with
// s(source, v) != 0. src is the source's walks and self its store-local id,
// which lies outside [0, width) for a foreign source; an owned source's own
// entry is exactly 1. Per target the first-meeting weights are added in
// fingerprint order and the sum is scaled by 1/R once — the arithmetic of
// the sweep, so the row is bit-identical to it. ctx is polled once per
// fingerprint; on error nothing is appended. An owned source is placed in
// each fingerprint's order by its rank, a foreign one by a key search.
//
// This is the only loop that walks the order, and the row is the only form
// its answer takes. The sums build up in a pooled scratch row (one cell per
// owned vertex, all zero when taken and again when put back, error or not)
// beside the list of cells touched, which are gathered in id order — so no
// width-sized vector is written or scanned per source.
func (ix *Index) forestRow(ctx context.Context, src walkRow, self int, row *sparserow.Row) error {
	f, width := ix.forest, ix.Width()
	sp := getScratch(width)
	defer scratchPool.Put(sp)
	acc := (*sp)[:width]
	tp := touchedPool.Get().(*[]int32)
	touched := (*tp)[:0]
	defer func() {
		for _, v := range touched {
			acc[v] = 0
		}
		*tp = touched
		touchedPool.Put(tp)
	}()
	credit := func(v int32, m uint16) {
		if acc[v] == 0 {
			if ix.pow[m-1] == 0 {
				return // underflowed weight: adds nothing, must not list v twice
			}
			touched = append(touched, v)
		}
		acc[v] += ix.pow[m-1]
	}
	owned := self >= 0 && self < width
	for fp := 0; fp < ix.r; fp++ {
		if err := ctx.Err(); err != nil {
			return err
		}
		qp := src.walk(fp)
		if entry(qp, 0) < 0 {
			continue // dead before the first step: meets nobody
		}
		ord, mt, rk := f.fingerprint(fp, width)
		// Walkers at ranks l and below precede the source, r and above
		// follow it; lm and rm are its meeting steps with those two.
		var l, r int
		var lm, rm uint16
		if owned {
			// A stored source: its rank places it, and its neighbours'
			// steps are already known.
			at := int(rk[self])
			l, r = at-1, at+1
			rm = mt[at]
			if l >= 0 {
				lm = mt[l]
			}
		} else {
			r = sort.Search(width, func(i int) bool { return !keyLess(ix.path(ord[i], fp), int(ord[i]), qp, self) })
			l = r - 1
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
	if owned {
		touched = append(touched, int32(self)) // never credited: the walk outwards starts past it
	}
	slices.Sort(touched)
	inv := 1 / float64(ix.r)
	for _, v := range touched {
		s := acc[v] * inv
		if int(v) == self {
			s = 1
		}
		row.Append(int32(ix.lo)+v, s)
	}
	return nil
}

// eachSource runs row(si, walks, store-local id) for every source of a
// batch, parallel over sources. A failed row (ctx) stops its worker; the
// caller discards partial output.
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

// SparseRows estimates s(q, v) for every source q in sources and every
// OWNED target v in [lo, hi), returning one row per source of its non-zero
// entries, keyed by global vertex id: out[i] lists, ascending, every owned v
// with s(sources[i], v) != 0 — an owned source's own (q, 1) included. Each
// source is answered by forestRow, in parallel over sources (1 = serial, <1
// = all CPUs), and every row is the same for every worker count: per
// (source, target) pair the same first-meeting weights are accumulated in
// the same fingerprint order and scaled by the same 1/R, so not even the
// floating-point rounding differs. On a narrower range a row is the run of
// the full-range row that falls in [lo, hi), and concatenating the rows of a
// covering set of ranges reproduces the single-node row without any merge
// arithmetic. Sources outside [lo, hi) are recomputed from g (see Index for
// when g may be nil); they must be valid vertex ids of the full graph (the
// serving layer validates), and duplicates are allowed.
//
// The rows come from sparserow's pool and are the caller's to release.
// Cancelling ctx abandons the query at the next poll (every worker polls
// between fingerprints) and returns the context's error with no rows; an
// uncancelled ctx never changes the result. A loaded index answers once
// AttachGraph has sorted its order, and refuses before.
func (ix *Index) SparseRows(ctx context.Context, g *graph.Graph, sources []int, workers int) ([]*sparserow.Row, error) {
	if ix.forest == nil {
		return nil, errNoGraph
	}
	out := make([]*sparserow.Row, len(sources))
	for i := range out {
		out[i] = sparserow.Get()
	}
	err := ctx.Err()
	if len(sources) > 0 && ix.Width() > 0 {
		err = ix.eachSource(ctx, g, sources, workers, func(si int, src walkRow, self int) error {
			return ix.forestRow(ctx, src, self, out[si])
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
// touched fingerprint the moved walkers' old slots are their ranks, so no
// slot is searched for; each moved walker's new place is where a key search
// over the kept walkers (whose keys did not change) puts it. The holes
// equal the insertions in number, so every slot outside the span from the
// first changed slot to the last one keeps its walker, and nothing outside
// it is touched. Within it the kept walkers move in runs that share a
// shift, each walker once, and are re-ranked where they land; the meeting
// steps across each run of holes merge, and every inserted walker gets
// fresh meeting steps with its neighbours. The key order is total, so the
// patched structure is the one a rebuild produces, entry for entry.
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
		var holes []int
		var ins []insertion
		var seams []seam
		var runs []run
		for _, fp := range fps[lo:hi] {
			ord, mt, rk := f.fingerprint(fp, width)
			mv := byFP[fp]
			path := func(v int32) []int32 { return ix.path(v, fp) }

			// The moved walkers' old slots. Their paths have already
			// changed, so their old keys are gone; their ranks are not. A
			// rank of -1 marks a moved walker until it is placed again.
			holes = holes[:0]
			for _, v := range mv {
				holes = append(holes, int(rk[v]))
				rk[v] = -1
			}
			slices.Sort(holes)
			m := len(holes)

			// Each moved walker goes back in after the kept walkers its key
			// search counts before it; those sharing a gap sort by key. The
			// search runs over the slots, a hole deferring to the first kept
			// walker after it, and the kept walkers before the slot it finds
			// are that slot less the holes before it.
			ins = ins[:0]
			for _, v := range mv {
				key := path(v)
				i := sort.Search(width, func(i int) bool {
					for ; i < width && rk[ord[i]] < 0; i++ {
					}
					return i == width || !keyLess(path(ord[i]), int(ord[i]), key, int(v))
				})
				ins = append(ins, insertion{v, i - sort.SearchInts(holes, i)})
			}
			slices.SortFunc(ins, func(a, b insertion) int {
				if a.rank != b.rank {
					return a.rank - b.rank
				}
				if keyLess(path(a.v), int(a.v), path(b.v), int(b.v)) {
					return -1
				}
				return 1
			})

			// The changed span [a, b): insertion j lands on slot rank+j.
			// Before a and from b on, a slot holds as many holes before it
			// as insertions, so its walker stays.
			a := min(holes[0], ins[0].rank)
			b := max(holes[m-1]+1, ins[m-1].rank+m)

			// Before anything moves: the kept walker before each run of
			// holes will meet the kept walker after the run at the largest
			// step across it, or never.
			seams = seams[:0]
			for h := 0; h < m; {
				first := h
				for h++; h < m && holes[h] == holes[h-1]+1; h++ {
				}
				if at := holes[first]; at > 0 {
					step := mt[at-1]
					for _, hole := range holes[first:h] {
						step = mergeMeet(step, mt[hole])
					}
					seams = append(seams, seam{at - 1 - first, step})
				}
			}

			// The span's kept walkers, in runs that share a shift: kept
			// walker k (k-th once the holes close) moves from slot k plus
			// the holes before it to slot k plus the insertions before it,
			// and a run ends where either count changes.
			runs = runs[:0]
			for k, h, j := a, 0, 0; k < b-m; {
				for ; h < m && holes[h]-h <= k; h++ {
				}
				for ; j < m && ins[j].rank <= k; j++ {
				}
				end := b - m
				if h < m {
					end = min(end, holes[h]-h)
				}
				if j < m {
					end = min(end, ins[j].rank)
				}
				runs = append(runs, run{from: k + h, to: k + j, n: end - k})
				k = end
			}
			// Each walker moves once: runs shifting right go from the back,
			// runs shifting left from the front, so no run overwrites one
			// still to move. A moved run is re-ranked while it is hot.
			move := func(r run) {
				copy(mt[r.to:r.to+r.n], mt[r.from:r.from+r.n])
				copy(ord[r.to:r.to+r.n], ord[r.from:r.from+r.n])
				for i := r.to; i < r.to+r.n; i++ {
					rk[ord[i]] = int32(i)
				}
			}
			for i := len(runs) - 1; i >= 0; i-- {
				if runs[i].to > runs[i].from {
					move(runs[i])
				}
			}
			for _, r := range runs {
				if r.to < r.from {
					move(r)
				}
			}
			for _, sm := range seams {
				mt[sm.k+sort.Search(m, func(j int) bool { return ins[j].rank > sm.k })] = sm.step
			}
			for j, in := range ins {
				ord[in.rank+j], rk[in.v] = in.v, int32(in.rank+j)
			}
			for j, in := range ins {
				for i := max(in.rank+j-1, 0); i <= in.rank+j; i++ { // the walker before in.v, and in.v
					mt[i] = 0
					if i+1 < width {
						mt[i] = firstMeet(path(ord[i]), path(ord[i+1]))
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

// seam is the meeting step a patch gives kept walker k (k-th once the holes
// close) with the kept walker after it.
type seam struct {
	k    int
	step uint16
}

// run is n kept walkers that a patch moves together from slot from to
// slot to.
type run struct{ from, to, n int }
