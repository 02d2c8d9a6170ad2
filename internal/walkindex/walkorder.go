package walkindex

import (
	"context"
	"math"
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
// forest stores that order, the neighbour meeting steps, each walker's key
// head and the order's inverse for every fingerprint, laid out with slack:
// the order leaves one empty slot after every gapEvery walkers, so a
// fingerprint of width walkers takes width + width/gapEvery slots. An
// empty slot holds order -1 and meeting step 1, mergeMeet's neutral
// element, and a walker's meeting step is the one with the next walker in
// key order, empty slots between them or not — so the live slots, read in
// order, are exactly what a layout without slack would store. Ten bytes a
// slot and four a walker: 14.5 bytes per stored walk.
//
// A key head is the first word of a key, 4 bytes that decide most
// comparisons without reading a stored walk: for a walker of live length
// L ≥ 1 that ends on p it is L·n + p, clamped at 2³²−1, and for a walker
// dead before step 1 its store-local id. Heads never decrease in key
// order — shorter live length first, then pos_L, and the dead before step
// 1 by id — and two walkers meet exactly when their live lengths and last
// positions agree, so walkers whose heads differ never meet, and, with L ≥
// 1 and no clamp, walkers whose heads are equal do.
//
// A query finds an owned source's place in each fingerprint's order by its
// rank — its slot, no key is compared — and a foreign source's by binary
// search on the key, stepping past empty slots and reading a stored walk
// only where the heads tie, then walks outwards while neighbours still
// meet, touching only walkers that score: the cost is proportional to the
// answer, not to n·R·K. It is derived state: excluded from Equal, Save and
// Bytes, sorted from the graph by Build and by AttachGraph after a load
// (the walks are a pure function of the graph, so no stored walk is
// read), patched by Update, which empties each moved walker's old slot,
// found by its rank, and puts the walker into an empty slot of its new
// gap, or shifts the walkers up to the nearest empty slot by one, or —
// where the neighbourhood has run dry — re-spreads the smallest window
// around the gap that has slack to spare: an edit batch writes the ranks
// of the walkers near each insertion, not of the whole fingerprint.
type forest struct {
	// order[fp*slots+i] is the store-local walker in slot i of fingerprint
	// fp's key order, -1 if the slot is empty.
	order []int32
	// meet[fp*slots+i] is the first step (1-based) at which the walker in
	// slot i and the next walker in key order share a live position, 0 if
	// they never do (and for the last walker); 1 in an empty slot.
	meet []uint16
	// head[fp*slots+i] is the key head of the walker in slot i (keyHead);
	// it means nothing in an empty slot. A separate array, so that an
	// owned source, which is placed by its rank, never reads it.
	head []uint32
	// rank[fp*width+v] is store-local walker v's slot in fingerprint fp's
	// order: order[fp*slots+rank[fp*width+v]] == v.
	rank []int32
	// width is the walkers of a fingerprint, slots its orderSlots(width).
	width, slots int
}

// gapEvery is the order's slack: one empty slot follows every gapEvery
// walkers of a sorted fingerprint, and a patch keeps their number. Their
// ten bytes come to 3.4% of the order's size.
const gapEvery = 20

// orderSlots returns the slots of one fingerprint's order over width
// walkers.
func orderSlots(width int) int { return width + width/gapEvery }

// ForestBytes returns the resident size of the coalescence order — order,
// meeting steps and key heads, 10 bytes a slot, and ranks, 4 bytes per
// stored walk: 10·(width + width/20)·R + 4·width·R, 0 before a loaded
// index has its graph. It is reported beside Bytes, which keeps meaning
// the path storage alone.
func (ix *Index) ForestBytes() int64 {
	f := ix.forest
	if f == nil {
		return 0
	}
	return int64(len(f.order))*4 + int64(len(f.meet))*2 + int64(len(f.head))*4 + int64(len(f.rank))*4
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

// keyHead returns the key head of a walker of an n-vertex graph with path
// walk and store-local id id: liveHead of its live length and last
// position, or id if it is dead before step 1.
func keyHead(walk []int32, id, n int) uint32 {
	walk = livePrefix(walk)
	if len(walk) == 0 {
		return uint32(id)
	}
	return liveHead(len(walk), walk[len(walk)-1], n)
}

// liveHead is the key head of a walker of an n-vertex graph that lives l
// ≥ 1 steps and ends on p: l·n + p, clamped at 2³²−1. It exceeds every
// head of a walker dead before step 1, whose id is below n.
func liveHead(l int, p int32, n int) uint32 {
	return uint32(min(uint64(l)*uint64(n)+uint64(p), math.MaxUint32))
}

// mergeMeet is the meeting step of two walkers given the meeting steps
// across the gap that separated them: the largest, or never if any is.
func mergeMeet(a, b uint16) uint16 {
	if a == 0 || b == 0 {
		return 0
	}
	return max(a, b)
}

// fingerprint returns fingerprint fp's order, meeting steps and key
// heads, one entry a slot, and its ranks, one a walker.
func (f *forest) fingerprint(fp int) (ord []int32, mt []uint16, hd []uint32, rk []int32) {
	lo, hi := fp*f.slots, (fp+1)*f.slots
	return f.order[lo:hi], f.meet[lo:hi], f.head[lo:hi], f.rank[fp*f.width : (fp+1)*f.width]
}

// buildForest sorts every fingerprint of an index from g, the graph its
// walks were taken on, in parallel over fingerprints (the Build worker
// convention).
func buildForest(ix *Index, g *graph.Graph, workers int) *forest {
	width := ix.Width()
	slots := orderSlots(width)
	f := &forest{order: make([]int32, ix.r*slots), meet: make([]uint16, ix.r*slots), head: make([]uint32, ix.r*slots), rank: make([]int32, ix.r*width), width: width, slots: slots}
	if width == 0 {
		return f
	}
	hseed := splitmix64(uint64(ix.seed))
	parts := par.ResolveMax(workers, ix.r)
	par.Do(parts, func(w int) {
		lo, hi := par.Range(ix.r, parts, w)
		s := newLeafLists(ix.n, width)
		for fp := lo; fp < hi; fp++ {
			ord, mt, hd, rk := f.fingerprint(fp)
			ix.sortFingerprint(g, hseed, fp, ord, mt, hd, rk, s)
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
	deaths     []death     // the runs of the dead list, in its order
}

// death is a run of walkers that died together — a list that died at one
// step, or a walker dead before step 1 — by its last walker and the key
// head they share.
type death struct {
	last int32
	head uint32
}

func newLeafLists(n, width int) *leafLists {
	s := &leafLists{next: make([]int32, width), gap: make([]uint16, width)}
	for i := range s.head {
		s.head[i], s.tail[i] = make([]int32, n+1), make([]int32, n+1)
		s.held[i] = make([]uint64, n/64+1)
	}
	return s
}

// sortFingerprint fills ord, mt, hd and rk for one fingerprint by walking
// up the forest: the key order of the walkers standing on y after step t+1
// is the concatenation, by ascending x, of the orders of the positions x
// that step onto y, so each step appends whole lists in O(1) — work
// proportional to the distinct (step, position) pairs, not to K·width.
// Where a list moves is the coupled move every walker on x takes, hashed
// from the graph as walkFrom does, so no stored walk is read. Two lists
// joined under a live y first meet there: the step is recorded on the seam
// and never changes again. A list that dies joins the dead list as one
// run, whose key head — its lived steps and last position — is recorded
// as it dies, so no walker is visited for it; every walker's head is
// written as it is emitted, from its run's or from its list's position at
// the horizon. Each walker's rank is written as it is emitted too, and an
// empty slot after every gapEvery walkers.
func (ix *Index) sortFingerprint(g *graph.Graph, hseed uint64, fp int, ord []int32, mt []uint16, hd []uint32, rk []int32, s *leafLists) {
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

	// The dead list only ever grows at its tail — by the dead of the step
	// before, then by the lists dying at this one, ascending — so its runs
	// are recorded in its order.
	s.deaths = s.deaths[:0]
	clear(s.held[into])
	for v := int32(0); int(v) < len(rk); v++ { // before step 1 every walker stands alone on its start
		x := move(int32(ix.lo)+v, 0)
		if x < 0 {
			s.deaths = append(s.deaths, death{v, uint32(v)})
		}
		join(x+1, v, v, 1)
	}
	for t := 1; t < ix.k; t++ {
		from := into
		into = 1 - into
		clear(s.held[into])
		each(from, func(y int32) {
			x := move(y-1, t)
			if x < 0 && y > 0 { // the list dies at step t+1, having lived t steps
				s.deaths = append(s.deaths, death{s.tail[from][y], liveHead(t, y-1, ix.n)})
			}
			join(x+1, s.head[from][y], s.tail[from][y], t+1)
		})
	}
	i, run := 0, 0
	each(into, func(y int32) {
		var h uint32
		if y > 0 {
			h = liveHead(ix.k, y-1, ix.n)
		}
		for v := s.head[into][y]; ; v = s.next[v] {
			if y == 0 {
				h = s.deaths[run].head
				if v == s.deaths[run].last {
					run++
				}
			}
			ord[i], mt[i], hd[i], rk[v] = v, s.gap[v], h, int32(i)
			if i++; i%(gapEvery+1) == gapEvery {
				ord[i], mt[i] = -1, 1
				i++
			}
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
	pow := ix.pow
	credit := func(v int32, m uint16) {
		i := uint(uint32(v))
		if i >= uint(len(acc)) {
			return // an empty slot (-1): no walker to credit
		}
		w := pow[m-1]
		if acc[i] == 0 {
			if w == 0 {
				return // underflowed weight: adds nothing, must not list v twice
			}
			touched = append(touched, v)
		}
		acc[i] += w
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
		ord, mt, hd, rk := f.fingerprint(fp)
		// Slots l and below precede the source, r and above follow it; lm
		// and rm are its meeting steps with the walkers in slots l and r —
		// neutral in an empty slot, which credits nobody.
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
			// A foreign source: a key search places it, past the empty
			// slots before the walker that follows it. A neighbour whose
			// head differs from the source's never meets it.
			h := keyHead(qp, self, ix.n)
			r, _ = ix.keySearch(fp, ord, hd, qp, h, self)
			l = r - 1
			if l >= 0 && hd[l] == h {
				lm = firstMeet(qp, ix.path(ord[l], fp))
			}
			for ; r < len(ord) && ord[r] < 0; r++ {
			}
			if r < len(ord) && hd[r] == h {
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
			rm = mergeMeet(rm, mt[r]) // the last walker's 0 ends the walk
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

// keySearch returns the first slot of fingerprint fp's order whose next
// walker — the one in it, or the first after it — does not precede the
// walker with path key, key head h and id id in key order, len(ord) if
// there is none, and the number of stored walks it read. The slot before
// it holds a walker or does not exist. An empty slot is stepped past by
// reading ord alone, and a walker's stored walk is read only when its head
// ties h: a smaller head precedes the key, a larger one follows it. id is
// store-local and below the width unless the key is live at step 1.
func (ix *Index) keySearch(fp int, ord []int32, hd []uint32, key []int32, h uint32, id int) (int, int) {
	reads := 0
	at := sort.Search(len(ord), func(i int) bool {
		for ; i < len(ord) && ord[i] < 0; i++ {
		}
		if i == len(ord) {
			return true
		}
		if hd[i] != h {
			return hd[i] > h
		}
		reads++
		return !keyLess(ix.path(ord[i], fp), int(ord[i]), key, id)
	})
	return at, reads
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
// slots and returns what it rewrote. walks are the repaired store-local
// walk ids, ascending. Per touched fingerprint each moved walker's old
// slot, found by its rank, is emptied first, the meeting step across it
// merged into the walker before it — so the walkers left, whose keys did
// not change, stand in key order with their meeting steps exact. Then each
// moved walker goes back in where a key search over the walkers in place
// puts it: into an empty slot of its gap if it has one, otherwise into a
// slot open makes beside it (a short shift, or a re-spread where the
// neighbourhood has run dry). The new walker gets its key head, and it and
// the walker before it fresh meeting steps — 0, with no walk read, beside
// a walker whose head differs; every walker open moves keeps its own step
// and head. The number of empty slots stays the one Build left. The key
// order is total, so the live slots are, walker for walker and step for
// step, the order a rebuild sorts.
func (f *forest) patch(ix *Index, walks []int32, workers int) patchStats {
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
	pws := make([]patcher, parts)
	par.Do(parts, func(w int) {
		lo, hi := par.Range(len(fps), parts, w)
		pw := &pws[w]
		for _, fp := range fps[lo:hi] {
			ord, mt, hd, rk := f.fingerprint(fp)
			path := func(v int32) []int32 { return ix.path(v, fp) }
			prev := func(i int) int { // the slot of the last walker before slot i, or -1
				for i--; i >= 0 && ord[i] < 0; i-- {
				}
				return i
			}
			next := func(i int) int { // the slot of the first walker from slot i on, or len(ord)
				for ; i < len(ord) && ord[i] < 0; i++ {
				}
				return i
			}
			// Emptied from the last slot back, so the walker before each is
			// found past the empty slots that were there before the batch,
			// not past the ones it made.
			pw.holes = pw.holes[:0]
			for _, v := range byFP[fp] {
				pw.holes = append(pw.holes, rk[v])
			}
			slices.Sort(pw.holes)
			for i := len(pw.holes) - 1; i >= 0; i-- {
				at := int(pw.holes[i])
				if p := prev(at); p >= 0 {
					mt[p] = mergeMeet(mt[p], mt[at])
				}
				ord[at], mt[at] = -1, 1
			}
			meet := func(i int, key []int32, h uint32) uint16 { // the walker in slot i's meeting step with key
				if hd[i] != h {
					return 0
				}
				pw.keyReads++
				return firstMeet(path(ord[i]), key)
			}
			for _, v := range byFP[fp] {
				key := path(v)
				h := keyHead(key, int(v), ix.n)
				// r is the first slot whose next walker follows v; the slot
				// before it holds a walker or does not exist, and r itself
				// is empty if v's gap has an empty slot.
				r, reads := ix.keySearch(fp, ord, hd, key, h, int(v))
				pw.keyReads += reads
				at := r
				if next(r) == r {
					at = pw.open(ord, mt, hd, rk, r)
				}
				ord[at], hd[at], rk[v] = v, h, int32(at)
				pw.reranked++
				if p := prev(at); p >= 0 {
					mt[p] = meet(p, key, h)
				}
				mt[at] = 0
				if n := next(at + 1); n < len(ord) {
					mt[at] = meet(n, key, h)
				}
			}
		}
	})
	var total patchStats
	for _, pw := range pws {
		total.reranked += pw.reranked
		total.widest = max(total.widest, pw.widest)
		total.keyReads += pw.keyReads
	}
	return total
}

// patchStats is what a patch rewrote and read: the ranks it wrote, the
// inserted walkers' included, the most walkers one insertion moved, and
// the stored walks its key searches and meeting steps read.
type patchStats struct{ reranked, widest, keyReads int }

// patcher is one patch worker: its counts, the slots it empties, and the
// scratch of a re-spread.
type patcher struct {
	patchStats
	holes   []int32
	walkers []int32
	meets   []uint16
	heads   []uint32
}

// shiftReach is the farthest a patch looks for an empty slot to shift
// walkers into, and spreadMin the smallest window it re-spreads once none
// is that near.
const (
	shiftReach = 8 * gapEvery
	spreadMin  = 16 * gapEvery
)

// open makes room for a walker going in before slot r, which holds the
// walker after the gap or is len(ord), and returns the slot it opened. If
// an empty slot lies within shiftReach slots, the walkers between it and
// the gap move one slot towards it; otherwise the neighbourhood has run
// dry and spread re-spreads it. Moved walkers keep their meeting steps and
// and heads and are re-ranked.
func (p *patcher) open(ord []int32, mt []uint16, hd []uint32, rk []int32, r int) int {
	for d := 1; d <= shiftReach; d++ {
		if j := r + d; j < len(ord) && ord[j] < 0 { // slots r..j-1 move up
			copy(ord[r+1:j+1], ord[r:j])
			copy(mt[r+1:j+1], mt[r:j])
			copy(hd[r+1:j+1], hd[r:j])
			p.rerank(ord, rk, r+1, j+1)
			return r
		}
		if j := r - 1 - d; j >= 0 && ord[j] < 0 { // slots j+1..r-1 move down
			copy(ord[j:r-1], ord[j+1:r])
			copy(mt[j:r-1], mt[j+1:r])
			copy(hd[j:r-1], hd[j+1:r])
			p.rerank(ord, rk, j, r-1)
			return r - 1
		}
	}
	return p.spread(ord, mt, hd, rk, r)
}

// spread lays the walkers of a window around slot r out again with the
// window's empty slots evenly between them, the walker going in before
// slot r counted among them, and returns that walker's slot. The window is
// the smallest of spreadMin slots, doubled, that holds enough empty slots:
// a quarter of the order's share of them at spreadMin, rising to all of it
// at the whole order, which always qualifies (the packed-memory array's
// rule). A dry neighbourhood so takes its slack from the nearest window
// that has some to spare, and a large window, once spread, takes many
// insertions before it runs dry again: insertions that drift one way,
// emptying one end of the order and filling the other, cost a whole
// re-spread only once every few hundred of them.
func (p *patcher) spread(ord []int32, mt []uint16, hd []uint32, rk []int32, r int) int {
	top := math.Log2(float64(len(ord)) / spreadMin) // doublings from spreadMin to the whole order
	a, b, empty := r, r, 0
	count := func(lo, hi int) {
		for _, v := range ord[lo:hi] {
			empty += int(uint32(v) >> 31)
		}
	}
	for size, lvl := spreadMin, 0.0; ; size, lvl = size*2, lvl+1 {
		na := max(0, min(r-size/2, len(ord)-size))
		nb := min(len(ord), na+size)
		count(na, a)
		count(b, nb)
		a, b = na, nb
		share := (1 + 3*lvl/top) / 4
		if b-a == len(ord) || float64(empty*(gapEvery+1)) >= share*float64(b-a) {
			break
		}
	}
	if cap(p.walkers) <= b-a {
		p.walkers, p.meets, p.heads = make([]int32, 0, len(ord)+1), make([]uint16, 0, len(ord)+1), make([]uint32, 0, len(ord)+1)
	}
	p.walkers, p.meets, p.heads = p.walkers[:0], p.meets[:0], p.heads[:0]
	for i := a; i <= b; i++ {
		if i == r {
			p.walkers, p.meets, p.heads = append(p.walkers, -1), append(p.meets, 0), append(p.heads, 0)
		}
		if i < b && ord[i] >= 0 {
			p.walkers, p.meets, p.heads = append(p.walkers, ord[i]), append(p.meets, mt[i]), append(p.heads, hd[i])
		}
	}
	// Walker j goes to slot a + ⌊j·(b-a)/n⌋, the empty slots between.
	n := len(p.walkers)
	step, rem := (b-a)/n, (b-a)%n
	at, i, carry := -1, a, 0
	for j, v := range p.walkers {
		next := i + step
		if carry += rem; carry >= n {
			carry -= n
			next++
		}
		if v < 0 {
			at = i
		} else {
			ord[i], mt[i], hd[i], rk[v] = v, p.meets[j], p.heads[j], int32(i)
		}
		for i++; i < next; i++ {
			ord[i], mt[i] = -1, 1
		}
	}
	p.reranked += n - 1
	p.widest = max(p.widest, n-1)
	return at
}

// rerank writes the ranks of the walkers in slots [lo, hi).
func (p *patcher) rerank(ord []int32, rk []int32, lo, hi int) {
	for i := lo; i < hi; i++ {
		rk[ord[i]] = int32(i)
	}
	p.reranked += hi - lo
	p.widest = max(p.widest, hi-lo)
}
