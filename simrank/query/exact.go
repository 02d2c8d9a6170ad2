package query

import (
	"context"
	"fmt"
	"math"
	"math/bits"
	"slices"
	"sync"
	"sync/atomic"

	"oipsr/graph"
	"oipsr/internal/par"
)

// exactScorer computes exact truncated SimRank scores for individual pairs
// by the memoized recursion
//
//	s_0(a,b) = [a == b]
//	s_d(a,b) = C/(|I(a)||I(b)|) * sum_{x in I(a), y in I(b)} s_{d-1}(x,y)
//
// — the per-pair form of the partial-sums iteration, pruned by branch
// contribution: a subtree entered with accumulated weight w (the product
// of C/(|I||I|) factors along the path from the root pair) can change the
// root score by at most w, so descent stops once w < pruneEps. The weight
// collapses quickly through high-degree vertices — exactly where naive
// expansion explodes — so reranking stays fast even on hub-heavy graphs.
// Cost depends on in-degrees and C, not on n, which is the point:
// reranking a candidate pool touches only the reverse neighborhood of the
// query.
//
// The memo is keyed on (pair, remaining depth) and shared across all
// candidates of one rerank call. Each entry records the weight it was
// computed at; a lookup reuses it only for weights <= that (pruned
// branches lost at most pruneEps of root contribution when stored, and
// rescaling by a smaller weight only shrinks that loss), so reuse never
// degrades accuracy. It does make a score depend on which entries exist,
// that is on what was scored before it — hence ONE memo per call: the
// candidates of one (request, source) are scored in pool order against a
// memo that starts empty, and that is what keeps a batch equal to
// independent calls and the router equal to a single node. The memo's
// memory is pooled, its contents are not: newExactScorer takes a table from
// memoPool and reset forgets every entry.
//
// Three things keep the recursion off the slow paths; none changes a bit
// of any score (exact_test.go holds the map-and-calls version they replace
// as the oracle, compared with math.Float64bits):
//
//   - The memo is an open-addressed, linear-probed table of 32-byte entries
//     — two per cache line, a hit or a miss usually one line — instead of a
//     Go map: no hashing of a 24-byte struct key, no buckets, no
//     incremental rehash, nothing for the collector to scan or free per
//     request. Vertex ids and depths fit 32 bits each because the walk
//     index stores positions as int32 and bounds K by 0xFFFF;
//     newExactScorer refuses anything larger rather than truncate. Entries
//     carry the epoch of the call that wrote them, so a reset is one
//     increment.
//   - A pair with an empty in-list scores exactly 0 at every depth and
//     weight, so it is answered from the two degrees and never enters the
//     memo. On web graphs most vertices a deep expansion meets have no
//     in-neighbors: 87% of the entries the map version stored on the
//     serve-zipf graph were such zeros. So an interior node lists the
//     vertices of I(b) that have in-neighbors once, as its columns, and a
//     row x without them adds only its (x, x) child, if x is in I(b).
//   - A child (x, y) whose own children would all be cut off — rem == 1,
//     or its weight w·C/(|I(x)||I(y)|) already below pruneEps — is the
//     frontier of the expansion and its widest level. Each grandchild is
//     then 1 for x' == y' and 0 otherwise, so the child is
//     C/(|I(x)||I(y)|)·|I(x) ∩ I(y)|: an integer count far below 2^53,
//     exact in float64 in any order, times the child's scale. The parent's
//     double loop resolves such a child inline, without a call: a row x
//     stamps I(x) once into the table's vertex-indexed stamp array, and
//     each child of the row counts the stamped vertices of I(y): |I(y)|
//     steps a child, against |I(x)|+|I(y)| for a merge of the two. Frontier
//     values are not stored: at any weight the memo would reuse one for,
//     the child is still a frontier and recomputes the same bits. Only
//     interior nodes and root pairs are stored, and a frontier child still
//     probes the memo first, since an interior entry of the same pair at
//     a heavier weight wins exactly as it did when it was a call.
//     Interior nodes skip the call for x == y the same way.
type exactScorer struct {
	g        *graph.Graph
	c        float64
	k        int // truncation depth (matches the index horizon)
	pruneEps float64
	memo     *memoTable

	// cancel is polled once per memo store and once per frontier child,
	// i.e. it consults the context every memoCancelEvery of them; err
	// latches what it found, and every frame of the recursion returns as
	// soon as it sees it.
	cancel par.CancelChecker
	err    error

	// interior and frontier count the nodes expanded and the frontier
	// children counted; release adds them to rerankWork.
	interior, frontier uint64
}

// memoTable is the memo of one rerank call: open addressing, linear
// probing, a power-of-two number of slots of which at most half are in
// use. A slot whose epoch is not the table's current one is free — which
// covers the zero value, epoch 0 never being current.
//
// It also holds the frontier's stamp array: stamps[v] == mark when v is in
// the in-list of the row being counted. The mark only grows, across calls
// too, so a new row makes every older stamp stale — an abandoned call's
// included — and the array is cleared only when the mark wraps.
type memoTable struct {
	slots []memoEntry
	shift uint   // 64 - log2(len(slots)): a home slot is the hash's top bits
	live  int    // entries written in the current epoch
	epoch uint32 // stamp of the current call

	stamps []uint32 // one per vertex, at least n long
	mark   uint32   // stamp of the current row

	cols []column // the live columns of the nodes being expanded, a stack
}

// column is a vertex y of an interior node's I(b) that has in-neighbors,
// and I(y).
type column struct {
	v  int
	in []int
}

type memoEntry struct {
	key    uint64 // uint64(a)<<32 | uint64(b), canonical a < b
	rem    uint32 // remaining iterations
	epoch  uint32
	score  float64
	weight float64 // branch weight the entry was computed at
}

const (
	// memoInitSlots sizes a new table: 32 KiB, above what the median rerank
	// fills (a few dozen entries).
	memoInitSlots = 1 << 10
	// memoMaxPooled bounds the table the pool may keep: 8 MiB, room for
	// 131 072 entries. The largest memo on the serve-zipf graph (n=6000,
	// default pool of 40) is 4 788 entries, frontier pairs not stored; a
	// request past the bound grows its table, uses it, and leaves it to
	// the collector.
	memoMaxPooled = 1 << 18
	// memoCancelEvery is the number of memo stores and frontier children
	// between context polls: about a quarter of a millisecond of recursion
	// among the serve-zipf graph's hubs.
	memoCancelEvery = 1 << 12
)

var memoPool = sync.Pool{New: func() any { return new(memoTable) }}

// RerankWork counts what exact reranks did: the interior nodes of the
// recursion they expanded, the frontier children they resolved by counting
// an in-list overlap, and the memo entries they left. Only the interior
// nodes and root pairs are stored, so MemoEntries is what the memo had to
// hold and Frontier the pairs that need no entry.
type RerankWork struct {
	Interior, Frontier, MemoEntries uint64
}

var rerankWork struct{ interior, frontier, entries atomic.Uint64 }

// RerankWorkTotal returns the work of every exact rerank this process has
// finished or abandoned, over all indexes: a counter that only grows.
func RerankWorkTotal() RerankWork {
	return RerankWork{
		Interior:    rerankWork.interior.Load(),
		Frontier:    rerankWork.frontier.Load(),
		MemoEntries: rerankWork.entries.Load(),
	}
}

// newExactScorer sets up the scorer of one rerank call over an empty memo
// from the pool. The scorer is returned by value, to live on its caller's
// stack — a request allocates neither it nor its cancel checker — and the
// caller releases it when done.
func newExactScorer(ctx context.Context, g *graph.Graph, c float64, k int, pruneEps float64) (exactScorer, error) {
	if g.NumVertices() > math.MaxInt32 || k < 0 || k > math.MaxUint16 {
		return exactScorer{}, fmt.Errorf("query: exact rerank keys its memo on 32-bit vertex ids and 16-bit horizons (the walk index's own limits); got n = %d, K = %d", g.NumVertices(), k)
	}
	memo := memoPool.Get().(*memoTable)
	memo.reset(g.NumVertices())
	return exactScorer{
		g: g, c: c, k: k, pruneEps: pruneEps,
		memo:   memo,
		cancel: *par.NewCancelChecker(ctx, memoCancelEvery),
	}, nil
}

// release counts the call's work into rerankWork and returns the memo to
// the pool, unless its slots grew past memoMaxPooled.
func (e *exactScorer) release() {
	rerankWork.interior.Add(e.interior)
	rerankWork.frontier.Add(e.frontier)
	rerankWork.entries.Add(uint64(e.memo.live))
	if len(e.memo.slots) > memoMaxPooled {
		e.memo.slots = nil
	}
	clear(e.memo.cols[:cap(e.memo.cols)]) // a pooled table must not keep a graph alive
	memoPool.Put(e.memo)
	e.memo = nil
}

// reset empties the table in O(1) and readies its stamps for n vertices:
// moving to the next epoch leaves every stored entry with a stale stamp,
// which reads as a free slot. Only when the stamp wraps is the table
// actually cleared.
func (m *memoTable) reset(n int) {
	if m.slots == nil {
		m.slots = make([]memoEntry, memoInitSlots)
	}
	if len(m.stamps) < n {
		m.stamps = make([]uint32, n)
	}
	m.shift = uint(64 - bits.TrailingZeros(uint(len(m.slots))))
	m.live = 0
	m.cols = m.cols[:0]
	if m.epoch++; m.epoch == 0 {
		clear(m.slots)
		m.epoch = 1
	}
}

// stamp makes in the current row: a fresh mark, set on each of its
// vertices.
func (m *memoTable) stamp(in []int) {
	if m.mark++; m.mark == 0 {
		clear(m.stamps)
		m.mark = 1
	}
	for _, v := range in {
		m.stamps[v] = m.mark
	}
}

// overlap returns how many vertices of in the current row's in-list holds.
func (m *memoTable) overlap(in []int) int {
	n := 0
	for _, v := range in {
		if m.stamps[v] == m.mark {
			n++
		}
	}
	return n
}

// home is the slot a probe for (key, rem) starts at: the top bits of a
// multiplicative hash, so doubling the table splits every slot in two and
// a rehash keeps entries in order.
func (m *memoTable) home(key uint64, rem uint32) uint64 {
	return (key*0x9E3779B97F4A7C15 + uint64(rem)*0xC2B2AE3D27D4EB4F) >> m.shift
}

// find returns the slot of (key, rem) and whether it holds the entry; when
// absent, the slot is where it would be inserted.
func (m *memoTable) find(key uint64, rem uint32) (int, bool) {
	mask := uint64(len(m.slots) - 1)
	for i := m.home(key, rem); ; i = (i + 1) & mask {
		ent := &m.slots[i]
		if ent.epoch != m.epoch {
			return int(i), false
		}
		if ent.key == key && ent.rem == rem {
			return int(i), true
		}
	}
}

// store writes or overwrites the entry of (key, rem). It probes afresh —
// the recursion between a node's lookup and its store may have filled the
// slot the lookup ended on, or grown the table.
func (m *memoTable) store(key uint64, rem uint32, score, weight float64) {
	i, ok := m.find(key, rem)
	if !ok {
		if 2*(m.live+1) > len(m.slots) {
			m.grow()
			i, _ = m.find(key, rem)
		}
		m.live++
	}
	m.slots[i] = memoEntry{key: key, rem: rem, epoch: m.epoch, score: score, weight: weight}
}

// grow doubles the table and re-inserts the current epoch's entries.
func (m *memoTable) grow() {
	old := m.slots
	m.slots = make([]memoEntry, 2*len(old))
	m.shift--
	mask := uint64(len(m.slots) - 1)
	for j := range old {
		ent := &old[j]
		if ent.epoch != m.epoch {
			continue
		}
		i := m.home(ent.key, ent.rem)
		for m.slots[i].epoch != 0 {
			i = (i + 1) & mask
		}
		m.slots[i] = *ent
	}
}

// pairKey is the memo key of the unordered pair {a, b}.
func pairKey(a, b int) uint64 {
	if a > b {
		a, b = b, a
	}
	return uint64(a)<<32 | uint64(b)
}

// pair returns s_k(a, b), the value iteration k of the batch engines
// assigns, up to the pruning threshold. The error is the context's, once
// it is cancelled.
func (e *exactScorer) pair(a, b int) (float64, error) {
	if a == b {
		return 1, nil
	}
	if e.k == 0 || 1 < e.pruneEps {
		return 0, nil
	}
	s := e.score(a, b, uint32(e.k), 1)
	return s, e.err
}

// score is s_rem(a, b) for a != b, rem >= 1 and w >= pruneEps, stored in
// the memo; the callers resolve the other cases — 1, 0 and 0 — without a
// call, and expand resolves frontier children too. After a cancellation
// (e.err set) its result is meaningless.
func (e *exactScorer) score(a, b int, rem uint32, w float64) float64 {
	if a > b {
		a, b = b, a // the canonical order fixes the order of the additions
	}
	ia, ib := e.g.In(a), e.g.In(b)
	if len(ia) == 0 || len(ib) == 0 {
		return 0
	}
	key := uint64(a)<<32 | uint64(b)
	if i, ok := e.memo.find(key, rem); ok && w <= e.memo.slots[i].weight {
		return e.memo.slots[i].score
	}
	scale := e.c / float64(len(ia)*len(ib))
	cw := w * scale
	var sum float64
	if rem == 1 || cw < e.pruneEps {
		// A root pair on the frontier: expand answers every other one.
		e.memo.stamp(ia)
		sum = float64(e.memo.overlap(ib))
	} else if sum = e.expand(ia, ib, rem-1, cw); e.err != nil {
		return 0
	}
	s := scale * sum
	e.memo.store(key, rem, s, w)
	e.err = e.cancel.Stop()
	return s
}

// expand is an interior node's double loop: the sum of s_rem(x, y) over x
// in ia and y in ib, each child entered at weight w, added in the order of
// the reference recursion.
func (e *exactScorer) expand(ia, ib []int, rem uint32, w float64) float64 {
	e.interior++
	m := e.memo
	base := len(m.cols)
	for _, y := range ib {
		if iy := e.g.In(y); len(iy) > 0 {
			m.cols = append(m.cols, column{y, iy})
		}
	}
	cols := m.cols[base:] // nested calls append after it, never over it
	var sum float64
	for _, x := range ia {
		ix := e.g.In(x)
		if len(ix) == 0 {
			// Every child of the row is 0 but (x, x), if x is in ib.
			if _, found := slices.BinarySearch(ib, x); found {
				sum++
			}
			continue
		}
		stamped := false // whether the stamps hold ix
		for _, col := range cols {
			y, iy := col.v, col.in
			if x == y {
				sum++
				continue
			}
			scale := e.c / float64(len(ix)*len(iy))
			if rem > 1 && w*scale >= e.pruneEps {
				sum += e.score(x, y, rem, w)
				if e.err != nil {
					return 0
				}
				stamped = false // the child's rows stamped over this one
				continue
			}
			// Only interior nodes and root pairs are stored, so below a
			// root nothing is at rem 1; above it an interior entry of
			// (x, y) can exist, computed at a heavier weight, and wins.
			if rem > 1 {
				if i, ok := m.find(pairKey(x, y), rem); ok && w <= m.slots[i].weight {
					sum += m.slots[i].score
					continue
				}
			}
			if !stamped {
				m.stamp(ix)
				stamped = true
			}
			// The conversion rounds the product, so no fused multiply-add
			// can skip a rounding the reference made.
			sum += float64(scale * float64(m.overlap(iy)))
			e.frontier++
			if e.err = e.cancel.Stop(); e.err != nil {
				return 0
			}
		}
	}
	m.cols = m.cols[:base]
	return sum
}
