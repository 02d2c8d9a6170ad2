// Package core implements OIP-SR, the paper's primary contribution
// (Algorithm 1): SimRank iteration with both inner and outer partial-sums
// sharing driven by the minimum-spanning-tree plan of DMST-Reduce.
//
// One iteration ("sweep") is next = damp·D·A·(A·prev)ᵀ·D, with A the 0/1
// in-set matrix and D = diag(1/|I(v)|), computed in two stages of row
// additions over the plan's two views.
//
// Stage 1, the inner sums, walks the plan's chain steps — the paper's
// Fig. 2d path decomposition. At each step u the inner partial-sum vector
// Partial_{I(u)}(.) = P(u, .), P = A·prev, is derived from the previous
// set's vector by applying the symmetric difference of the two
// in-neighbor sets (Proposition 3 / Eq. 9), or rebuilt from scratch at
// chain starts, straight into row u of next. A transpose in place then
// turns row y of next into P(., y).
//
// Stage 2 is procedure OP (Proposition 4 / Eqs. 10-11), run for all rows
// at once: tree step w of the plan's tree program, in preorder, writes
// V(w, .) into row w of prev, which stage 1 has finished reading. The row
// starts from the parent step's row, or from 0 at a root, and adds
// row y of Pᵀ for every id y of the step's add list, then subtracts those
// of its sub list. V(w, u) is the outer partial sum row u's procedure OP
// keeps at tree step w. A final pass scales it into the canonical value of
// the pair: next(u, w) = next(w, u) = (damp/|I(u)|)/|I(w)|·V(w, u) for
// u < w.
//
// # One kernel, one order of additions
//
// Every row update of both stages goes through one kernel, accumulate,
// which folds up to four rows into a single pass over the target row:
// p[y] = p[y] + a[y] + b[y] + c[y] + d[y]. Go evaluates that sum left to
// right and never reassociates floating-point arithmetic, so each element
// receives exactly the additions, in exactly the order, of adding the rows
// one pass at a time (adds in list order, then subs) — grouping only cuts
// the loads and stores of p. So every cell V(w, u) receives the additions
// row u's own procedure OP would make at step w, in its order, and no
// cell's value depends on which worker computes it or how the columns are
// split: the sweep is bit-identical to emitting one row per pass.
//
// The psum-SR ablation (DisableOuter) is not procedure OP: its per-target
// sums run stage 2 over partition.TrivialPlan's tree, where every set is a
// root carrying its whole in-set, in the in-set's order.
//
// # Concurrency model
//
// The chains of the plan are mutually independent: every chain rebuilds its
// inner partial-sum vector from scratch at its root, and the set of rows a
// chain writes is disjoint from every other chain's. Stage 1 therefore
// schedules whole chains across a fixed worker pool,
// longest-estimated-cost-first for load balance. Stage 2 splits the m
// columns: each worker runs the whole tree program over its column range.
// The transpose splits tiles, the final pass rows. Workers read shared,
// immutable state and write disjoint cells, so no locks are needed; each
// worker keeps its own SweepStats, merged after the barrier.
//
// Determinism guarantee: the floating-point operations that produce any
// given cell — and their order — are fixed by the plan, not by which
// worker runs them or when. Sweep output is therefore bit-identical for
// every worker count, including the serial workers == 1 path, and
// InnerAdds/OuterAdds are identical as well.
//
// # The block: only vertices with a non-empty in-set own rows
//
// A vertex v with an empty in-set I(v) has nothing to average: every sweep
// writes its row and column as zero, and OIP-SR's pinned diagonal then sets
// (v,v) = 1. The first iterate, s_0 = T_0 = I, has the same shape. So in
// every iterate the row and column of such a vertex are exactly d·δ_v, for
// one value d fixed by the engine and the step: d = 1 for every OIP-SR
// iterate and for OIP-DSR's T_0, d = 0 for its T_k, k >= 1. The sweeper
// therefore stores and sweeps only the m x m block of the vertices with a
// non-empty in-set, and the engines return it with d as a
// simmat.Expanded. On sweep-web's graph that is 499 of 1500 vertices.
//
// The rows outside the block still feed the sums: a vertex x outside the
// block that lies in I(u) adds the row d·δ_x, which is +0 in every block
// column and d in column x. Stage 1 drops it — it only reaches column x,
// which is not stored — and stage 2 adds d to V(w, u) for every u with
// x in I(u), the out-neighbours of x, where row u's procedure OP would
// have read d from x's column of P; at every other u it would have read
// +0. Dropping the +0 terms is bitwise neutral: x + (+0) = x for every x
// but -0, x - (+0) = x for every x, and no value here is ever -0. Under
// round-to-nearest a sum or difference is -0 only if an operand already
// is, the iterates start from +0 and +1, and the scales applied to them
// (damping, 1/|I|, the OIP-DSR coefficients) are positive, with
// magnitudes nowhere near underflow. With d = 0 (OIP-DSR's T_k, k >= 1)
// stage 2 skips such x entirely. The counters keep the paper's unit, one
// vector operation = n scalar additions, whatever the block holds.
//
// P-Rank's blended iterate has real rows at vertices with an empty in-set,
// so its sweepers keep every vertex (the all-rows sweeper of
// NewParallelSweeper): the same code, with an identity slot map, no
// vertex outside the block, and a zero row in both stages for the kept
// vertices whose in-set is empty.
//
// # Canonical symmetry and the tiled backend
//
// The value row min(a,b)'s procedure OP computes is the canonical score of
// the pair: the final pass writes it to (b,a) and copies it to (a,b) for
// a < b. The slot map numbers the block in increasing vertex order, so the
// block row of min(a,b) is the smaller of the two block rows and the rule
// picks the same row it would in the full matrix; the pairs outside the
// block are d·δ on both sides.
//
// The tiled backend bounds memory and cannot hold an m x m Pᵀ, so
// SweepTiled keeps the per-row kernel: a worker takes its chain steps
// kernelRows at a time, each in its own lane — a partial vector of the m
// block columns plus one indicator slot for each vertex outside the block
// that some in-set holds, and a column of the per-step outer sums — and
// one pass over the slot-mapped tree program advances all lanes and emits
// all their rows: four independent add chains the CPU overlaps. A derived
// step's lane starts as a copy of the lane before it, and a copy is exact.
// In a worker's last group the missing lanes alias lane 0's partial vector
// and row: they recompute lane 0's values and write the same bits into the
// same row. An indicator holds d or 0 — its ±d updates are exact — which
// is the value stage 2 adds or skips. Each lane's value at a tree step
// receives exactly the one-row additions in the one-row order, so tiled
// output is bit-identical to the dense sweep for every block size and
// worker count. Rows of prev are assembled from tiles, emitted rows land
// in O(m) buffers, one per lane, and only the canonical upper segment of
// each is stored.
package core

import (
	"sort"

	"oipsr/graph"
	"oipsr/internal/par"
	"oipsr/internal/partition"
	"oipsr/internal/simmat"
)

// SweepStats accumulates operation counts across sweeps. Additions are
// scalar float64 additions/subtractions, the unit the OIP cost model (and
// the NP-hardness reduction) is stated in.
type SweepStats struct {
	InnerAdds int64 // building/deriving inner partial-sum vectors
	OuterAdds int64 // deriving outer partial sums in procedure OP
}

// sweepWorker is the per-worker mutable state of a sweep: the operation
// counters, the rows handed to accumulate, and the tiled kernel's O(n)
// buffers, allocated on the first tiled sweep. A tiled sweep takes its
// chain steps kernelRows at a time, one lane per step: lane j holds the
// inner partial-sum vector of the group's j-th step and column j of vals
// that step's outer partial sums; rowBuf[j] receives lane j's emitted row
// before its canonical segment is stored, and stage holds the rows of prev
// assembled from tiles for one call of accumulate.
type sweepWorker struct {
	rows   [kernelRows][]float64 // the rows handed to accumulate
	lanes  [kernelRows][]float64 // tiled: Partial_{I(u)} by slot, m block columns, then the indicators
	vals   [][kernelRows]float64 // tiled: per-tree-step outer partial sums of each lane
	rowBuf [kernelRows][]float64 // tiled: emit target rows
	stage  [kernelRows][]float64 // tiled: staged prev rows
	stats  SweepStats
}

// Sweeper applies the pairwise in-neighbor averaging operator
//
//	next(a,b) = damp / (|I(a)| |I(b)|) * sum_{i in I(a), j in I(b)} prev(i,j)
//
// using inner+outer partial-sums sharing, optionally across a worker pool
// (see the package comment for the concurrency model). Its iterates are
// m x m blocks over the vertices that own a row (see the package comment
// on the block). It owns its O(n) scratch, so one Sweeper can be reused
// across iterations and algorithms: OIP-SR calls it with damp = C and
// pinned diagonal, the differential engine (OIP-DSR) with damp = 1 and a
// free diagonal for its T_k recurrence.
type Sweeper struct {
	g    *graph.Graph
	plan *partition.Plan
	n, m int

	// slot maps a vertex to its place in the partial vector: [0, m) for a
	// vertex of the block, which is also its row and column of the
	// iterates; [m, m+e) for the indicator of a vertex outside the block
	// that some in-set holds (a tiled lane's slot); -1 for the rest.
	slot      []int32
	e         int       // indicator slots
	emptyRows []int32   // block rows of vertices with an empty in-set (all-rows sweepers only)
	invDeg    []float64 // 1/|I(v)| by block row, 0 for empty sets

	// outer is the plan whose tree program procedure OP runs: plan, or
	// with disableOuter a trivial plan, whose every set is a root holding
	// its whole in-set in the in-set's order — plan itself when its tree
	// steps already are all roots (the engines' no-sharing modes pass a
	// TrivialPlan).
	outer *partition.Plan

	// The tiled kernel's slot-mapped copy of outer's tree program, built
	// on the first tiled sweep.
	tree    partition.Diffs // outer.TreeDiffs with the ids mapped to slots
	treeRow []int32         // block row of each tree step's vertex

	workers int
	ws      []sweepWorker
	sched   [][]partition.Chain // chains assigned to each worker (LPT)
}

// NewSweeper builds a serial (single-worker) Sweeper for g with the given
// plan. allRows keeps every vertex in the block, for iterates with real
// rows at vertices whose in-set is empty (P-Rank); otherwise the block
// holds the vertices with a non-empty in-set. If disableOuter is true,
// procedure OP is replaced by the psum-SR one-by-one outer summation (the
// ablation of Section III-B: inner sharing only).
func NewSweeper(g *graph.Graph, plan *partition.Plan, allRows, disableOuter bool) *Sweeper {
	return NewParallelSweeper(g, plan, allRows, disableOuter, 1)
}

// NewParallelSweeper builds a Sweeper running each sweep on a pool of the
// given size. workers < 1 means runtime.GOMAXPROCS(0). The pool is capped at
// the number of plan chains — extra workers would have nothing to run.
func NewParallelSweeper(g *graph.Graph, plan *partition.Plan, allRows, disableOuter bool, workers int) *Sweeper {
	n := g.NumVertices()
	slot, m, e := newSlots(g, allRows)
	inv := make([]float64, m)
	var emptyRows []int32
	for v, s := range slot {
		if s < 0 || int(s) >= m {
			continue
		}
		if d := g.InDegree(v); d > 0 {
			inv[s] = 1 / float64(d)
		} else {
			emptyRows = append(emptyRows, s)
		}
	}
	workers = par.Resolve(workers)
	if c := len(plan.Chains); workers > c && c > 0 {
		workers = c
	}
	if workers < 1 {
		workers = 1
	}
	outer := plan
	if disableOuter && !allRoots(plan) {
		outer = partition.TrivialPlan(g)
	}
	return &Sweeper{
		g:         g,
		plan:      plan,
		n:         n,
		m:         m,
		slot:      slot,
		e:         e,
		emptyRows: emptyRows,
		invDeg:    inv,
		outer:     outer,
		workers:   workers,
		ws:        make([]sweepWorker, workers),
		sched:     schedule(plan.Chains, workers),
	}
}

// allRoots reports whether every tree step of p is a root. A root's add
// list is its whole in-set in the in-set's order, so such a tree program
// is the psum-SR per-target summation.
func allRoots(p *partition.Plan) bool {
	for _, s := range p.TreeSteps {
		if s.Parent >= 0 {
			return false
		}
	}
	return true
}

// newSlots numbers the block in increasing vertex order — every vertex
// with allRows, else the vertices with a non-empty in-set — then gives an
// indicator slot, in the same order, to each vertex outside the block that
// lies in some in-set (has an out-edge). It returns the map, the block
// size m and the indicator count e.
func newSlots(g *graph.Graph, allRows bool) (slot []int32, m, e int) {
	slot = make([]int32, g.NumVertices())
	for v := range slot {
		if allRows || g.InDegree(v) > 0 {
			slot[v] = int32(m)
			m++
		} else {
			slot[v] = -1
		}
	}
	for v, s := range slot {
		if s < 0 && g.OutDegree(v) > 0 {
			slot[v] = int32(m + e)
			e++
		}
	}
	return slot, m, e
}

// remap returns d with its vertex ids replaced by their slots.
func remap(d partition.Diffs, slot []int32) partition.Diffs {
	ids := make([]int32, len(d.IDs))
	for i, x := range d.IDs {
		ids[i] = slot[x]
	}
	return partition.Diffs{IDs: ids, Off: d.Off, Split: d.Split}
}

// schedule partitions chains across workers by longest-processing-time-first
// greedy bin packing: chains sorted by descending cost estimate, each placed
// on the currently least-loaded worker. Ties break on chain order, so the
// assignment is deterministic.
func schedule(chains []partition.Chain, workers int) [][]partition.Chain {
	sched := make([][]partition.Chain, workers)
	if workers == 1 {
		sched[0] = chains
		return sched
	}
	order := make([]int, len(chains))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool {
		return chains[order[a]].Cost > chains[order[b]].Cost
	})
	load := make([]int64, workers)
	for _, ci := range order {
		best := 0
		for w := 1; w < workers; w++ {
			if load[w] < load[best] {
				best = w
			}
		}
		sched[best] = append(sched[best], chains[ci])
		load[best] += chains[ci].Cost
	}
	return sched
}

// Workers reports the effective pool size.
func (sw *Sweeper) Workers() int { return sw.workers }

// Kept reports m, the dimension of the sweeper's iterates: the number of
// vertices with a row and a column in the block.
func (sw *Sweeper) Kept() int { return sw.m }

// Slots returns the vertex-to-slot map: slot[v] in [0, Kept()) is v's row
// and column of the iterates, any other value puts v outside the block.
// It is monotone over the block, the form simmat.Expand takes. The slice
// is the sweeper's own and must not be modified.
func (sw *Sweeper) Slots() []int32 { return sw.slot }

// Stats returns the cumulative operation counts, merged across workers.
// Counts are exact: inner adds are counted per chain and outer adds per
// emitted row, neither of which depends on the assignment.
func (sw *Sweeper) Stats() SweepStats {
	var st SweepStats
	for w := range sw.ws {
		st.InnerAdds += sw.ws[w].stats.InnerAdds
		st.OuterAdds += sw.ws[w].stats.OuterAdds
	}
	return st
}

// AuxBytes reports the auxiliary memory held by the sweeper's O(n) buffers
// (the "intermediate memory" of Proposition 5; score matrices and the
// plan excluded): the slot map and 1/|I| by block row, the trivial plan a
// sweeper without outer sharing builds for itself, and once a tiled sweep
// has run the slot-mapped tree program and per worker kernelRows partial
// vectors, vals columns, row buffers and staging rows.
func (sw *Sweeper) AuxBytes() int64 {
	var b int64
	for w := range sw.ws {
		st := &sw.ws[w]
		b += int64(len(st.vals)) * kernelRows * 8
		for j := range kernelRows {
			b += int64(len(st.lanes[j])+len(st.rowBuf[j])+len(st.stage[j])) * 8
		}
	}
	if sw.outer != sw.plan {
		b += sw.outer.Bytes()
	}
	b += int64(len(sw.slot)+len(sw.emptyRows)+len(sw.tree.IDs)+len(sw.treeRow)) * 4
	return b + int64(len(sw.invDeg))*8
}

// Sweep applies the averaging operator from prev into next, both m x m
// blocks (m = Kept()). prevDiag is d of prev, the value on the diagonal of
// every vertex outside the block (ignored by an all-rows sweeper, which
// has none). The rows and columns of those vertices come out as zero,
// and, if pinDiag is set, every diagonal entry is then forced to 1 (the
// s(a,a)=1 rule of the conventional model): next's d is 1 with pinDiag
// and 0 without.
//
// Sweep overwrites prev: stage 2 keeps its outer partial sums there (see
// the package comment). A caller that needs the input after the sweep
// copies it first. Every cell of next is written, whatever it held.
func (sw *Sweeper) Sweep(prev, next *simmat.Matrix, prevDiag, damp float64, pinDiag bool) {
	// Stage 1: row u of next becomes P(u, .).
	par.Do(sw.workers, func(w int) {
		lo, hi := par.Range(len(sw.emptyRows), sw.workers, w)
		for _, r := range sw.emptyRows[lo:hi] {
			clear(next.Row(int(r)))
		}
		st := &sw.ws[w]
		load := func(x int, _ []float64) ([]float64, error) { return prev.Row(x), nil }
		steps := sw.plan.ChainSteps
		for _, ch := range sw.sched[w] {
			for i := ch.Start; i < ch.End; i++ {
				p := next.Row(int(sw.slot[steps[i].Vertex]))
				if steps[i].Parent >= 0 {
					copy(p, next.Row(int(sw.slot[steps[i-1].Vertex])))
				}
				// A dense row stores no indicators, and a dense row
				// load cannot fail, so neither can inner.
				_ = sw.inner(st, p, nil, i, prevDiag, load)
			}
		}
	})

	// Row y of next becomes P(., y).
	next.Transpose(sw.workers)

	// Stage 2: row w of prev becomes V(w, .).
	par.Do(sw.workers, func(w int) {
		lo, hi := par.Range(sw.m, sw.workers, w)
		sw.outerSums(&sw.ws[w], prev, next, prevDiag, lo, hi)
	})
	// Each emitted row, one per chain step, costs procedure OP the tree weight.
	sw.ws[0].stats.OuterAdds += int64(len(sw.plan.ChainSteps)) * int64(sw.outer.TreeWeight)

	sw.finish(prev, next, damp, pinDiag)
}

// outerSums runs the tree program over columns [lo, hi): row w of v, the
// tree step of vertex w, becomes V(w, .) from its parent step's row or
// from 0 at a root, plus the rows of pt, P transposed, of the step's add
// list, then minus those of its sub list. The rows of the kept vertices
// whose in-set is empty, which have no tree step, become 0. d is prev's
// diagonal outside the block.
func (sw *Sweeper) outerSums(st *sweepWorker, v, pt *simmat.Matrix, d float64, lo, hi int) {
	if lo == hi {
		return
	}
	for _, r := range sw.emptyRows {
		clear(v.Row(int(r))[lo:hi])
	}
	steps, slot := sw.outer.TreeSteps, sw.slot
	for i, s := range steps {
		row := v.Row(int(slot[s.Vertex]))[lo:hi]
		if s.Parent >= 0 {
			copy(row, v.Row(int(slot[steps[s.Parent].Vertex]))[lo:hi])
		} else {
			clear(row)
		}
		add, sub := sw.outer.TreeDiffs.At(i)
		sw.addColumns(st, row, pt, add, d, lo, false)
		sw.addColumns(st, row, pt, sub, d, lo, true)
	}
}

// addColumns adds (or, with sub, subtracts) to row, columns [lo,
// lo+len(row)) of one V row, the terms of the vertices ids in list order:
// the row of pt for a block vertex, kernelRows per call of accumulate, and
// d at the columns of the out-neighbours of a vertex outside the block.
// Such a term meets the block rows in the same cells, so the rows before
// it are added first; with d = 0 it adds +0 and is skipped.
func (sw *Sweeper) addColumns(st *sweepWorker, row []float64, pt *simmat.Matrix, ids []int32, d float64, lo int, sub bool) {
	k := 0
	for _, x := range ids {
		if y := int(sw.slot[x]); y < sw.m {
			st.rows[k] = pt.Row(y)[lo:]
			if k++; k == kernelRows {
				accumulate(row, st.rows[:k], sub)
				k = 0
			}
			continue
		}
		if d == 0 {
			continue
		}
		if k > 0 {
			accumulate(row, st.rows[:k], sub)
			k = 0
		}
		for _, u := range sw.g.Out(int(x)) {
			c := int(sw.slot[u]) - lo
			if c < 0 || c >= len(row) {
				continue
			}
			if sub {
				row[c] -= d
			} else {
				row[c] += d
			}
		}
	}
	if k > 0 {
		accumulate(row, st.rows[:k], sub)
	}
}

// finish writes next from the outer sums v in two passes. The first
// writes the lower triangle, row by row: next(w, u) = (damp/|I(u)|)/|I(w)|
// ·V(w, u) for u < w, the value row u's procedure OP scales at tree step
// w, multiplied in the same order; the diagonal is 1 with pinDiag, else
// the same formula at u = w. The second copies the lower triangle onto
// the upper one, reading each column down and writing each row along:
// strided reads, not strided writes, which on a 2-vCPU Xeon makes the two
// passes 1.6x (m = 499) to 2.5x (m = 1500) faster than writing each value
// to both cells at once. Worker k takes rows k, k+workers, ... of a pass,
// so every cell has one writer.
func (sw *Sweeper) finish(v, next *simmat.Matrix, damp float64, pinDiag bool) {
	m, inv, nd, vd := sw.m, sw.invDeg, next.Data(), v.Data()
	workers := min(sw.workers, max(m, 1))
	par.Do(workers, func(k int) {
		for w := k; w < m; w += workers {
			vr, nr, iu, iw := vd[w*m:w*m+w], nd[w*m:w*m+w], inv[:w], inv[w]
			for u := range vr {
				nr[u] = damp * iu[u] * iw * vr[u]
			}
			if pinDiag {
				nd[w*m+w] = 1
			} else {
				nd[w*m+w] = damp * inv[w] * iw * vd[w*m+w]
			}
		}
	})
	par.Do(workers, func(k int) {
		for u := k; u < m; u += workers {
			row := nd[u*m+u+1 : u*m+m]
			for j := range row {
				row[j] = nd[(u+1+j)*m+u]
			}
		}
	})
}

// SweepTiled is Sweep against the tiled backend, with the per-row kernel
// of the package comment: identical chain schedule, and per cell the
// additions of Sweep in its order (rows of prev are staged from tiles, the
// emitted row lands in an O(m) buffer), with only the canonical upper
// segment of each row stored. Output — and SweepStats — are bit-identical
// to Sweep over dense matrices for every block size and worker count. prev
// and next should come from the same computation's TileStore so one memory
// budget governs both. prev is only read, and the full upper row of next
// is rewritten every time.
func (sw *Sweeper) SweepTiled(prev, next *simmat.Tiled, prevDiag, damp float64, pinDiag bool) error {
	sw.allocTiled()
	errs := make([]error, sw.workers)
	par.Do(sw.workers, func(w int) {
		st := &sw.ws[w]
		// The emit stage writes the same cell set for every row (the tree
		// steps, or the non-empty-set columns without outer sharing), so
		// zeroing once per sweep keeps never-emitted cells — the columns
		// of kept empty in-sets — at their a-priori zero.
		for _, r := range st.rowBuf {
			clear(r)
		}

		// The rows of kept empty in-sets are all-zero except a pinned
		// diagonal; rowBuf[0] is all-zero here by construction.
		buf := st.rowBuf[0]
		lo, hi := par.Range(len(sw.emptyRows), sw.workers, w)
		for _, r := range sw.emptyRows[lo:hi] {
			if pinDiag {
				buf[r] = 1
			}
			err := next.SetRowUpper(int(r), buf)
			if pinDiag {
				buf[r] = 0
			}
			if err != nil {
				errs[w] = err
				return
			}
		}

		load := func(x int, dst []float64) ([]float64, error) { return dst, prev.RowInto(x, dst) }
		errs[w] = sw.walkChains(st, w, prevDiag, load, func(us []int32) error {
			rows := st.rowBuf[:len(us)]
			sw.emit(st, rows, us, damp)
			for j, u := range us {
				if pinDiag {
					// The diagonal cell belongs to row u's canonical
					// segment alone; u heads a non-empty set, so the next
					// emit into this buffer overwrites it regardless.
					rows[j][u] = 1
				}
				if err := next.SetRowUpper(int(u), rows[j]); err != nil {
					return err
				}
			}
			return nil
		})
	})
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// allocTiled allocates the tiled kernel's buffers on the first tiled
// sweep: the slot-mapped tree program, and per worker kernelRows lanes of
// m + e slots, vals, row buffers and staging rows.
func (sw *Sweeper) allocTiled() {
	if sw.ws[0].lanes[0] != nil {
		return
	}
	sw.tree = remap(sw.outer.TreeDiffs, sw.slot)
	sw.treeRow = make([]int32, len(sw.outer.TreeSteps))
	for i, s := range sw.outer.TreeSteps {
		sw.treeRow[i] = sw.slot[s.Vertex]
	}
	for w := range sw.ws {
		st := &sw.ws[w]
		for j := range kernelRows {
			st.lanes[j] = make([]float64, sw.m+sw.e)
			st.rowBuf[j] = make([]float64, sw.m)
			st.stage[j] = make([]float64, sw.m)
		}
		st.vals = make([][kernelRows]float64, len(sw.outer.TreeSteps))
	}
}

// kernelRows is how many rows accumulate folds into one pass over its
// target row, how many rows a tiled sweep stages at a time, and how many
// lanes the tiled procedure OP advances in one pass over the tree
// program. accumulate and emit are written out for four.
const kernelRows = 4

// rowLoader returns block row x of prev: a view of the dense matrix, or
// the row assembled from tiles into dst (a kernelRows-sized staging buffer
// of the worker, or the partial vector itself).
type rowLoader func(x int, dst []float64) ([]float64, error)

// walkChains runs worker w's chains kernelRows steps at a time for the
// tiled kernel. For each step it brings the next lane to the step's inner
// partial-sum vector — a derived step first copies the lane of the step
// before it, which is exact — and after every full group, and after the
// tail, it hands the group's block rows to emit. Chains never branch, so
// no undo is needed, and chains never read each other's state, so workers
// need no locks.
func (sw *Sweeper) walkChains(st *sweepWorker, w int, d float64, load rowLoader, emit func(us []int32) error) error {
	var us [kernelRows]int32
	k := 0
	for _, ch := range sw.sched[w] {
		for i := ch.Start; i < ch.End; i++ {
			step := sw.plan.ChainSteps[i]
			p := st.lanes[k]
			if step.Parent >= 0 {
				// The step before is the previous lane, or the last lane
				// of the previous (full) group.
				copy(p, st.lanes[(k+kernelRows-1)%kernelRows])
			}
			if err := sw.inner(st, p[:sw.m], p[sw.m:], i, d, load); err != nil {
				return err
			}
			us[k] = sw.slot[step.Vertex]
			if k++; k == kernelRows {
				if err := emit(us[:]); err != nil {
					return err
				}
				k = 0
			}
		}
	}
	if k > 0 {
		return emit(us[:k])
	}
	return nil
}

// inner brings the partial vector to Partial_{I(u)} for chain step i:
// from scratch over I(u) at chain starts (lines 5-6 of Algorithm 1),
// otherwise by the step's symmetric difference from the previous set,
// which it holds (Eq. 9; lines 10-11). block is its m block columns, a row
// of next or the front of a tiled lane; ind is the lane's indicators, nil
// for a row of next, which stores none. d is prev's diagonal value outside
// the block, the ± step of an indicator. A from-scratch build copies its
// first block row and clears the indicators; one without a block row
// starts from zero, which adding rows to leaves bit-identical to copying
// the first of them.
func (sw *Sweeper) inner(st *sweepWorker, block, ind []float64, i int, d float64, load rowLoader) error {
	add, sub := sw.plan.ChainDiffs.At(i)
	ops := int64(len(add) + len(sub))
	if sw.plan.ChainSteps[i].Parent < 0 {
		ops-- // the first row of the set is copied, not added
		clear(ind)
		j := 0
		for j < len(add) && int(sw.slot[add[j]]) >= sw.m {
			j++
		}
		if j == len(add) {
			clear(block)
		} else {
			r, err := load(int(sw.slot[add[j]]), block)
			if err != nil {
				return err
			}
			copy(block, r) // a tiled load already wrote it there
		}
		if err := sw.accumulateIDs(st, block, ind, load, add[:j], d, false); err != nil {
			return err
		}
		add = add[min(j+1, len(add)):]
	}
	if err := sw.accumulateIDs(st, block, ind, load, add, d, false); err != nil {
		return err
	}
	if err := sw.accumulateIDs(st, block, ind, load, sub, d, true); err != nil {
		return err
	}
	st.stats.InnerAdds += ops * int64(sw.n)
	return nil
}

// accumulateIDs adds (or, with sub, subtracts) the prev rows of the
// vertices ids to a partial vector: block rows to block, kernelRows per
// call of accumulate, and d to the indicator in ind of each vertex outside
// the block — unless ind is nil, the caller's choice for a row of next.
func (sw *Sweeper) accumulateIDs(st *sweepWorker, block, ind []float64, load rowLoader, ids []int32, d float64, sub bool) error {
	k := 0
	for _, v := range ids {
		x := int(sw.slot[v])
		if x >= sw.m {
			if ind != nil {
				if sub {
					ind[x-sw.m] -= d
				} else {
					ind[x-sw.m] += d
				}
			}
			continue
		}
		r, err := load(x, st.stage[k])
		if err != nil {
			return err
		}
		st.rows[k] = r
		if k++; k == kernelRows {
			accumulate(block, st.rows[:k], sub)
			k = 0
		}
	}
	if k > 0 {
		accumulate(block, st.rows[:k], sub)
	}
	return nil
}

// accumulate adds rows to p, or subtracts them when sub is set, one pass
// over p per group of up to four rows:
//
//	p[y] = p[y] + a[y] + b[y] + c[y] + d[y]
//
// Go evaluates the sum left to right and never reassociates it, so every
// element sees exactly the additions of adding the rows one at a time, in
// the same order — the result is bit-identical to the row-at-a-time loop
// for every group size, while p is loaded and stored once per group. Every
// row must be at least len(p) long; the rows are only read.
func accumulate(p []float64, rows [][]float64, sub bool) {
	for ; len(rows) >= 4; rows = rows[4:] {
		a, b, c, d := rows[0][:len(p)], rows[1][:len(p)], rows[2][:len(p)], rows[3][:len(p)]
		if sub {
			for y := range p {
				p[y] = p[y] - a[y] - b[y] - c[y] - d[y]
			}
		} else {
			for y := range p {
				p[y] = p[y] + a[y] + b[y] + c[y] + d[y]
			}
		}
	}
	switch len(rows) {
	case 3:
		a, b, c := rows[0][:len(p)], rows[1][:len(p)], rows[2][:len(p)]
		if sub {
			for y := range p {
				p[y] = p[y] - a[y] - b[y] - c[y]
			}
		} else {
			for y := range p {
				p[y] = p[y] + a[y] + b[y] + c[y]
			}
		}
	case 2:
		a, b := rows[0][:len(p)], rows[1][:len(p)]
		if sub {
			for y := range p {
				p[y] = p[y] - a[y] - b[y]
			}
		} else {
			for y := range p {
				p[y] = p[y] + a[y] + b[y]
			}
		}
	case 1:
		a := rows[0][:len(p)]
		if sub {
			for y := range p {
				p[y] -= a[y]
			}
		} else {
			for y := range p {
				p[y] += a[y]
			}
		}
	}
}

// emit is the tiled kernel's emit: it computes next(u, w) for every w of
// the block and every block row u of us (at most kernelRows), from the
// group's lanes into the worker's row buffers. It is procedure OP over the
// slot-mapped tree program, all lanes in one pass over the tree steps in
// preorder: each step starts from 0 (a tree root, line 2 of procedure OP)
// or from its parent step's values (Proposition 4; line 8) and applies the
// step's slot range to every lane, so each row's additions equal the tree
// weight. Each lane is its own add chain in the one-row order; four
// independent chains keep the adder busy where one would wait on every
// add's latency. In a tail group the missing lanes alias lane 0's partial
// vector and row: they compute and write lane 0's bits again. Without
// outer sharing the tree is all roots, and each step is the psum-SR
// per-target sum over the whole in-set.
func (sw *Sweeper) emit(st *sweepWorker, rows [][]float64, us []int32, damp float64) {
	var lane [kernelRows][]float64
	var row [kernelRows][]float64
	var scale [kernelRows]float64
	for j := range kernelRows {
		k := j
		if j >= len(us) {
			k = 0
		}
		lane[j], row[j], scale[j] = st.lanes[k], rows[k], damp*sw.invDeg[us[k]]
	}
	// Equal lengths let one bounds check cover all four loads or stores.
	p0 := lane[0]
	p1, p2, p3 := lane[1][:len(p0)], lane[2][:len(p0)], lane[3][:len(p0)]
	r0 := row[0]
	r1, r2, r3 := row[1][:len(r0)], row[2][:len(r0)], row[3][:len(r0)]
	s0, s1, s2, s3 := scale[0], scale[1], scale[2], scale[3]

	steps, d, inv := sw.outer.TreeSteps, &sw.tree, sw.invDeg
	ids, off, split := d.IDs, d.Off[:len(steps)+1], d.Split[:len(steps)]
	vals, at := st.vals[:len(steps)], sw.treeRow[:len(steps)]
	for i, s := range steps {
		var v0, v1, v2, v3 float64
		if s.Parent >= 0 {
			pv := &vals[s.Parent]
			v0, v1, v2, v3 = pv[0], pv[1], pv[2], pv[3]
		}
		for _, y := range ids[off[i]:split[i]] {
			v0 += p0[y]
			v1 += p1[y]
			v2 += p2[y]
			v3 += p3[y]
		}
		for _, y := range ids[split[i]:off[i+1]] {
			v0 -= p0[y]
			v1 -= p1[y]
			v2 -= p2[y]
			v3 -= p3[y]
		}
		vals[i] = [kernelRows]float64{v0, v1, v2, v3}
		w := at[i]
		r0[w] = s0 * inv[w] * v0
		r1[w] = s1 * inv[w] * v1
		r2[w] = s2 * inv[w] * v2
		r3[w] = s3 * inv[w] * v3
	}
	// The tree steps' diffs sum to the tree weight, once per real row.
	st.stats.OuterAdds += int64(len(us)) * int64(sw.outer.TreeWeight)
}
