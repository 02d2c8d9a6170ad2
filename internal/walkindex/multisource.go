package walkindex

import (
	"context"
	"sort"

	"oipsr/graph"
	"oipsr/internal/par"
)

// Batched multi-source queries.
//
// MultiSource has two paths, chosen by the storage backend like
// SingleSource's. On an index whose rows are resident it answers each
// source from the coalescence order (walkorder.go) over the owned range, in
// parallel over sources: a batch costs the sum of its answers. The rest of
// this file is the mapped path, where one source costs a sweep of the
// whole store and a batch must not pay it S times.
//
// A swept SingleSource call compares every stored target position against
// the source's walker at the same (fingerprint, step). Answering a batch
// of S sources with S independent sweeps costs O(S*n*R*K), even though the
// sweeps read identical data. The batched sweep amortizes that shared
// traversal: the batch's source walker positions are gathered into one
// sorted table per (fingerprint, step) slot, and a single sweep over the
// path store looks each target position up in its slot's table, crediting
// every source whose walker stands there in one step. The sweep costs
// O(n*R*K*log S) lookups plus one accumulator update per first meeting, so
// cost per source shrinks as the batch grows.
//
// The sweep is node-parallel over targets: each worker owns a contiguous
// target range and writes disjoint cells of the per-source score rows, with
// the slot tables shared read-only — the same discipline as Build, so
// results are bit-identical for every worker count.

// srcEntry records that the batch source with ordinal si has its walker at
// position pos in some (fingerprint, step) slot of the slot table.
type srcEntry struct {
	pos int32
	si  int32
}

// MultiSource estimates s(q, v) for every source q in sources and every
// OWNED target v in [lo, hi), returning one score row per source:
// out[i][v-lo] is s(sources[i], v), and the entry for an owned source
// itself is exactly 1. On a full-range index every row is bit-identical to
// SingleSource(sources[i], nil); on a narrower range it is the exact
// [lo, hi) sub-slice of that row — for every worker count (1 = serial, <1 =
// all CPUs): per (source, target) pair the same first-meeting weights are
// accumulated in the same fingerprint order and scaled by the same 1/R, so
// not even the floating-point rounding differs, and concatenating the rows
// of a covering set of ranges reproduces the single-node answer without
// any merge arithmetic. Sources outside [lo, hi) are recomputed from g
// (see Index for when g may be nil).
//
// Sources must be valid vertex ids of the full graph (the serving layer
// validates); duplicates are allowed and produce identical rows.
//
// Cancelling ctx abandons the query at the next poll (every worker polls
// between fingerprints of the order, or between target vertices of the
// sweep) and returns the context's error; the returned rows are then nil.
// An uncancelled ctx never changes the result.
func (ix *Index) MultiSource(ctx context.Context, g *graph.Graph, sources []int, workers int) ([][]float64, error) {
	width := ix.hi - ix.lo
	out := make([][]float64, len(sources))
	for i := range out {
		out[i] = make([]float64, width)
	}
	if len(sources) == 0 || width == 0 {
		return out, ctx.Err()
	}
	if ix.forest != nil {
		if err := ix.multiSourceForest(ctx, g, sources, out, workers); err != nil {
			return nil, err
		}
		return out, nil
	}

	// Materialize every source's walks once — owned rows are the stored
	// ones, foreign rows are recomputed.
	srcRows := make([]walkRow, len(sources))
	tableCheck := par.NewCancelChecker(ctx, 4) // each source is O(R·K) work
	for si, q := range sources {
		if err := tableCheck.Stop(); err != nil {
			return nil, err
		}
		srcRows[si] = ix.sourceRow(g, q, nil)
	}

	// Slot tables: slot (fp, t) holds the living source walker positions at
	// step t of fingerprint fp, sorted by position, as
	// entries[off[fp*k+t]:off[fp*k+t+1]]. Dead walkers are excluded; since a
	// dead walk stays dead, slot sizes are non-increasing in t within one
	// fingerprint, and an empty slot ends the sweep's step loop early.
	nslots := ix.r * ix.k
	off := make([]int, nslots+1)
	for _, row := range srcRows {
		for fp := 0; fp < ix.r; fp++ {
			for t, p := range row.walk(fp) {
				if p < 0 {
					break
				}
				off[fp*ix.k+t+1]++
			}
		}
	}
	for i := 1; i <= nslots; i++ {
		off[i] += off[i-1]
	}
	entries := make([]srcEntry, off[nslots])
	cur := make([]int, nslots)
	copy(cur, off[:nslots])
	for si, row := range srcRows {
		for fp := 0; fp < ix.r; fp++ {
			for t, p := range row.walk(fp) {
				if p < 0 {
					break
				}
				slot := fp*ix.k + t
				entries[cur[slot]] = srcEntry{pos: p, si: int32(si)}
				cur[slot]++
			}
		}
	}
	for s := 0; s < nslots; s++ {
		seg := entries[off[s]:off[s+1]]
		sort.Slice(seg, func(i, j int) bool {
			if seg[i].pos != seg[j].pos {
				return seg[i].pos < seg[j].pos
			}
			return seg[i].si < seg[j].si
		})
	}

	inv := 1 / float64(ix.r)
	parts := par.ResolveMax(workers, width)
	par.Do(parts, func(w int) {
		wlo, whi := par.Range(width, parts, w)
		ix.store.Prefetch(wlo, whi) // each worker sweeps its target range in order
		check := par.NewCancelChecker(ctx, cancelCheckTargets)
		acc := make([]float64, len(sources))
		// met[si] == epoch marks "si already met the current (target,
		// fingerprint)"; bumping the epoch clears all marks at once.
		met := make([]int, len(sources))
		epoch := 0
		for v := wlo; v < whi; v++ { // store-local target
			if check.Stop() != nil {
				return // partial rows are discarded below
			}
			for i := range acc {
				acc[i] = 0
			}
			blk := ix.store.row(v)
			for fp := 0; fp < ix.r; fp++ {
				epoch++
				for t, pv := range blk.walk(fp) {
					if pv < 0 {
						break // a dead target never meets anyone
					}
					seg := entries[off[fp*ix.k+t]:off[fp*ix.k+t+1]]
					if len(seg) == 0 {
						break // every source walker is already dead
					}
					i := sort.Search(len(seg), func(i int) bool { return seg[i].pos >= pv })
					for ; i < len(seg) && seg[i].pos == pv; i++ {
						si := seg[i].si
						if met[si] == epoch {
							continue // first meeting only: C^(t+1) once per fp
						}
						met[si] = epoch
						acc[si] += ix.pow[t]
					}
				}
			}
			for si := range acc {
				out[si][v] = acc[si] * inv
			}
		}
	})
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	// Overwrite each owned source's own entry with the exact 1 SingleSource
	// promises (the sweep instead credits the trivial self-meeting at the
	// first step, which would leave C there) — only the owning range holds
	// that cell.
	for si, q := range sources {
		if ix.Owns(q) {
			out[si][q-ix.lo] = 1
		}
	}
	return out, nil
}
