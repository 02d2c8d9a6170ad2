package walkindex

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync/atomic"

	"oipsr/graph"
	"oipsr/internal/par"
)

// All-pairs top-k similarity join.
//
// Join answers "which pairs of vertices are most similar?" without an
// n-source SparseRows sweep, let alone the Theta(n^2) state of the batch
// engines. It exploits the same structure the batched path does — walkers
// standing on the same vertex at the same (fingerprint, step) — but
// inverted: instead of looking sources up per target, it groups ALL
// walkers of one slot by position, because exactly the co-located groups
// are where estimate mass comes from. A pair that is never co-located has
// estimate 0, and a pair whose earliest co-location (over every
// fingerprint) is at step t has estimate at most C^(t+1): each
// fingerprint's first-meeting weight is bounded by the earliest one, and
// the estimate is an average of those weights.
//
// That bound is the contribution-weight prune: for a score threshold
// theta, only the slots with C^(t+1) >= theta (t <= T_theta, a constant
// depth for fixed theta) can introduce a pair that reaches theta, so
// candidate generation touches R*(T_theta+1) slots instead of R*K — and,
// more importantly, it enumerates only co-located pairs, whose count on
// real graphs is far below n^2/2 at useful thresholds. Candidates are then
// re-scored exactly (the same arithmetic as SparseRows/Pair) and the
// top-k above the threshold survive.
//
// The join partitions along the FINGERPRINT axis, not the vertex axis: a
// candidate pair is any two vertices co-located at some (fingerprint,
// step) slot within the prune depth, and one fingerprint's slots need the
// positions of ALL n vertices — which every range can produce, because
// walk prefixes are pure hash recomputations (walkFrom) regardless of who
// stores them. Each member of a fleet therefore enumerates a disjoint
// fingerprint range (JoinCandidates), the router unions the candidate sets
// (each a subset of the distinct-pair union, so the cap trips exactly when
// the single-node merge would), pair scoring scatters back (ScorePairs),
// and FinishJoin on the merged scored pairs reproduces Join bitwise. Join
// itself is that pipeline over the one fingerprint range [0, R).

// JoinPair is one result pair of a similarity join, canonical A < B. The
// JSON tags are the /v1/join and /shard/v1/join_score wire form.
type JoinPair struct {
	A     int     `json:"a"`
	B     int     `json:"b"`
	Score float64 `json:"score"`
}

// ErrTooDense reports a join whose candidate set outgrew the caller's cap:
// the threshold is too low (or the graph's walks coalesce too heavily) for
// pair enumeration to stay bounded. Raise the threshold or the cap.
var ErrTooDense = errors.New("walkindex: join candidate set exceeds the cap")

// genSlack widens the candidate-generation depth by a hair: a pair whose
// true bound sits exactly at the threshold could otherwise be pruned while
// floating-point summation rounds its exact estimate to just above it.
const genSlack = 1 - 1e-9

// CheckJoinArgs validates the shared join arguments. Join performs the
// same checks; the router validates before scattering so a bad request is
// rejected once, with the same error text a single-node daemon produces.
func CheckJoinArgs(k int, threshold float64, maxCandidates int) error {
	if k < 1 {
		return fmt.Errorf("walkindex: join top-k size %d < 1", k)
	}
	if threshold < 0 || threshold > 1 {
		return fmt.Errorf("walkindex: join threshold %v outside [0,1]", threshold)
	}
	if maxCandidates < 1 {
		return fmt.Errorf("walkindex: join candidate cap %d < 1", maxCandidates)
	}
	return nil
}

// TooDenseError builds the ErrTooDense-wrapped overflow error every join
// layer reports — per-worker caps, the single-node merge, and the router's
// cross-shard merge all fail with byte-identical text.
func TooDenseError(threshold float64, maxCandidates int) error {
	return fmt.Errorf("%w: threshold %v admits more than %d co-located pairs", ErrTooDense, threshold, maxCandidates)
}

// joinDepth returns the last step index whose first-meeting weight clears
// the threshold, or -1 when no slot can (pow is strictly decreasing, so
// the scan stops early).
func joinDepth(pow []float64, threshold float64) int {
	maxT := -1
	for t, w := range pow {
		if w < threshold*genSlack {
			break
		}
		maxT = t
	}
	return maxT
}

// FinishJoin applies the join tail to exactly-scored candidate pairs:
// filter to positive scores at or above the threshold, order by decreasing
// score with ties broken by (a, b), truncate to k. It mutates pairs and
// returns a slice of it. Join and the router's cross-shard merge share it,
// so a merged result ranks and truncates exactly as a single node would.
func FinishJoin(pairs []JoinPair, k int, threshold float64) []JoinPair {
	kept := pairs[:0]
	for _, p := range pairs {
		if p.Score >= threshold && p.Score > 0 {
			kept = append(kept, p)
		}
	}
	sort.Slice(kept, func(i, j int) bool {
		if kept[i].Score != kept[j].Score {
			return kept[i].Score > kept[j].Score
		}
		if kept[i].A != kept[j].A {
			return kept[i].A < kept[j].A
		}
		return kept[i].B < kept[j].B
	})
	if k > len(kept) {
		k = len(kept)
	}
	return kept[:k:k]
}

// Join returns the top-k vertex pairs (a < b) with estimated SimRank score
// at least threshold, in decreasing score order with ties broken by (a, b).
// Scores are the same estimates SparseRows produces, bit-identically,
// and the result is exhaustive: every pair the full n x n estimate matrix
// ranks in its top-k above the threshold appears (threshold 0 means every
// pair with a positive estimate). maxCandidates caps the enumerated
// co-located pair set — ErrTooDense reports overflow before memory does.
// The result is bit-identical for every worker count. Cancelling ctx
// abandons the join at the next chunk boundary (workers poll between
// slots during enumeration and between candidates during re-scoring) and
// returns the context's error.
func (ix *Index) Join(ctx context.Context, g *graph.Graph, k int, threshold float64, maxCandidates, workers int) ([]JoinPair, error) {
	if err := CheckJoinArgs(k, threshold, maxCandidates); err != nil {
		return nil, err
	}
	keys, err := ix.JoinCandidates(ctx, g, threshold, 0, ix.r, maxCandidates, workers)
	if err != nil {
		return nil, err
	}
	pairs, err := ix.ScorePairs(ctx, g, keys, workers)
	if err != nil {
		return nil, err
	}
	return FinishJoin(pairs, k, threshold), nil
}

// JoinCandidates enumerates the co-located vertex pairs of fingerprints
// [fpLo, fpHi) within the threshold's prune depth, returning canonical
// a<b keys (a<<32|b) in ascending order. The union of the key sets over a
// partition of [0, R) is exactly the candidate set Join enumerates.
// maxCandidates caps this call's set — every per-range set is a subset of
// the full distinct-pair union, so an overflow here implies the
// single-node join overflows too (the converse is caught by the caller's
// merge, which must re-apply the cap as the union grows).
//
// g supplies the walk prefixes of vertices the index does not store (see
// Index for when it may be nil).
func (ix *Index) JoinCandidates(ctx context.Context, g *graph.Graph, threshold float64, fpLo, fpHi, maxCandidates, workers int) ([]uint64, error) {
	if fpLo < 0 || fpHi < fpLo || fpHi > ix.r {
		return nil, fmt.Errorf("walkindex: fingerprint range [%d,%d) outside [0,%d)", fpLo, fpHi, ix.r)
	}
	if maxCandidates < 1 {
		return nil, fmt.Errorf("walkindex: join candidate cap %d < 1", maxCandidates)
	}
	// Depth prune: slots past maxT cannot introduce a pair reaching the
	// threshold.
	maxT := joinDepth(ix.pow, threshold)
	if maxT < 0 || ix.n < 2 || fpLo == fpHi {
		return []uint64{}, ctx.Err()
	}

	// Parallel over fingerprints: enumerate co-located pairs into per-worker
	// dedup sets. The slot scan is position-major — entry (v, fp, t) for
	// every v — so each fingerprint's prefix positions (depth maxT+1) are
	// materialized once, vertex-sequentially: owned rows are read from the
	// store, foreign ones are recomputed as prefix walks,
	// bit-identical to the rows the owning range stores. That is
	// O(n·(maxT+1)) per fingerprint — the same order as scanning the slots
	// it feeds. Grouping a slot by position uses intrusive chains (head/next
	// over vertex ids) — two flat int32 arrays per worker, no per-slot map
	// churn.
	hseed := splitmix64(uint64(ix.seed))
	depth := maxT + 1
	parts := par.ResolveMax(workers, fpHi-fpLo)
	sets := make([]map[uint64]struct{}, parts)
	var overflow atomic.Bool
	par.Do(parts, func(w int) {
		wlo, whi := par.Range(fpHi-fpLo, parts, w)
		check := par.NewCancelChecker(ctx, 1) // each slot is O(n) work
		set := make(map[uint64]struct{})
		pos := make([]int32, ix.n*depth) // pos[v*depth+t]
		head := make([]int32, ix.n)
		next := make([]int32, ix.n)
		for fp := fpLo + wlo; fp < fpLo+whi; fp++ {
			if overflow.Load() || check.Stop() != nil {
				return
			}
			for v := 0; v < ix.n; v++ {
				row := pos[v*depth : (v+1)*depth]
				if ix.Owns(v) {
					for t := copy(row, ix.store.row(v-ix.lo).walk(fp)); t < depth; t++ {
						row[t] = -1 // dead past the walk's end
					}
				} else {
					walkFrom(g, hseed, fp, 0, v, row)
				}
			}
			for t := 0; t <= maxT; t++ {
				if overflow.Load() || check.Stop() != nil {
					return
				}
				for i := range head {
					head[i] = -1
				}
				alive := false
				for v := 0; v < ix.n; v++ {
					p := pos[v*depth+t]
					if p < 0 {
						continue
					}
					alive = true
					next[v] = head[p]
					head[p] = int32(v)
				}
				if !alive {
					break // every walker of this fingerprint is dead
				}
				for p := 0; p < ix.n; p++ {
					// The chain holds every walker standing on p, in
					// decreasing vertex id; all pairs within it co-locate
					// here, so all are candidates. Coalesced walks make
					// huge chains the norm on hub graphs — one chain of
					// length g yields g(g-1)/2 pairs — so the cap is
					// enforced per insertion, before memory is committed,
					// not per chain.
					for b := head[p]; b >= 0; b = next[b] {
						for a := next[b]; a >= 0; a = next[a] {
							set[uint64(a)<<32|uint64(b)] = struct{}{}
							if len(set) > maxCandidates {
								overflow.Store(true)
								return
							}
						}
					}
				}
			}
		}
		sets[w] = set
	})
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if overflow.Load() {
		return nil, TooDenseError(threshold, maxCandidates)
	}
	// Merge with the cap enforced as the union grows: per-worker sets each
	// respect the cap, but their union must too — and must fail before it
	// occupies workers-times the promised memory bound.
	merged := sets[0]
	for _, set := range sets[1:] {
		for key := range set {
			merged[key] = struct{}{}
			if len(merged) > maxCandidates {
				return nil, TooDenseError(threshold, maxCandidates)
			}
		}
	}
	keys := make([]uint64, 0, len(merged))
	for key := range merged {
		keys = append(keys, key)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	return keys, nil
}

// ScorePairs computes the exact estimate of every candidate key (canonical
// a<<32|b) via the same arithmetic as SparseRows and Pair, so scores —
// and therefore the threshold filter and the final order — match the full
// estimate matrix bitwise. Rows of unowned vertices are recomputed from g
// and memoized per worker. Cancelling ctx abandons the scoring and returns
// the context's error.
func (ix *Index) ScorePairs(ctx context.Context, g *graph.Graph, keys []uint64, workers int) ([]JoinPair, error) {
	pairs := make([]JoinPair, len(keys))
	if len(keys) == 0 {
		return pairs, ctx.Err()
	}
	parts := par.ResolveMax(workers, len(keys))
	par.Do(parts, func(w int) {
		lo, hi := par.Range(len(keys), parts, w)
		check := par.NewCancelChecker(ctx, 64) // each pair is O(R·K) work
		// Foreign rows memoize per worker: candidate keys are sorted, so
		// repeated a-sides hit the cache run-length style, and heavily
		// co-located b-sides (hub vertices) hit it across keys.
		cache := make(map[int]walkRow)
		rowFor := func(v int) walkRow {
			if ix.Owns(v) {
				return ix.store.row(v - ix.lo)
			}
			if row, ok := cache[v]; ok {
				return row
			}
			row := ix.sourceRow(g, v, nil)
			cache[v] = row
			return row
		}
		for i := lo; i < hi; i++ {
			if check.Stop() != nil {
				return // partial scores are discarded below
			}
			a, b := int(keys[i]>>32), int(keys[i]&0xFFFFFFFF)
			pairs[i] = JoinPair{A: a, B: b, Score: pairFromRows(rowFor(a), rowFor(b), ix.pow, ix.r)}
		}
	})
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return pairs, nil
}
