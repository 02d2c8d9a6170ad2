package walkindex

import (
	"errors"
	"fmt"
	"math"
	"slices"

	"oipsr/graph"
)

// ErrTooLarge reports an index whose walk count exceeds what incremental
// maintenance supports — a capacity limit of this build, not a caller
// mistake (servers should map it to a 5xx, not a 4xx).
var ErrTooLarge = errors.New("walkindex: index too large for incremental updates")

// Incremental maintenance under graph edits.
//
// The hash-driven coupling makes repair local: the in-edge a walker takes at
// step t is a pure function of (seed, fingerprint, step, current vertex), so
// a walk's path can only change if the walk occupies a vertex whose
// in-neighbor list changed — and then only from the first such occupancy
// onward. Update therefore recomputes just the suffixes of affected walks,
// and the repaired index is bit-identical to a fresh Build on the edited
// graph by construction (the untouched prefixes contain no dirty vertex, so
// every hash argument along them is unchanged).
//
// The same coupling finds the affected walks without any stored structure:
// probe runs it backwards (ProbeSim's PROBE, made exact). Occupancy time 0
// is a walk's start vertex; time t in [1, K] is its position after step t.
// Per fingerprint, B_{K-1} is the dirty set D, and B_t is D plus every
// non-dirty z whose coupled move at step t lands in B_{t+1} — found among
// the out-neighbours of B_{t+1}. The owned starts in B_0 are exactly the
// walks that stand on D before the horizon. The probe never expands
// through a dirty vertex, so the edited graph is enough: every non-dirty
// vertex has the same in-list in both graphs.
//
// The repair is range-agnostic: walk ids are store-local, positions are
// global (an owned walk can occupy any vertex of the graph), so a sharded
// deployment repairs each range's walks with exactly the code the
// single-node daemon runs — the union of per-range repairs is the
// single-node repair. The resident store rewrites a repaired group in
// place or at the tail of its chunk (walkstore.go); an index opened with
// LoadWriteBack then appends the repaired walks to its edit log, and at a
// checkpoint rewrites its file from the resident rows (editlog.go,
// writeback.go).

// maxWalks bounds width*R so store-local walk ids — (v-lo)*R + fp — fit
// in the int32 the repair passes them as.
const maxWalks = math.MaxInt32

// CheckUpdatable returns an error wrapping ErrTooLarge when the index owns
// more walks than Update can address; Update makes the same check.
func (ix *Index) CheckUpdatable() error {
	if int64(ix.hi-ix.lo)*int64(ix.r) > maxWalks {
		return fmt.Errorf("%w: width*R = %d*%d exceeds %d walks", ErrTooLarge, ix.hi-ix.lo, ix.r, maxWalks)
	}
	return nil
}

// probe returns the owned walks that stand on a dirty vertex before the
// horizon, as store-local ids ascending, and the number of coupled moves it
// hashed. isDirty marks the vertices of D, listed once each in d.
func (ix *Index) probe(g *graph.Graph, d []int, isDirty []bool) (walks []int32, checks int) {
	hseed := splitmix64(uint64(ix.seed))
	var cur, next []int
	for fp := 0; fp < ix.r; fp++ {
		cur = append(cur[:0], d...) // B_{K-1}
		for t := ix.k - 2; t >= 0; t-- {
			next = append(next[:0], d...)
			for _, y := range cur {
				for _, z := range g.Out(y) {
					if isDirty[z] {
						continue
					}
					in := g.In(z)
					checks++
					if in[edgeChoice(hseed, fp, t, z, len(in))] == y {
						next = append(next, z)
					}
				}
			}
			cur, next = next, cur
		}
		for _, s := range cur {
			if ix.Owns(s) {
				walks = append(walks, int32((s-ix.lo)*ix.r+fp))
			}
		}
	}
	slices.Sort(walks)
	return walks, checks
}

// firstDirty returns the first time before the horizon k at which the walk
// from start with stored path stands on a dirty vertex, or -1: time 0 is
// start, time t the live path entry t-1.
func firstDirty(start int, path []int32, k int, isDirty []bool) int {
	if isDirty[start] {
		return 0
	}
	for t := 1; t < k && t <= len(path) && path[t-1] >= 0; t++ {
		if isDirty[path[t-1]] {
			return t
		}
	}
	return -1
}

// Update repairs the index in place after the graph it was built on changed
// into g. dirty must list every vertex of the FULL graph whose in-neighbor
// list differs between the two graphs (graph.ApplyEdits reports exactly
// this set as EditSummary.DirtyIn) — dirty vertices outside [lo, hi) still
// matter, an owned walk can occupy them; listing extra vertices is
// harmless, omitting a changed one silently corrupts the repair. The
// vertex count must be unchanged.
//
// Update recomputes only the suffixes of walks that occupy a dirty vertex
// before the horizon, so its cost scales with the number of affected walks
// rather than n·R·K; the result is bit-identical to Build on g with the
// same options and range, for every worker count — so every member of a
// fleet applying the same edits stays a consistent partition of the
// single-node index. It returns the number of walks repaired.
//
// Update also moves the repaired walkers to their new slots in the
// coalescence order (forest.patch) — a key search and a local shift per
// walker, never a re-sort — and the patched order's live slots are the
// order that fresh Build sorts, entry for entry. On an index opened with
// LoadWriteBack it then makes the batch durable: one record of the
// repaired walks appended to the file's edit log and fsynced, or a
// checkpoint that rewrites the file on workers goroutines (editlog.go); if
// that fails, the error wraps ErrWriteBack and the index in memory is
// repaired all the same.
//
// A loaded index repairs once AttachGraph has sorted its order, and
// refuses before. Update must not run concurrently with queries or other
// Updates; callers serving live traffic serialize it behind a write lock
// (see cmd/simrankd).
func (ix *Index) Update(g *graph.Graph, dirty []int, workers int) (int, error) {
	if g.NumVertices() != ix.n {
		return 0, fmt.Errorf("walkindex: updated graph has %d vertices, index was built on %d", g.NumVertices(), ix.n)
	}
	for _, d := range dirty {
		if d < 0 || d >= ix.n {
			return 0, fmt.Errorf("walkindex: dirty vertex %d out of range [0,%d)", d, ix.n)
		}
	}
	if err := ix.CheckUpdatable(); err != nil {
		return 0, err
	}
	if ix.forest == nil {
		return 0, errNoGraph
	}
	walks, _ := ix.repair(g, dirty, workers)
	if ix.file == nil {
		return len(walks), nil
	}
	return len(walks), ix.persist(walks, workers)
}

// dirtySet deduplicates dirty into a list and a membership mark over the
// n vertices.
func dirtySet(n int, dirty []int) ([]int, []bool) {
	isDirty := make([]bool, n)
	d := make([]int, 0, len(dirty))
	for _, v := range dirty {
		if !isDirty[v] {
			isDirty[v] = true
			d = append(d, v)
		}
	}
	return d, isDirty
}

// repair recomputes the suffixes of stored walks that occupy a dirty
// vertex before the horizon and patches the coalescence order, returning
// the repaired store-local walk ids, ascending, and what the patch
// rewrote. The caller validates dirty.
func (ix *Index) repair(g *graph.Graph, dirty []int, workers int) ([]int32, patchStats) {
	d, isDirty := dirtySet(ix.n, dirty)
	walks, _ := ix.probe(g, d, isDirty)
	if len(walks) == 0 {
		return nil, patchStats{}
	}

	// One store rewrite per vertex (walks are ascending, so a vertex's
	// walks are adjacent): replay each walk's suffix on the new graph in
	// place, from its first dirty occupancy. The prefix is valid for the
	// new graph because it never stands on a dirty vertex.
	hseed := splitmix64(uint64(ix.seed))
	fps := make([]int, 0, ix.r)
	for i, j := 0, 0; i < len(walks); i = j {
		v := int(walks[i]) / ix.r
		fps = fps[:0]
		for j = i; j < len(walks) && int(walks[j])/ix.r == v; j++ {
			fps = append(fps, int(walks[j])%ix.r)
		}
		start := ix.lo + v
		ix.store.rewrite(v, fps, func(f int, row []int32) {
			tau, p := firstDirty(start, row, ix.k, isDirty), start
			if tau > 0 {
				p = int(row[tau-1])
			}
			walkFrom(g, hseed, fps[f], tau, p, row)
		})
	}
	return walks, ix.forest.patch(ix, walks, workers)
}
