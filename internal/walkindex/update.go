package walkindex

import (
	"errors"
	"fmt"
	"math"
	"sort"

	"oipsr/graph"
	"oipsr/internal/par"
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
// Affected walks are found through an inverted visit index: for every
// vertex x, a posting list of (walk, first time the walk occupies x).
// Occupancy time 0 is the walk's start vertex; time t in [1, K] is the
// stored position after step t. The visit index is built lazily on the
// first Update (in parallel over vertices) and patched incrementally as
// walks are repaired, so a long stream of small edit batches never rescans
// the whole path store.
//
// The repair is range-agnostic: walk ids are store-local, positions and the
// visit index are global (an owned walk can occupy any vertex of the
// graph), so a sharded deployment repairs each range's walks with exactly
// the code the single-node daemon runs — the union of per-range repairs is
// the single-node repair. The resident store rewrites a repaired group in
// place or in its tail arena (walkstore.go); an index opened with
// LoadWriteBack then re-encodes the repaired vertices, and their
// successors in the same posting block, into its file and copies every
// other vertex's bytes (writeback.go).

// visitPosting says a walk's path occupies some vertex, first at the given
// time. Walk ids are store-local — (v-lo)*R + fp — bounded by maxWalks.
type visitPosting struct {
	walk int32
	time uint16
}

// maxWalks bounds width*R so walk ids fit in the posting's int32.
const maxWalks = math.MaxInt32

// rawVisit is a posting tagged with its vertex, the per-worker scratch
// format of buildVisits and the patch format of repair.
type rawVisit struct {
	x int32
	p visitPosting
}

// visitPair is one (vertex, first occupancy time) entry of a single walk's
// visit list — the walk-side view of a posting.
type visitPair struct {
	x    int32
	time uint16
}

// lookupVisit returns the first-visit time of x in one walk's visit list.
func lookupVisit(list []visitPair, x int32) (uint16, bool) {
	for _, p := range list {
		if p.x == x {
			return p.time, true
		}
	}
	return 0, false
}

// PrepareUpdate builds the inverted visit index eagerly (it is otherwise
// built lazily by the first Update call). Workers follow the Build
// convention: 1 means serial, below 1 means all CPUs. It returns an error
// when the index is too large for incremental maintenance.
func (ix *Index) PrepareUpdate(workers int) error {
	if ix.visits != nil {
		return nil
	}
	if int64(ix.hi-ix.lo)*int64(ix.r) > maxWalks {
		return fmt.Errorf("%w: width*R = %d*%d exceeds %d walks", ErrTooLarge, ix.hi-ix.lo, ix.r, maxWalks)
	}
	ix.setVisits(ix.buildVisits(workers))
	return nil
}

// buildVisits scans every stored path once, in parallel over vertices, and
// assembles per-vertex posting lists holding each walk's first occupancy.
func (ix *Index) buildVisits(workers int) [][]visitPosting {
	width := ix.hi - ix.lo
	parts := par.ResolveMax(workers, width)
	bufs := make([][]rawVisit, parts)
	par.Do(parts, func(w int) {
		lo, hi := par.Range(width, parts, w)
		var buf []rawVisit
		scratch := make([]visitPair, 0, ix.k+1)
		for v := lo; v < hi; v++ { // store-local start vertex
			for fp := 0; fp < ix.r; fp++ {
				walk := int32(v*ix.r + fp)
				scratch = firstVisitsPath(int32(ix.lo+v), ix.pathRow(walk), scratch[:0])
				for _, p := range scratch {
					buf = append(buf, rawVisit{x: p.x, p: visitPosting{walk: walk, time: p.time}})
				}
			}
		}
		bufs[w] = buf
	})

	counts := make([]int, ix.n)
	total := 0
	for _, buf := range bufs {
		for _, rv := range buf {
			counts[rv.x]++
		}
		total += len(buf)
	}
	// One flat allocation sliced per vertex; later patches that grow a list
	// reallocate just that vertex's slice.
	flat := make([]visitPosting, total)
	visits := make([][]visitPosting, ix.n)
	off := 0
	for x, c := range counts {
		visits[x] = flat[off : off : off+c]
		off += c
	}
	for _, buf := range bufs {
		for _, rv := range buf {
			visits[rv.x] = append(visits[rv.x], rv.p)
		}
	}
	return visits
}

// pathRow returns the stored path of a store-local walk id, read-only.
func (ix *Index) pathRow(walk int32) []int32 {
	return ix.path(walk/int32(ix.r), int(walk)%ix.r)
}

// firstVisitsPath appends (vertex, first occupancy time) pairs for the walk
// starting at `start` with stored path `path` to dst and returns it: time 0
// at the start vertex, time t+1 at path entry t, stopping at death. Pairs
// are appended in occupancy order, so times are strictly increasing. The
// list is at most K+1 long and K is small, so the linear dedup scan beats a
// map by a wide margin.
func firstVisitsPath(start int32, path []int32, dst []visitPair) []visitPair {
	dst = append(dst, visitPair{x: start, time: 0})
	for t, p := range path {
		if p < 0 {
			break
		}
		seen := false
		for _, d := range dst {
			if d.x == p {
				seen = true
				break
			}
		}
		if !seen {
			dst = append(dst, visitPair{x: p, time: uint16(t + 1)})
		}
	}
	return dst
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
// Update also moves the repaired walkers to their new ranks in the
// coalescence order (forest.patch) — one pass per touched fingerprint,
// never a re-sort — and the patched order is the one that fresh Build
// sorts, entry for entry. On an index opened with LoadWriteBack it then
// writes the repaired vertices back to the file, re-encoding those whose
// bytes can have changed and copying the rest; if that fails, the error
// wraps ErrWriteBack and the index in memory is repaired all the same.
//
// Update must not run concurrently with queries or other Updates; callers
// serving live traffic serialize it behind a write lock (see cmd/simrankd).
func (ix *Index) Update(g *graph.Graph, dirty []int, workers int) (int, error) {
	if g.NumVertices() != ix.n {
		return 0, fmt.Errorf("walkindex: updated graph has %d vertices, index was built on %d", g.NumVertices(), ix.n)
	}
	for _, d := range dirty {
		if d < 0 || d >= ix.n {
			return 0, fmt.Errorf("walkindex: dirty vertex %d out of range [0,%d)", d, ix.n)
		}
	}
	if err := ix.PrepareUpdate(workers); err != nil {
		return 0, err
	}
	walks := ix.repair(g, dirty, workers)
	if ix.file == nil {
		return len(walks), nil
	}
	ix.file.markDirty(walks, ix.r)
	return len(walks), ix.writeBack()
}

// repair recomputes the suffixes of stored walks that occupy a dirty
// vertex before the horizon and patches the visit index and the
// coalescence order, returning the repaired store-local walk ids,
// ascending. The caller validates dirty and has built ix.visits.
func (ix *Index) repair(g *graph.Graph, dirty []int, workers int) []int32 {
	// A walk is affected iff it occupies some dirty vertex at a time from
	// which a further move is made, i.e. before the horizon; repair starts
	// at the earliest such occupancy.
	firstDirty := make(map[int32]uint16)
	for _, d := range dirty {
		for _, p := range ix.visits[d] {
			if int(p.time) >= ix.k {
				continue // occupied only at the final position: no move follows
			}
			if cur, ok := firstDirty[p.walk]; !ok || p.time < cur {
				firstDirty[p.walk] = p.time
			}
		}
	}
	if len(firstDirty) == 0 {
		return nil
	}
	walks := make([]int32, 0, len(firstDirty))
	for w := range firstDirty {
		walks = append(walks, w)
	}
	sort.Slice(walks, func(i, j int) bool { return walks[i] < walks[j] })

	// Phase 1 (serial, one store rewrite per vertex: walks are ascending, so
	// a vertex's walks are adjacent): replay each walk's suffix on the new
	// graph in place and collect posting diffs.
	hseed := splitmix64(uint64(ix.seed))
	var removals, additions []rawVisit // removals: stale postings (time ignored)
	oldFV := make([]visitPair, 0, ix.k+1)
	newFV := make([]visitPair, 0, ix.k+1)
	fps := make([]int, 0, ix.r)
	for i, j := 0, 0; i < len(walks); i = j {
		v := int(walks[i]) / ix.r
		fps = fps[:0]
		for j = i; j < len(walks) && int(walks[j])/ix.r == v; j++ {
			fps = append(fps, int(walks[j])%ix.r)
		}
		start := int32(ix.lo + v)
		ix.store.rewrite(v, fps, func(f int, row []int32) {
			walk := walks[i+f]
			oldFV = firstVisitsPath(start, row, oldFV[:0])

			// Replay from the first dirty occupancy; the prefix is valid
			// for the new graph because it never stands on a dirty vertex.
			tau, p := int(firstDirty[walk]), int(start)
			if tau > 0 {
				p = int(row[tau-1])
			}
			walkFrom(g, hseed, fps[f], tau, p, row)

			newFV = firstVisitsPath(start, row, newFV[:0])
			// The visit lists are short (≤ K+1), so the O(K²) nested
			// membership scans stay cheaper than building maps.
			for _, o := range oldFV {
				nt, ok := lookupVisit(newFV, o.x)
				if !ok || nt != o.time {
					removals = append(removals, rawVisit{x: o.x, p: visitPosting{walk: walk}})
				}
			}
			for _, nv := range newFV {
				ot, ok := lookupVisit(oldFV, nv.x)
				if !ok || ot != nv.time {
					additions = append(additions, rawVisit{x: nv.x, p: visitPosting{walk: walk, time: nv.time}})
				}
			}
		})
	}

	// Phase 2: patch the posting lists, removals before additions so a
	// changed first-visit time replaces its stale posting. Stale walks are
	// grouped per vertex and sorted once, so the filter pass does a binary
	// search per posting instead of map lookups.
	rmByVertex := map[int32][]int32{}
	for _, rv := range removals {
		rmByVertex[rv.x] = append(rmByVertex[rv.x], rv.p.walk)
	}
	for x, stale := range rmByVertex {
		sort.Slice(stale, func(i, j int) bool { return stale[i] < stale[j] })
		keep := ix.visits[x][:0]
		for _, p := range ix.visits[x] {
			i := sort.Search(len(stale), func(i int) bool { return stale[i] >= p.walk })
			if i < len(stale) && stale[i] == p.walk {
				continue
			}
			keep = append(keep, p)
		}
		ix.visits[x] = keep
	}
	for _, rv := range additions {
		ix.addVisit(rv.x, rv.p)
	}
	ix.forest.patch(ix, walks, workers)
	return walks
}
