// Package walkindex builds and queries a persistent index of coupled
// reverse random walks, the precomputation that turns single-source and
// top-k SimRank queries into sub-millisecond lookups (the SLING / ProbeSim
// serving model applied to the Fogaras-Racz estimator already used by the
// batch Monte Carlo engine).
//
// The index stores, for every vertex v and every fingerprint r, the full
// path of a reverse random walk of horizon K started at v. Walks within one
// fingerprint are coupled exactly as in the batch estimator: the in-edge a
// walker takes depends only on (fingerprint, step, current vertex), so
// walkers standing on the same vertex move together and coalesce once they
// meet. The edge choice is a pure hash of (seed, fingerprint, step, vertex)
// rather than a sequential RNG stream, which makes the build embarrassingly
// parallel over vertices — every worker computes identical paths regardless
// of scheduling — and makes an index fully reproducible from (graph,
// Options) alone.
//
// A single-source query against vertex q needs, for every other vertex v
// and every fingerprint, the first step t at which q's and v's walkers
// stand on the same vertex: it contributes C^t, and the average over
// fingerprints estimates s(q, v) truncated at horizon K. No Theta(n^2)
// state is ever materialized. Every index keeps a per-fingerprint
// coalescence order (walkorder.go): the walkers sorted so that everyone
// who ever meets q is a contiguous neighbourhood of q, with an empty slot
// after every 20 walkers for edits to fill, and beside it its inverse,
// each walker's slot. A query looks an owned source up by its R ranks (a
// foreign one by R key searches) and walks over those neighbourhoods —
// cost proportional to the number of non-zero scores, 14.5*R bytes per
// vertex on top of the paths.
//
// A walk is its positions after steps 1, 2, … up to its death at an
// in-degree-0 vertex or the horizon. The walks are resident in the ragged
// store (walkstore.go), read one walk at a time through row(v).walk(fp):
// the live prefixes only, vertex-major, where an entry past the end of the
// slice counts as -1. See serialize.go for the on-disk format, which Save
// writes and Load decodes into that store; an index opened with
// LoadWriteBack also makes every Update durable, in an edit log beside
// its file that a path-based open replays (editlog.go) and in the file
// itself at each checkpoint (writeback.go). The coalescence order is sorted from the graph, not from
// the walks, so a loaded index answers and repairs once AttachGraph has
// given it the graph its walks were taken on.
//
// An Index owns the walks of one contiguous vertex range [lo, hi) of an
// n-vertex graph — exactly the rows a full build stores for those start
// vertices, bit for bit. The single-node index is the range [0, n); a
// serving shard is any other range. A ranged index still answers for
// arbitrary vertices, because the coupled walks are pure hash functions of
// (graph, Options): given the graph (cheap CSR, tiny next to the n·R·K path
// store) it recomputes any foreign vertex's walks on demand via walkFrom,
// identical to what the owning index has stored. Per-target scores depend
// only on the source's walks and the target's stored row, so a row of
// scores over [lo, hi) is the exact sub-slice of the full-range answer,
// and concatenating the rows of a covering set of ranges reproduces it
// bitwise — no merge arithmetic, no rounding drift. The similarity join
// partitions along the other axis (fingerprints, see join.go).
package walkindex

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"sync/atomic"

	"oipsr/graph"
	"oipsr/internal/par"
)

// Options configure Build.
type Options struct {
	// C is the damping factor in (0,1); 0 means 0.6.
	C float64
	// K is the walk horizon; 0 derives it from Eps as the smallest K with
	// C^(K+1) <= Eps, matching the iterative engines' truncation.
	K int
	// Eps is the truncation target used when K == 0; 0 means 1e-3.
	Eps float64
	// Walks is the number of fingerprints R; 0 means 100. The standard
	// error of each estimated score scales as 1/sqrt(R).
	Walks int
	// Seed makes the index deterministic: the same (graph, Options) always
	// produce bit-identical indexes, for any worker count.
	Seed int64
	// Workers sets the build worker-pool size: 1 means serial, anything
	// below 1 means runtime.GOMAXPROCS(0).
	Workers int
}

// Index is the walk index of vertex range [lo, hi) of an n-vertex graph,
// safe for concurrent queries. Update (see update.go) is the one mutating
// operation; callers must serialize it against queries and other Updates.
//
// Methods that take a graph, AttachGraph and Update aside, use it only to
// recompute the walks of vertices outside [lo, hi); it must be the graph
// the index was built on (or repaired to via Update), and may be nil when
// every vertex the call touches is owned — always, for a full-range index.
type Index struct {
	n      int     // vertices in the full graph
	lo, hi int     // owned vertex range [lo, hi)
	k      int     // walk horizon
	r      int     // fingerprints per vertex
	c      float64 // damping factor
	seed   int64

	// store holds the owned walks: store.row(v-lo).walk(fp) is the
	// positions of vertex v's fingerprint-fp walker after steps 1, 2, …,
	// dead past its end (walkstore.go). It is the only walk state Update
	// reads: the walks an edit affects are found by probing the coupling
	// backwards on the edited graph (update.go).
	store *raggedStore

	// pow[t] = c^(t+1), the first-meeting weight of path index t.
	pow []float64

	// forest is the per-fingerprint coalescence order that answers
	// SparseRows in time proportional to the answer (see
	// walkorder.go). Build and AttachGraph sort it from the graph, Update
	// patches it; nil on a loaded index until AttachGraph. Derived state,
	// excluded from Equal, Save and Bytes.
	forest *forest

	// file is the index file Update makes repairs durable beside — its
	// edit log, and the file itself at checkpoints; nil unless the index
	// was opened with LoadWriteBack (writeback.go, editlog.go).
	file *backing
}

// resolve normalizes Options in place: defaults filled, the horizon
// derived from Eps when K is zero, bounds validated. Build and
// BuildStreaming share it so every range of a shard set, a full index and
// a streamed file resolve identical parameters from identical flags.
func (opt *Options) resolve() error {
	if opt.C == 0 {
		opt.C = 0.6
	}
	if !(opt.C > 0 && opt.C < 1) {
		return fmt.Errorf("walkindex: damping factor %v outside (0,1)", opt.C)
	}
	if opt.K < 0 || opt.Walks < 0 {
		return fmt.Errorf("walkindex: negative K or Walks")
	}
	if opt.K == 0 {
		eps := opt.Eps
		if eps == 0 {
			eps = 1e-3
		}
		if !(eps > 0 && eps < 1) {
			return fmt.Errorf("walkindex: accuracy eps %v outside (0,1)", eps)
		}
		opt.K = int(math.Ceil(math.Log(eps)/math.Log(opt.C) - 1))
		if opt.K < 1 {
			opt.K = 1
		}
	}
	if opt.Walks == 0 {
		opt.Walks = 100
	}
	// edgeChoice packs fp and t into 16-bit fields; beyond that, distinct
	// (fingerprint, step) pairs would alias and correlate the walks.
	if opt.K > 0xFFFF || opt.Walks > 0xFFFF {
		return fmt.Errorf("walkindex: K = %d and Walks = %d must each be <= %d", opt.K, opt.Walks, 0xFFFF)
	}
	return nil
}

// Build constructs the walk index of vertex range [lo, hi) of g; [0, n) is
// the single-node index. The stored rows are bit-identical to the
// corresponding rows of any wider build: n/S-vertex ranges on S machines
// and the full range on one are the same computation, partitioned.
func Build(g *graph.Graph, opt Options, lo, hi int) (*Index, error) {
	if err := opt.resolve(); err != nil {
		return nil, err
	}
	n := g.NumVertices()
	if lo < 0 || hi < lo || hi > n {
		return nil, fmt.Errorf("walkindex: vertex range [%d,%d) outside [0,%d)", lo, hi, n)
	}

	ix := newIndex(n, lo, hi, opt.K, opt.Walks, opt.C, opt.Seed, walkStore(g, opt, lo, hi))
	ix.forest = buildForest(ix, g, opt.Workers)
	return ix, nil
}

// walkStore generates the walks of start vertices [lo, hi) of g into a
// ragged store, one chunk per posting block counted from lo, the blocks
// spread over opt.Workers goroutines (eachBlock): a worker walks each
// vertex of a block into one reused r*k block, appends the live prefixes,
// whose lengths walkFrom returns, to one reused scratch, and copies the
// block's scratch out as its chunk. Build keeps the store; BuildStreaming
// encodes its blocks, one slice of the range at a time.
func walkStore(g *graph.Graph, opt Options, lo, hi int) *raggedStore {
	s := newRaggedStore(opt.Walks, opt.K, v2BlockShift, hi-lo)
	hseed := splitmix64(uint64(opt.Seed))
	eachBlock(opt.Workers, len(s.chunks), func() func(c int) {
		block, lives := make([]int32, opt.Walks*opt.K), make([]int, opt.Walks)
		var data []int32
		return func(c int) {
			data = data[:0]
			vlo, vhi := s.chunkSpan(c)
			for v := vlo; v < vhi; v++ {
				for fp := range lives {
					lives[fp] = walkFrom(g, hseed, fp, 0, lo+v, block[fp*opt.K:(fp+1)*opt.K])
				}
				data = s.appendVertex(data, v, block, lives)
			}
			s.setChunk(c, data)
		}
	})
	return s
}

// eachBlock runs do(b) for every b in [0, blocks) on up to workers
// goroutines (1 = serial, <1 = all CPUs). Each goroutine gets its own do
// from newWorker, which holds that goroutine's scratch, and takes the
// next block whenever it finishes one, so blocks of uneven cost balance.
// Build, the reader and the file writer share it: blocks are their unit.
func eachBlock(workers, blocks int, newWorker func() func(b int)) {
	if blocks == 0 {
		return
	}
	var next atomic.Int64
	par.Do(par.ResolveMax(workers, blocks), func(int) {
		do := newWorker()
		for b := int(next.Add(1) - 1); b < blocks; b = int(next.Add(1) - 1) {
			do(b)
		}
	})
}

// ErrGraphMismatch reports a graph on which the stored walks would not be
// taken: AttachGraph refuses it rather than sort an order, and later
// repair walks, that disagree with the stored rows.
var ErrGraphMismatch = errors.New("walkindex: the index does not match the graph")

// errNoGraph refuses a query or a repair on a loaded index whose order does
// not exist yet.
var errNoGraph = errors.New("walkindex: a loaded index needs its graph attached (AttachGraph) before it answers or repairs")

// AttachGraph gives a loaded index g, the graph its walks were taken on,
// and with it the coalescence order, sorted from g by workers goroutines (1
// = serial, <1 = all CPUs). An index that has its order — from Build, or
// attached before — keeps it. Either way g is checked first: every stored
// walk must be the walk g gives its start vertex, so a stale or wrong graph
// with the same vertex count — the graph before an edit batch that was
// made durable, say — is refused with an error wrapping ErrGraphMismatch.
func (ix *Index) AttachGraph(g *graph.Graph, workers int) error {
	if err := ix.checkGraph(g, workers); err != nil {
		return err
	}
	if ix.forest == nil {
		ix.forest = buildForest(ix, g, workers)
	}
	return nil
}

// checkGraph is AttachGraph's check of g against every stored walk, split
// over workers goroutines by owned vertex.
func (ix *Index) checkGraph(g *graph.Graph, workers int) error {
	if g.NumVertices() != ix.n {
		return fmt.Errorf("%w: it has %d vertices, the index %d", ErrGraphMismatch, g.NumVertices(), ix.n)
	}
	hseed := splitmix64(uint64(ix.seed))
	workers = par.ResolveMax(workers, ix.Width())
	bad := make([]int, workers)
	par.Do(workers, func(w int) {
		lo, hi := par.Range(ix.Width(), workers, w)
		bad[w] = -1
		for v := lo; v < hi && bad[w] < 0; v++ {
			row := ix.store.row(v)
			for fp := 0; fp < ix.r; fp++ {
				if !walkedOn(g, hseed, fp, ix.lo+v, ix.k, row.walk(fp)) {
					bad[w] = v
					break
				}
			}
		}
	})
	for _, v := range bad {
		if v >= 0 {
			return fmt.Errorf("%w: vertex %d walks differently on it", ErrGraphMismatch, ix.lo+v)
		}
	}
	return nil
}

// walkedOn reports whether walk, a live prefix, is the walk of fingerprint
// fp from start vertex p on g over horizon k: each entry the coupled move
// from the one before, and the walk as long as g lets it live. The moves
// are taken from the stored entries, so no step waits on the one before.
func walkedOn(g *graph.Graph, hseed uint64, fp, p, k int, walk []int32) bool {
	for t, q := range walk {
		in := g.In(p)
		if len(in) == 0 || in[edgeChoice(hseed, fp, t, p, len(in))] != int(q) {
			return false
		}
		p = int(q)
	}
	return len(walk) == k || len(g.In(p)) == 0
}

// newIndex assembles an index over store from validated parameters;
// pow[t] = c^(t+1) is derived here so every construction path (build,
// load) weighs meetings identically.
func newIndex(n, lo, hi, k, r int, c float64, seed int64, store *raggedStore) *Index {
	ix := &Index{n: n, lo: lo, hi: hi, k: k, r: r, c: c, seed: seed, store: store}
	ix.pow = make([]float64, k)
	w := 1.0
	for t := range ix.pow {
		w *= c
		ix.pow[t] = w
	}
	return ix
}

// walkFrom fills path[tau:] with the coupled reverse walk of fingerprint fp
// standing on vertex p before step tau (tau 0 with p = start vertex is a
// whole walk; Update's suffix repair passes the first dirty occupancy), and
// returns the walk's live length: the step at which it died, or len(path).
// A prefix slice (len(path) < K) yields exactly the first len(path) entries
// of the full walk, because each step depends only on the previous
// position — a ranged index exploits this to recompute foreign walks on
// demand, bit-identically to what the owning range has stored.
func walkFrom(g *graph.Graph, hseed uint64, fp, tau, p int, path []int32) int {
	for t := tau; t < len(path); t++ {
		in := g.In(p)
		if len(in) == 0 {
			for i := t; i < len(path); i++ {
				path[i] = -1
			}
			return t
		}
		p = in[edgeChoice(hseed, fp, t, p, len(in))]
		path[t] = int32(p)
	}
	return len(path)
}

// walkBlock fills block with every walk of vertex v, k entries per
// fingerprint, -1 after each death: the dense form walkStore generates
// into, and the recomputed row of a foreign vertex.
func walkBlock(g *graph.Graph, hseed uint64, v, k int, block []int32) {
	for fp := 0; fp*k < len(block); fp++ {
		walkFrom(g, hseed, fp, 0, v, block[fp*k:(fp+1)*k])
	}
}

// edgeChoice is the shared coupled move: the in-edge index every walker
// standing on vertex x takes at step t of fingerprint fp. It depends only
// on (seed, fp, t, x), never on which start vertex the walker belongs to,
// so co-located walkers coalesce exactly as in the batch estimator. The
// three fields occupy disjoint bit ranges (fp: 48+, t: 32..47, x: 0..31;
// Build enforces the fp/t bounds), so distinct (fp, t, x) triples can
// never alias before mixing.
func edgeChoice(hseed uint64, fp, t, x, deg int) int {
	h := splitmix64(hseed ^ (uint64(fp)<<48 | uint64(t)<<32 | uint64(x)))
	return int(h % uint64(deg))
}

// splitmix64 is the SplitMix64 finalizer, a fast high-quality bit mixer.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// N returns the vertex count of the full graph the index was built on.
func (ix *Index) N() int { return ix.n }

// Lo returns the first owned vertex.
func (ix *Index) Lo() int { return ix.lo }

// Hi returns one past the last owned vertex.
func (ix *Index) Hi() int { return ix.hi }

// Width returns the number of owned vertices, hi-lo.
func (ix *Index) Width() int { return ix.hi - ix.lo }

// Owns reports whether the index stores v's walks.
func (ix *Index) Owns(v int) bool { return v >= ix.lo && v < ix.hi }

// Horizon returns the walk horizon K.
func (ix *Index) Horizon() int { return ix.k }

// Walks returns the number of fingerprints R.
func (ix *Index) Walks() int { return ix.r }

// C returns the damping factor.
func (ix *Index) C() float64 { return ix.c }

// Seed returns the seed the index was built with.
func (ix *Index) Seed() int64 { return ix.seed }

// Bytes returns the size of the path storage: the ragged layout of the
// resident rows (offsets, walk headers, live positions and any dead arena
// words not yet compacted).
func (ix *Index) Bytes() int64 { return ix.store.Bytes() }

// Backend names how the rows are kept: "dense" when resident only,
// "write-back" when Update also makes its batches durable beside the
// index file they were loaded from.
func (ix *Index) Backend() string {
	if ix.file != nil {
		return "write-back"
	}
	return "dense"
}

// Close checkpoints a write-back index that has an edit log beside its
// file, or whose log is broken — the file is then Save's for its rows,
// its blocks encoded on all CPUs, and the log is gone. The index holds no file open, and must
// not be queried afterwards. Closing any other index is a no-op, so
// callers can defer it unconditionally.
func (ix *Index) Close() error {
	if bk := ix.file; bk != nil && (bk.logBytes > 0 || bk.logBroken) {
		return ix.checkpoint(0)
	}
	return nil
}

// meetStep returns the first step index t at which two walks of one
// fingerprint stand on the same live position, or -1 if they never do: a
// dead walker never meets anyone.
func meetStep(a, b []int32) int {
	for t := range min(len(a), len(b)) {
		pa, pb := a[t], b[t]
		if pa < 0 || pb < 0 {
			return -1
		}
		if pa == pb {
			return t
		}
	}
	return -1
}

// sourceRow returns the walks of any vertex q: the stored row when the
// index owns q, otherwise a recomputation from g into buf (reallocated
// when it holds fewer than r*k entries; the returned row's data is the
// buffer to reuse). The recomputed walks equal the owning range's stored
// ones bitwise — walkFrom is the code path Build stored them through.
func (ix *Index) sourceRow(g *graph.Graph, q int, buf []int32) walkRow {
	if ix.Owns(q) {
		return ix.store.row(q - ix.lo)
	}
	if cap(buf) < ix.r*ix.k {
		buf = make([]int32, ix.r*ix.k)
	}
	buf = buf[:ix.r*ix.k]
	walkBlock(g, splitmix64(uint64(ix.seed)), q, ix.k, buf)
	return walkRow{data: buf, k: ix.k}
}

// Walk returns the live prefix of vertex v's fingerprint-fp walk, the
// positions after steps 1, 2, … up to its death or the horizon: stored
// when v is owned, recomputed from g otherwise (see Index for when g may
// be nil). The slice is read-only and valid until the next Update.
func (ix *Index) Walk(g *graph.Graph, v, fp int) []int32 {
	return livePrefix(ix.sourceRow(g, v, nil).walk(fp))
}

// Pair estimates the single score s(a, b); neither vertex needs to be
// owned. It runs the same accumulation as forestRow — first-meeting
// weights in fingerprint order, scaled by the same precomputed 1/R — so
// Pair(a, b) is bit-identical to b's entry of a's SparseRows row (and, by
// symmetry of the meeting computation, to a's entry of b's row and to the
// Join estimates), on every range.
func (ix *Index) Pair(g *graph.Graph, a, b int) float64 {
	if a == b {
		return 1
	}
	return pairFromRows(ix.sourceRow(g, a, nil), ix.sourceRow(g, b, nil), ix.pow, ix.r)
}

// pairFromRows runs the first-meeting accumulation over two vertices'
// walks. Pair and ScorePairs both go through it, so a pair scored from
// recomputed rows is the stored-row estimate bit for bit.
func pairFromRows(a, b walkRow, pow []float64, r int) float64 {
	var s float64
	for fp := 0; fp < r; fp++ {
		if t := meetStep(a.walk(fp), b.walk(fp)); t >= 0 {
			s += pow[t]
		}
	}
	return s * (1 / float64(r))
}

// Equal reports whether two indexes hold identical parameters, ranges and
// walks (and therefore answer every query bit-identically).
func (ix *Index) Equal(other *Index) bool {
	if ix.n != other.n || ix.lo != other.lo || ix.hi != other.hi ||
		ix.k != other.k || ix.r != other.r || ix.c != other.c || ix.seed != other.seed {
		return false
	}
	for v := 0; v < ix.Width(); v++ {
		a, b := ix.store.row(v), other.store.row(v)
		for fp := 0; fp < ix.r; fp++ {
			if !slices.Equal(a.walk(fp), b.walk(fp)) {
				return false
			}
		}
	}
	return true
}
