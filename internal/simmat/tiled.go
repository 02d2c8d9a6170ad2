package simmat

import (
	"container/list"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sync"

	"oipsr/internal/par"
)

// TileOptions configure the tiled score-matrix backend.
type TileOptions struct {
	// BlockSize is the tile edge B: the matrix becomes a grid of B x B
	// tiles (ragged at the right/bottom edge), of which only the canonical
	// upper-triangular half is stored. Zero or negative disables tiling.
	BlockSize int

	// MaxMemoryBytes caps the resident tile bytes of the whole computation
	// (all matrices sharing one TileStore). When the cap is hit, the least
	// recently used unpinned tile is evicted — spilled to disk if dirty.
	// Zero means unbounded.
	MaxMemoryBytes int64

	// SpillDir is where evicted tiles are written. Empty means a fresh
	// temporary directory created on first spill and removed on Close.
	SpillDir string
}

// Enabled reports whether the options select the tiled backend.
func (o TileOptions) Enabled() bool { return o.BlockSize > 0 }

// ErrMemoryBudget is returned when a tile must be brought into memory but
// every resident tile is pinned, so the MaxMemoryBytes cap cannot be met.
var ErrMemoryBudget = errors.New("simmat: working set exceeds MaxMemoryBytes with all tiles pinned")

// TileMetrics is a snapshot of a TileStore's accounting.
type TileMetrics struct {
	ResidentBytes  int64 // tile bytes currently in memory
	HighWaterBytes int64 // peak resident bytes over the store's lifetime
	Spills         int64 // dirty tiles written to disk
	Loads          int64 // tiles paged back in from disk
	SpilledBytes   int64 // cumulative bytes written to spill files
}

// TileStore is the shared memory manager of one tiled computation: every
// Tiled matrix of a run draws tiles from the same store, so MaxMemoryBytes
// bounds the run's whole n^2 state, not one matrix. The store is safe for
// concurrent use; every operation pins at most one tile at a time, so the
// bound is respected up to workers * tileBytes of pinned slack.
//
// Known limitation: spill and reload I/O runs under the store mutex, so
// concurrent workers serialize on tile faults. Budgets comfortably above
// the hot working set are unaffected (residency changes are rare); heavily
// over-committed multi-worker runs degrade toward disk-bound serial speed
// — correct, bounded, but not parallel. Lifting the I/O out of the lock
// (per-entry busy states) is the known next step.
type TileStore struct {
	mu        sync.Mutex
	blockSize int
	budget    int64
	spillDir  string // configured; "" = temp dir on demand
	dir       string // actual directory once created
	ownsDir   bool
	lru       *list.List // of *tileEntry; front = most recently used
	mats      []*Tiled
	metrics   TileMetrics
	closed    bool
}

// NewTileStore creates a store for the given options. BlockSize must be
// positive.
func NewTileStore(opt TileOptions) (*TileStore, error) {
	if opt.BlockSize <= 0 {
		return nil, fmt.Errorf("simmat: tile block size %d, want > 0", opt.BlockSize)
	}
	if opt.MaxMemoryBytes < 0 {
		return nil, fmt.Errorf("simmat: negative MaxMemoryBytes %d", opt.MaxMemoryBytes)
	}
	return &TileStore{
		blockSize: opt.BlockSize,
		budget:    opt.MaxMemoryBytes,
		spillDir:  opt.SpillDir,
		lru:       list.New(),
	}, nil
}

// Metrics returns a snapshot of the store's accounting counters.
func (s *TileStore) Metrics() TileMetrics {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.metrics
}

// Close releases every matrix of the store and removes all spill files (the
// whole directory when the store created it). The store is unusable
// afterwards.
func (s *TileStore) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil
	}
	s.closed = true
	var firstErr error
	for _, t := range s.mats {
		s.releaseLocked(t, s.ownsDir)
	}
	s.mats = nil
	if s.dir != "" && s.ownsDir {
		if err := os.RemoveAll(s.dir); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}

// tileEntry is one canonical tile: its data when resident, its pin count,
// and whether a valid spill file exists on disk.
type tileEntry struct {
	owner      *Tiled
	bi, bj     int
	rows, cols int
	data       []float64 // nil when not resident
	pins       int
	dirty      bool // resident data newer than any spill file
	spilled    bool // a valid spill file exists
	elem       *list.Element
}

func (e *tileEntry) bytes() int64 { return int64(e.rows) * int64(e.cols) * 8 }

// Tiled is the tiled, symmetric score-matrix backend: the logical n x n
// matrix is a grid of BlockSize x BlockSize tiles of which only the upper
// triangle (bi <= bj) is stored; reads of (i, j) with i > j mirror the
// canonical cell (j, i). Tiles materialize lazily (an untouched tile reads
// as zeros) and are evicted/spilled by the owning TileStore under its
// memory budget.
//
// Concurrency: distinct goroutines may concurrently read any tiles and
// write disjoint logical rows (the engines' discipline); the store
// serializes residency changes internally.
type Tiled struct {
	store *TileStore
	id    int
	n     int
	b     int
	nb    int
	tiles []tileEntry // canonical entries, row-major over the upper grid
}

var _ Source = (*Tiled)(nil)

// NewTiled returns an all-zero n x n tiled matrix drawing from s.
func (s *TileStore) NewTiled(n int) (*Tiled, error) {
	if n < 0 {
		return nil, fmt.Errorf("simmat: negative dimension %d", n)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil, errors.New("simmat: tile store is closed")
	}
	b := s.blockSize
	nb := 0
	if n > 0 {
		nb = (n + b - 1) / b
	}
	t := &Tiled{store: s, id: len(s.mats), n: n, b: b, nb: nb,
		tiles: make([]tileEntry, nb*(nb+1)/2)}
	for bi := 0; bi < nb; bi++ {
		for bj := bi; bj < nb; bj++ {
			e := &t.tiles[t.tileIndex(bi, bj)]
			e.owner, e.bi, e.bj = t, bi, bj
			e.rows = t.blockLen(bi)
			e.cols = t.blockLen(bj)
		}
	}
	s.mats = append(s.mats, t)
	return t, nil
}

// NewIdentity returns the n x n tiled identity (the s_0 of every iterative
// model); only the diagonal tiles materialize.
func (s *TileStore) NewIdentity(n int) (*Tiled, error) {
	return s.NewDiagonal(n, 1)
}

// NewDiagonal returns the n x n tiled matrix v * I.
func (s *TileStore) NewDiagonal(n int, v float64) (*Tiled, error) {
	t, err := s.NewTiled(n)
	if err != nil {
		return nil, err
	}
	for bi := 0; bi < t.nb; bi++ {
		e := &t.tiles[t.tileIndex(bi, bi)]
		data, err := s.acquire(e, true)
		if err != nil {
			return nil, err
		}
		for r := 0; r < e.rows; r++ {
			data[r*e.cols+r] = v
		}
		s.unpin(e, true)
	}
	return t, nil
}

// N returns the dimension.
func (t *Tiled) N() int { return t.n }

// Bytes reports the logical canonical storage: the upper triangle incl.
// diagonal tiles, whether resident, spilled, or still zero.
func (t *Tiled) Bytes() int64 {
	var b int64
	for i := range t.tiles {
		b += t.tiles[i].bytes()
	}
	return b
}

// blockLen returns the edge length of block bi (ragged at the border).
func (t *Tiled) blockLen(bi int) int {
	if hi := (bi + 1) * t.b; hi > t.n {
		return t.n - bi*t.b
	}
	return t.b
}

// tileIndex maps canonical block coordinates (bi <= bj) to the entry index.
func (t *Tiled) tileIndex(bi, bj int) int {
	return bi*t.nb - bi*(bi-1)/2 + (bj - bi)
}

// At returns the score at (i, j), mirroring the canonical upper cell for
// i > j. It panics if a spilled tile cannot be read back (possible only
// with spill enabled and a failing disk); error-aware callers should use
// RowInto.
func (t *Tiled) At(i, j int) float64 {
	if i > j {
		i, j = j, i
	}
	e := &t.tiles[t.tileIndex(i/t.b, j/t.b)]
	data, err := t.store.acquire(e, false)
	if err != nil {
		panic(fmt.Sprintf("simmat: reading tile (%d,%d): %v", e.bi, e.bj, err))
	}
	if data == nil {
		return 0
	}
	v := data[(i-e.bi*t.b)*e.cols+(j-e.bj*t.b)]
	t.store.unpin(e, false)
	return v
}

// RowInto assembles logical row i into dst (len >= n), mirroring lower-
// triangle cells from their canonical tiles.
func (t *Tiled) RowInto(i int, dst []float64) error {
	bi := i / t.b
	for bj := 0; bj < t.nb; bj++ {
		c0 := bj * t.b
		cl := t.blockLen(bj)
		var e *tileEntry
		if bj < bi {
			e = &t.tiles[t.tileIndex(bj, bi)]
		} else {
			e = &t.tiles[t.tileIndex(bi, bj)]
		}
		data, err := t.store.acquire(e, false)
		if err != nil {
			return fmt.Errorf("simmat: reading tile (%d,%d): %w", e.bi, e.bj, err)
		}
		if data == nil { // untouched tile: logical zeros
			for j := c0; j < c0+cl; j++ {
				dst[j] = 0
			}
			continue
		}
		switch {
		case bj < bi:
			// Canonical tile (bj, bi): logical (i, j) lives at (j, i).
			col := i - e.bj*t.b
			for r := 0; r < e.rows; r++ {
				dst[c0+r] = data[r*e.cols+col]
			}
		case bj == bi:
			// Diagonal tile: transposed below the in-block diagonal,
			// straight from it on.
			r0 := e.bi * t.b
			ri := i - r0
			for j := c0; j < i && j < c0+cl; j++ {
				dst[j] = data[(j-r0)*e.cols+ri]
			}
			if i < c0+cl {
				copy(dst[i:c0+cl], data[ri*e.cols+(i-r0):ri*e.cols+e.cols])
			}
		default:
			copy(dst[c0:c0+cl], data[(i-e.bi*t.b)*e.cols:(i-e.bi*t.b)*e.cols+e.cols])
		}
		t.store.unpin(e, false)
	}
	return nil
}

// SetRowUpper writes the canonical segment of logical row u — the cells
// (u, j) for j in [u, n) — from row (a full-length slice indexed by j).
// Cells left of the diagonal are owned by earlier rows and ignored.
// Concurrent callers must write distinct rows.
func (t *Tiled) SetRowUpper(u int, row []float64) error {
	bu := u / t.b
	r0 := bu * t.b
	for bj := bu; bj < t.nb; bj++ {
		e := &t.tiles[t.tileIndex(bu, bj)]
		data, err := t.store.acquire(e, true)
		if err != nil {
			return fmt.Errorf("simmat: writing tile (%d,%d): %w", e.bi, e.bj, err)
		}
		c0 := bj * t.b
		lo := c0
		if bj == bu {
			lo = u // diagonal tile: only the in-block upper part
		}
		copy(data[(u-r0)*e.cols+(lo-c0):(u-r0)*e.cols+e.cols], row[lo:c0+e.cols])
		t.store.unpin(e, true)
	}
	return nil
}

// Release frees this matrix: resident tiles are dropped and its spill files
// deleted. The store stays usable for its other matrices.
func (t *Tiled) Release() {
	t.store.mu.Lock()
	defer t.store.mu.Unlock()
	t.store.releaseLocked(t, false)
}

// Close closes the whole underlying store (see TileStore.Close). Call it on
// the final result matrix when done.
func (t *Tiled) Close() error { return t.store.Close() }

// AddScaled adds coeff * src into t elementwise (t += coeff * src), the
// accumulation step of the differential engine. Both must share dimension
// and block size. Never-materialized src tiles contribute exact zeros and
// are skipped, leaving the corresponding t tiles untouched — bit-identical
// to the dense elementwise loop, since x + coeff*0 == x for the
// non-negative scores the engines hold. The work is split over workers
// whole tiles at a time; elementwise arithmetic makes any split
// bit-identical.
func (t *Tiled) AddScaled(src *Tiled, coeff float64, workers int) error {
	if t.n != src.n || t.b != src.b {
		return fmt.Errorf("simmat: tiled shape mismatch (n %d vs %d, B %d vs %d)", t.n, src.n, t.b, src.b)
	}
	workers = par.ResolveMax(workers, len(t.tiles))
	errs := make([]error, workers)
	par.Do(workers, func(w int) {
		// Stage the src tile through a scratch copy so only one tile is
		// pinned at a time, preserving the store's one-pin-per-worker
		// budget slack (a budget that sustains the sweep must sustain the
		// accumulation too).
		var scratch []float64
		lo, hi := par.Range(len(t.tiles), workers, w)
		for i := lo; i < hi; i++ {
			es := &src.tiles[i]
			sd, err := src.store.acquire(es, false)
			if err != nil {
				errs[w] = err
				return
			}
			if sd == nil {
				continue
			}
			if len(scratch) < len(sd) {
				scratch = make([]float64, len(sd))
			}
			copy(scratch[:len(sd)], sd)
			src.store.unpin(es, false)
			ed := &t.tiles[i]
			dd, err := t.store.acquire(ed, true)
			if err != nil {
				errs[w] = err
				return
			}
			// float64(...) forbids fusing into a multiply-add, as in
			// the dense accumulation of internal/dsr.
			for k := range dd {
				dd[k] += float64(coeff * scratch[k])
			}
			t.store.unpin(ed, true)
		}
	})
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// MaxDiffTiled returns max |a - b| over the logical matrices. Both must
// share dimension and block size (the engines' ping-pong pairs do); max is
// order-independent, so the result equals the dense MaxDiff exactly.
func MaxDiffTiled(a, b *Tiled) (float64, error) {
	if a.n != b.n || a.b != b.b {
		return 0, fmt.Errorf("simmat: tiled shape mismatch (n %d vs %d, B %d vs %d)", a.n, b.n, a.b, b.b)
	}
	d := 0.0
	var scratch []float64 // stage a's tile so only one tile is pinned at a time
	for i := range a.tiles {
		ea, eb := &a.tiles[i], &b.tiles[i]
		da, err := a.store.acquire(ea, false)
		if err != nil {
			return 0, err
		}
		na := da != nil
		if na {
			if len(scratch) < len(da) {
				scratch = make([]float64, len(da))
			}
			copy(scratch[:len(da)], da)
			a.store.unpin(ea, false)
		}
		db, err := b.store.acquire(eb, false)
		if err != nil {
			return 0, err
		}
		switch {
		case !na && db == nil:
		case db == nil:
			for _, v := range scratch[:ea.rows*ea.cols] {
				if x := math.Abs(v); x > d {
					d = x
				}
			}
		case !na:
			for _, v := range db {
				if x := math.Abs(v); x > d {
					d = x
				}
			}
		default:
			for k := range db {
				if x := math.Abs(scratch[k] - db[k]); x > d {
					d = x
				}
			}
		}
		if db != nil {
			b.store.unpin(eb, false)
		}
	}
	return d, nil
}

// --- store internals -------------------------------------------------------

// acquire pins e's data into memory: loading it from its spill file, or —
// when materialize is set — allocating a zero tile if it never existed.
// Returns nil (and does not pin) for a never-materialized tile when
// materialize is false. The caller must unpin non-nil results.
func (s *TileStore) acquire(e *tileEntry, materialize bool) ([]float64, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil, errors.New("simmat: tile store is closed")
	}
	if e.data == nil {
		if !e.spilled && !materialize {
			return nil, nil
		}
		if err := s.ensureBudgetLocked(e.bytes()); err != nil {
			return nil, err
		}
		e.data = make([]float64, e.rows*e.cols)
		if e.spilled {
			if err := readTileFile(s.tilePath(e), e.rows, e.cols, e.data); err != nil {
				e.data = nil
				return nil, err
			}
			s.metrics.Loads++
		}
		s.metrics.ResidentBytes += e.bytes()
		if s.metrics.ResidentBytes > s.metrics.HighWaterBytes {
			s.metrics.HighWaterBytes = s.metrics.ResidentBytes
		}
		e.elem = s.lru.PushFront(e)
	} else if e.elem != nil {
		s.lru.MoveToFront(e.elem)
	}
	e.pins++
	return e.data, nil
}

// unpin releases a pinned tile, marking it dirty when the caller wrote it.
func (s *TileStore) unpin(e *tileEntry, dirty bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	e.pins--
	if dirty {
		e.dirty = true
	}
}

// ensureBudgetLocked evicts LRU unpinned tiles until need more bytes fit
// under the budget. Called with s.mu held.
func (s *TileStore) ensureBudgetLocked(need int64) error {
	if s.budget <= 0 {
		return nil
	}
	for s.metrics.ResidentBytes+need > s.budget {
		victim := (*tileEntry)(nil)
		for el := s.lru.Back(); el != nil; el = el.Prev() {
			if e := el.Value.(*tileEntry); e.pins == 0 {
				victim = e
				break
			}
		}
		if victim == nil {
			return ErrMemoryBudget
		}
		if err := s.evictLocked(victim); err != nil {
			return err
		}
	}
	return nil
}

// evictLocked drops one resident tile, spilling it first when dirty.
func (s *TileStore) evictLocked(e *tileEntry) error {
	if e.dirty {
		if err := s.ensureDirLocked(); err != nil {
			return err
		}
		if err := writeTileFile(s.tilePath(e), e.rows, e.cols, e.data); err != nil {
			return err
		}
		e.spilled = true
		e.dirty = false
		s.metrics.Spills++
		s.metrics.SpilledBytes += e.bytes()
	}
	s.metrics.ResidentBytes -= e.bytes()
	s.lru.Remove(e.elem)
	e.elem = nil
	e.data = nil
	return nil
}

// ensureDirLocked creates the spill directory on first use.
func (s *TileStore) ensureDirLocked() error {
	if s.dir != "" {
		return nil
	}
	if s.spillDir != "" {
		if err := os.MkdirAll(s.spillDir, 0o755); err != nil {
			return fmt.Errorf("simmat: creating spill dir: %w", err)
		}
		s.dir = s.spillDir
		return nil
	}
	dir, err := os.MkdirTemp("", "simrank-tiles-")
	if err != nil {
		return fmt.Errorf("simmat: creating spill dir: %w", err)
	}
	s.dir = dir
	s.ownsDir = true
	return nil
}

func (s *TileStore) tilePath(e *tileEntry) string {
	return filepath.Join(s.dir, fmt.Sprintf("m%d_t%d_%d.tile", e.owner.id, e.bi, e.bj))
}

// releaseLocked frees every tile of t; spill files are deleted unless the
// whole directory is about to be removed anyway.
func (s *TileStore) releaseLocked(t *Tiled, dirDoomed bool) {
	for i := range t.tiles {
		e := &t.tiles[i]
		if e.data != nil {
			s.metrics.ResidentBytes -= e.bytes()
			s.lru.Remove(e.elem)
			e.elem = nil
			e.data = nil
		}
		if e.spilled {
			if !dirDoomed {
				os.Remove(s.tilePath(e))
			}
			e.spilled = false
		}
		e.dirty = false
	}
}
