package walkindex

// PathStore is the storage seam between the query/update machinery and the
// bytes that back a walk index. Every reader — SingleSource, MultiSource,
// TopK's rerank, Join, and the incremental-update repair — goes through
// Row/MutableRow, so an Index answers bit-identically whether its walks
// live in one dense in-memory slice (fresh builds, decoded loads) or are
// paged on demand from an mmapped file (LoadMapped).
//
// A store is safe for concurrent Row calls. MutableRow is only called by
// Update, which callers already serialize against queries; a mapped store
// additionally tracks the blocks MutableRow touched so a flush can rewrite
// just those (see mapped.go).
type PathStore interface {
	// Row returns the read-only walk block of store-local vertex v: r*k
	// entries, walk-major (entry fp*k+t is the position of v's
	// fingerprint-fp walker after step t+1, or -1 once dead). The slice is
	// valid until the store is closed and must not be mutated.
	Row(v int) []int32

	// MutableRow returns v's walk block for in-place repair. For a mapped
	// store this materializes the containing block into a writable overlay
	// and marks it dirty for the next flush.
	MutableRow(v int) []int32

	// Prefetch declares an imminent sequential Row sweep over store-local
	// vertices [lo, hi), letting a paged store decode the upcoming posting
	// blocks ahead of the reader. It is advisory and asynchronous: answers
	// are bit-identical with or without it, and a store with nothing to
	// page (dense) ignores it. Safe to call concurrently with Row.
	Prefetch(lo, hi int)

	// Rows returns the number of stored start vertices.
	Rows() int

	// Bytes returns the resident in-memory size of the path storage — the
	// full payload for a dense store, the decoded-block cache footprint
	// for a mapped one.
	Bytes() int64

	// Kind names the backend ("dense" or "mapped") for logs and metrics.
	Kind() string

	// Close releases backing resources (file handles, mappings). The
	// store must not be used afterwards. Closing a dense store is a no-op.
	Close() error
}

// denseStore backs an index with one flat materialized slice — the layout
// Build produces and Load decodes into.
type denseStore struct {
	paths  []int32
	stride int // r*k entries per vertex
}

func newDenseStore(paths []int32, stride int) *denseStore {
	return &denseStore{paths: paths, stride: stride}
}

func (s *denseStore) Row(v int) []int32        { return s.paths[v*s.stride : (v+1)*s.stride] }
func (s *denseStore) MutableRow(v int) []int32 { return s.paths[v*s.stride : (v+1)*s.stride] }
func (s *denseStore) Prefetch(lo, hi int)      {} // nothing to page
func (s *denseStore) Rows() int                { return len(s.paths) / s.stride }
func (s *denseStore) Bytes() int64             { return int64(len(s.paths)) * 4 }
func (s *denseStore) Kind() string             { return "dense" }
func (s *denseStore) Close() error             { return nil }
