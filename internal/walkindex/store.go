package walkindex

// PathStore is the storage seam between the query/update machinery and the
// bytes that back a walk index. Every reader — SingleSource, MultiSource,
// TopK's rerank, Join, and the incremental-update repair — goes through
// row(v).walk(fp) and rewrite, so an Index answers bit-identically whether
// its walks live in the resident ragged store (fresh builds, decoded loads,
// every shard range; walkstore.go) or are paged on demand from an mmapped
// file (LoadMapped).
//
// A store is safe for concurrent row calls. rewrite is only called by
// Update, which callers already serialize against queries; a mapped store
// additionally tracks the blocks rewrite touched so a flush can rewrite
// just those (see mapped.go).
type PathStore interface {
	// row returns the read-only view of store-local vertex v's walks, one
	// lookup per vertex for the sweeps. row(v).walk(fp) is the positions of
	// v's fingerprint-fp walker after steps 1, 2, …: the live prefix on the
	// resident store, all k entries with a -1 tail on a mapped one. Either
	// way an entry past the end of the slice counts as -1 (dead), so every
	// reader accepts both forms. The view is valid until the next rewrite
	// or Close and must not be mutated.
	row(v int) walkRow

	// rewrite repairs the walks fps (ascending) of store-local vertex v:
	// fix(j, path) gets walk fps[j] as k entries, -1 from its death
	// onward, and changes it in place; rewrite then stores the results.
	rewrite(v int, fps []int, fix func(j int, path []int32))

	// Prefetch declares an imminent sequential sweep over store-local
	// vertices [lo, hi), letting a paged store decode the upcoming posting
	// blocks ahead of the reader. It is advisory and asynchronous: answers
	// are bit-identical with or without it, and a store with nothing to
	// page (resident) ignores it. Safe to call concurrently with walk.
	Prefetch(lo, hi int)

	// Rows returns the number of stored start vertices.
	Rows() int

	// Bytes returns the resident in-memory size of the path storage — the
	// ragged layout for a resident store, the backing file for a mapped
	// one.
	Bytes() int64

	// Kind names the backend ("dense" or "mapped") for logs and metrics.
	Kind() string

	// Close releases backing resources (file handles, mappings). The
	// store must not be used afterwards. Closing a resident store is a
	// no-op.
	Close() error
}
