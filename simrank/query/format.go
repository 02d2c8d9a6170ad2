package query

import (
	"os"

	"oipsr/graph"
	"oipsr/internal/atomicio"
	"oipsr/internal/walkindex"
)

// Streaming builds and mapped loading, re-exported from
// oipsr/internal/walkindex. There is one on-disk format: Save, SaveFile
// and BuildFileStreaming write it, Load, LoadFile and LoadFileMapped read
// it.

// FormatVersion is the on-disk format revision this build reads and
// writes.
const FormatVersion = walkindex.FormatVersion

// MappedOptions configures LoadFileMapped; see walkindex.MappedOptions.
type MappedOptions = walkindex.MappedOptions

// BuildStreamStats reports what a streaming build wrote; see
// walkindex.StreamStats.
type BuildStreamStats = walkindex.StreamStats

// BuildFileStreaming builds an index file for g directly on disk, never
// materializing the index in memory: walks are generated in vertex-range
// slices sized to budgetBytes and encoded straight into the file, so peak
// builder memory is bounded by the budget, not by n. The file is
// byte-identical to BuildIndex + SaveFile and is published atomically
// (temp, fsync, rename). Open it with LoadFileMapped to serve graphs whose
// dense index exceeds RAM.
func BuildFileStreaming(g *graph.Graph, opt Options, path string, budgetBytes int64) (*BuildStreamStats, error) {
	var st *walkindex.StreamStats
	err := atomicio.WriteFileAt(path, func(f *os.File) error {
		var err error
		st, err = walkindex.BuildStreaming(g, opt, 0, g.NumVertices(), walkindex.IndexFile, f, budgetBytes)
		return err
	})
	if err != nil {
		return nil, err
	}
	return st, nil
}

// LoadFileMapped opens an index file for demand paging: queries decode
// single posting blocks (mmap-backed where the platform supports it)
// behind a small LRU instead of materializing the dense walk payload. The
// file is fully validated at open, exactly as LoadFile validates it, and
// answers are bit-identical to LoadFile's. Call Close when done to release
// the mapping.
func LoadFileMapped(path string, opts MappedOptions) (*Index, error) {
	wi, err := walkindex.LoadMapped(path, walkindex.IndexFile, opts)
	if err != nil {
		return nil, err
	}
	return NewIndex(wi, nil), nil
}

// Backend reports the walk storage backing this index: "dense" for
// in-memory indexes, "mapped" (or "mapped-readat" without mmap) for
// demand-paged ones.
func (ix *Index) Backend() string { return ix.wi.Backend() }

// Close releases resources held by the walk storage — the file mapping
// for a mapped index, nothing for a dense one. The index must not be
// used afterwards.
func (ix *Index) Close() error { return ix.wi.Close() }
