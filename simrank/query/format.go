package query

import (
	"os"

	"oipsr/graph"
	"oipsr/internal/atomicio"
	"oipsr/internal/walkindex"
)

// Streaming builds and write-back loading, re-exported from
// oipsr/internal/walkindex. There is one on-disk format: Save, SaveFile
// and BuildFileStreaming write it, Load, LoadFile and LoadFileMapped read
// it, and an index from LoadFileMapped writes it back after every edit
// batch.

// FormatVersion is the on-disk format revision this build reads and
// writes.
const FormatVersion = walkindex.FormatVersion

// MappedOptions is LoadFileMapped's options. It has no fields: the rows
// are resident whatever the options, and the type stays so callers keep
// compiling.
type MappedOptions struct{}

// ErrWriteBack marks an Update or ApplyEdits on an index from
// LoadFileMapped whose batch was applied in memory — graph, walks and
// generation — but not written back to the index file. The file keeps the
// last batch that was written; the next successful write-back persists
// every batch since.
var ErrWriteBack = walkindex.ErrWriteBack

// BuildStreamStats reports what a streaming build wrote; see
// walkindex.StreamStats.
type BuildStreamStats = walkindex.StreamStats

// BuildFileStreaming builds an index file for g directly on disk, never
// materializing the index in memory: walks are generated in vertex-range
// slices sized to budgetBytes and encoded straight into the file, so peak
// builder memory is bounded by the budget, not by n. The file is
// byte-identical to BuildIndex + SaveFile and is published atomically
// (temp, fsync, rename).
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

// LoadFileMapped opens an index file whose edits are written back: the
// file is read and validated exactly as LoadFile reads it, and answers are
// bit-identical to LoadFile's, but after every Update or ApplyEdits batch
// the posting blocks of the repaired vertices are re-encoded and the file
// is republished atomically (temp, fsync, rename), clean blocks copied
// verbatim. The file then equals SaveFile of the repaired index, byte for
// byte. Queries never read the file. Call Close when done to release the
// file handle.
func LoadFileMapped(path string, _ MappedOptions) (*Index, error) {
	wi, err := walkindex.LoadWriteBack(path, walkindex.IndexFile)
	if err != nil {
		return nil, err
	}
	return NewIndex(wi, nil), nil
}

// Backend reports how the walk rows are kept: "dense" when in memory only,
// "write-back" for an index from LoadFileMapped or OpenShard(…, true),
// whose edit batches are also written to its file.
func (ix *Index) Backend() string { return ix.wi.Backend() }

// Close releases the file handle of a write-back index; closing any other
// index does nothing. The index must not be used afterwards.
func (ix *Index) Close() error { return ix.wi.Close() }
