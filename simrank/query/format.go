package query

import (
	"os"

	"oipsr/graph"
	"oipsr/internal/walkindex"
)

// Streaming builds and write-back loading, re-exported from
// oipsr/internal/walkindex. There is one on-disk format and one writer of
// it: Save, SaveFile and BuildFileStreaming write it, Load, LoadFile and
// LoadFileMapped read it, and an index from LoadFileMapped rewrites it at
// each checkpoint, all through the same file writer. Between checkpoints
// its edit batches go to an edit log beside the file (path + ".log"),
// which LoadFile and LoadFileMapped replay.

// FormatVersion is the on-disk format revision this build reads and
// writes.
const FormatVersion = walkindex.FormatVersion

// MappedOptions is LoadFileMapped's options. It has no fields: the rows
// are resident whatever the options, and the type stays so callers keep
// compiling.
type MappedOptions struct{}

// ErrWriteBack marks an Update or ApplyEdits on an index from
// LoadFileMapped whose batch was applied in memory — graph, walks and
// generation — but not made durable: the append to the edit log, or the
// checkpoint, failed. The file and its log keep the batches made durable
// before; the next batch checkpoints, which persists every batch since.
var ErrWriteBack = walkindex.ErrWriteBack

// BuildStreamStats reports what a streaming build wrote; see
// walkindex.StreamStats.
type BuildStreamStats = walkindex.StreamStats

// StreamSliceBytes is the slice budget of simrankd's streamed builds: 64
// MiB of walks, where a whole index at R = 100 and K = 13 takes up to 5200
// B a vertex.
const StreamSliceBytes = 64 << 20

// BuildFileStreaming builds an index file for g directly on disk, never
// materializing the index in memory: walks are generated in slices of
// whole posting blocks sized to budgetBytes and encoded straight into the
// file, so peak builder memory is bounded by the budget plus 8 B a block,
// not by n. The file is byte-identical to BuildIndex + SaveFile and is
// published atomically (temp, fsync, rename), after any edit log of the
// file it replaces is removed.
func BuildFileStreaming(g *graph.Graph, opt Options, path string, budgetBytes int64) (*BuildStreamStats, error) {
	var st *walkindex.StreamStats
	err := walkindex.PublishFile(path, func(f *os.File) error {
		var err error
		st, err = walkindex.BuildStreaming(g, opt, f, budgetBytes)
		return err
	})
	if err != nil {
		return nil, err
	}
	return st, nil
}

// LoadFileMapped opens an index file whose edits are made durable: the
// file is read and validated, and its edit log replayed, exactly as
// LoadFile does, and answers are bit-identical to LoadFile's. After every
// Update or ApplyEdits batch the repaired walks are appended to the edit
// log beside the file (path + ".log") and fsynced — the batch's cost, not
// the file's. A crash at any point leaves the file and a log whose whole
// records LoadFile replays: every batch that returned without an error,
// at most the batch in flight lost, never a part of one. The file is
// rewritten at a checkpoint: once the log reaches a quarter of the file, on
// the batch after a failed append, and on Close. A checkpoint encodes
// every block of the repaired index, publishes the file atomically (temp,
// fsync, rename) and then removes the log, so after it the file equals
// SaveFile of the repaired index, byte for byte. Neither queries nor
// checkpoints read the file after it is opened, and no handle on it is
// held. Like LoadFile's, the index answers and takes edits once
// AttachGraph has given it its graph. Call Close when done, to checkpoint
// what the log holds.
func LoadFileMapped(path string, _ MappedOptions) (*Index, error) {
	wi, err := walkindex.LoadWriteBack(path)
	if err != nil {
		return nil, err
	}
	return NewIndex(wi, nil)
}

// Backend reports how the walk rows are kept: "dense" when in memory only,
// "write-back" for an index from LoadFileMapped, whose edit batches are
// also made durable beside its file.
func (ix *Index) Backend() string { return ix.wi.Backend() }

// Close checkpoints a write-back index that has an edit log beside its
// file, or whose log is broken, so the file is SaveFile's for it and its
// edit log is gone; closing any other index does nothing. The index must
// not be used afterwards.
func (ix *Index) Close() error { return ix.wi.Close() }
