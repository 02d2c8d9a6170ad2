package walkindex

import (
	"errors"
	"fmt"
	"os"

	"oipsr/internal/atomicio"
)

// Write-back: the index file as a durable copy of resident rows.
//
// LoadWriteBack decodes a file into the resident store like LoadFile —
// its edit log replayed (editlog.go) — and keeps what the file is: its
// path, its block size, and its size and trailer checksum, which
// name it in the log's header. Each Update appends its repaired walks to
// the log; the file itself is rewritten only at a checkpoint, which
// writes exactly the bytes Save writes for the resident rows, at the
// block size of the loaded file, through the one block encoder
// (fileWriter.addStore) on workers goroutines. atomicio publishes the
// result (temp file, fsync, rename, directory fsync). A checkpoint reads
// nothing from the old file: the rows alone determine the new one, so
// the file may be truncated, overwritten or gone by then.
//
// A failed write publishes nothing: the old file and its log stay as they
// were and the in-memory index repaired. The recorded size and checksum
// change only once a new file is published, so they keep naming the old
// file, and the next successful checkpoint persists every batch since the
// last one. Queries never read the file.

// ErrWriteBack marks an Update whose repair succeeded — the index in
// memory answers for the edited graph — but whose durable step failed:
// the append to the edit log, or a checkpoint. The file and its log hold
// the batches made durable before it; the next batch checkpoints, and so
// persists every batch since.
var ErrWriteBack = errors.New("walkindex: writing back the index file")

// writeFile publishes a file atomically. It is a variable so tests can
// inject a failing write.
var writeFile = atomicio.WriteFileAt

// backing is the index file a write-back index keeps in step.
type backing struct {
	path   string
	blockB int    // the file's block size, which a checkpoint keeps
	size   int64  // the file's size in bytes
	crc    uint32 // its trailer checksum

	// logBytes is the length of the file's edit log, header included, 0
	// when it has none; logBroken marks a log that missed a batch or ends
	// in a torn or bad record, which only a checkpoint may follow.
	logBytes  int64
	logBroken bool
	rec, body []byte // the record being appended and its payload, reused
}

// LoadWriteBack reads the index file at path into a resident
// index, exactly as LoadFile does — its edit log replayed — that makes
// every Update durable: the batch is appended to the log, and the file
// rewritten at each checkpoint (editlog.go). Call Close to checkpoint
// what the log holds.
func LoadWriteBack(path string) (*Index, error) {
	ix, bk, err := openFile(path)
	if err != nil {
		return nil, err
	}
	ix.file = bk
	return ix, nil
}

// LoadFile reads the index file at path into a resident index
// as Load does, then replays the edit log beside it, if one names the
// file, onto the decoded rows: the index is the one the last durable
// Update of a write-back index left. It never writes.
func LoadFile(path string) (*Index, error) {
	ix, _, err := openFile(path)
	return ix, err
}

// openFile is the path-based open LoadFile and LoadWriteBack share: the
// file decoded, its edit log replayed, and the file described as a
// write-back index keeps it. The file is closed when it returns.
func openFile(path string) (*Index, *backing, error) {
	src, err := os.Open(path)
	if err != nil {
		return nil, nil, fmt.Errorf("walkindex: opening index file: %w", err)
	}
	defer src.Close()
	f, err := readFile(src)
	if err != nil {
		return nil, nil, err
	}
	ix := f.newIndex()
	valid, total, err := ix.replayLog(path, f.size, f.crc)
	if err != nil {
		return nil, nil, err
	}
	return ix, &backing{path: path, blockB: int(f.blockB), size: f.size, crc: f.crc,
		logBytes: valid, logBroken: valid < total}, nil
}

// writeBack publishes the file Save writes for the resident rows, at the
// backing file's block size, its blocks encoded on workers goroutines (1
// = serial, <1 = all CPUs). It is the checkpoint's first half
// (editlog.go).
func (ix *Index) writeBack(workers int) error {
	bk := ix.file
	var size int64
	var sum uint32
	err := writeFile(bk.path, func(f *os.File) error {
		var err error
		size, sum, err = ix.saveBlocks(f, bk.blockB, workers)
		return err
	})
	if err != nil {
		return fmt.Errorf("%w %s: %w", ErrWriteBack, bk.path, err)
	}
	bk.size, bk.crc = size, sum
	return nil
}
