package walkindex

import (
	"errors"
	"fmt"
	"io"
	"os"
	"slices"

	"oipsr/internal/atomicio"
)

// Write-back: the index file as a durable copy of resident rows.
//
// LoadWriteBack decodes a file into the resident store like Load, and
// keeps what the file looks like: its path and kind, its leading bytes,
// its block directory, and an open handle on the bytes it was read from.
// After each Update the posting blocks holding a repaired vertex are
// marked dirty, and the file is rewritten with those blocks re-encoded
// from the resident rows and every clean block copied verbatim from the
// old file, published by atomicio (temp file, fsync, rename, directory
// fsync). The encoding is canonical, so the result is byte for byte the
// file Save writes for the repaired index, at the cost of the blocks an
// edit batch touched rather than all of them.
//
// A failed write leaves the old file as it was and the in-memory index
// repaired: the blocks stay dirty, and the next successful write-back
// persists every batch since the last one. Queries never read the file.

// ErrWriteBack marks an Update whose repair succeeded — the index in
// memory answers for the edited graph — but whose write-back to the index
// file failed, leaving the file at the last successful write-back.
var ErrWriteBack = errors.New("walkindex: writing back the index file")

// writeFile publishes a file atomically. It is a variable so tests can
// inject a failing write.
var writeFile = atomicio.WriteFile

// backing is the index file a write-back index keeps in step.
type backing struct {
	path   string
	kind   FileKind
	f      *os.File // the file as last read or written
	pre    []byte   // header + block geometry, rewritten verbatim
	blockB int
	dir    []int64 // numBlocks+1 payload byte offsets within f
	dirty  []bool  // per block: re-encode at the next write-back
	enc    []byte  // the dirty blocks' encodings, reused across write-backs
}

// LoadWriteBack reads the file of the given kind at path into a resident
// index, exactly as Load does, that writes its repairs back to the file
// after every Update. Call Close to release the file handle.
func LoadWriteBack(path string, kind FileKind) (*Index, error) {
	src, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("walkindex: opening %s file: %w", kind, err)
	}
	f, err := readFile(src, kind)
	if err != nil {
		src.Close()
		return nil, err
	}
	ix := f.newIndex()
	nb := len(f.dir) - 1
	ix.file = &backing{
		path: path, kind: kind, f: src,
		pre: f.hdr.preamble(int(f.blockB), nb), blockB: int(f.blockB),
		dir: f.dir, dirty: make([]bool, nb),
	}
	return ix, nil
}

// markDirty marks the blocks holding the repaired store-local walks.
func (bk *backing) markDirty(walks []int32, r int) {
	for _, w := range walks {
		bk.dirty[int(w)/r/bk.blockB] = true
	}
}

// writeBack rewrites the backing file from the resident rows: dirty blocks
// re-encoded, clean ones copied from the old file. On success the new file
// becomes the source of clean blocks and nothing is dirty.
func (ix *Index) writeBack() error {
	bk := ix.file
	if !slices.Contains(bk.dirty, true) {
		return nil
	}
	nb := len(bk.dirty)
	lens := make([]int64, nb)
	enc := bk.enc[:0]
	for b := range lens {
		lens[b] = bk.dir[b+1] - bk.dir[b]
		if !bk.dirty[b] {
			continue
		}
		n := len(enc)
		var err error
		if enc, err = ix.store.appendBlock(enc, b, bk.blockB); err != nil {
			return fmt.Errorf("%w: %w", ErrWriteBack, err)
		}
		lens[b] = int64(len(enc) - n)
	}
	bk.enc = enc
	payload := int64(len(bk.pre)) + 8*int64(nb+1)
	err := writeFile(bk.path, func(w io.Writer) error {
		rest := enc
		return writeV2(w, bk.pre, lens, func(b int, w io.Writer) error {
			if bk.dirty[b] {
				_, err := w.Write(rest[:lens[b]])
				rest = rest[lens[b]:]
				return err
			}
			_, err := io.Copy(w, io.NewSectionReader(bk.f, payload+bk.dir[b], lens[b]))
			return err
		}, bk.kind.String())
	})
	if err != nil {
		return fmt.Errorf("%w %s: %w", ErrWriteBack, bk.path, err)
	}
	// Clean blocks are read from the handle, so it must hold the bytes the
	// directory describes: until the new file opens, the old handle and
	// directory stay, with the blocks still dirty — the next write-back
	// then produces the same file again.
	nf, err := os.Open(bk.path)
	if err != nil {
		return fmt.Errorf("%w: reopening %s: %w", ErrWriteBack, bk.path, err)
	}
	bk.f.Close()
	bk.f = nf
	for b, n := range lens {
		bk.dir[b+1] = bk.dir[b] + n
	}
	clear(bk.dirty)
	return nil
}
