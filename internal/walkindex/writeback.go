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
// its block directory, each stored vertex's encoded length, and an open
// handle on the bytes it was read from. In the codec a vertex's bytes
// depend only on its own walks and on its predecessor's in the same block
// (appendVertexWalks), so after each Update the vertices of the repaired
// walks and their successors within a block are marked dirty, and the
// file is rewritten with every clean block copied verbatim from the old
// file and every dirty block spliced: dirty vertices re-encoded from the
// resident rows, the runs of clean vertices between them copied from the
// old file at offsets summed from the recorded lengths. atomicio publishes
// the result (temp file, fsync, rename, directory fsync). The encoding is
// canonical, so the file is byte for byte the one Save writes for the
// repaired index, at the cost of the vertices an edit batch changed rather
// than of their blocks.
//
// A failed write leaves the old file as it was and the in-memory index
// repaired: the directory, the recorded lengths and the dirty flags
// change only once a new file is published and reopened, so they keep
// describing the old file, and the next successful write-back persists
// every batch since the last one. Queries never read the file.

// ErrWriteBack marks an Update whose repair succeeded — the index in
// memory answers for the edited graph — but whose write-back to the index
// file failed, leaving the file at the last successful write-back.
var ErrWriteBack = errors.New("walkindex: writing back the index file")

// writeFile publishes a file atomically. It is a variable so tests can
// inject a failing write.
var writeFile = atomicio.WriteFile

// backing is the index file a write-back index keeps in step.
type backing struct {
	path    string
	kind    FileKind
	f       *os.File // the file as last read or written
	pre     []byte   // header + block geometry, rewritten verbatim
	blockB  int
	dir     []int64         // numBlocks+1 payload byte offsets within f
	vlen    []uint32        // per stored vertex: its encoded length within f
	dirty   []bool          // per stored vertex: re-encode at the next write-back
	enc     []byte          // the dirty blocks' encodings, reused across write-backs
	spliced []splicedVertex // the re-encoded vertices' new lengths, reused
}

// splicedVertex is a re-encoded vertex and its new encoded length, held
// until the file carrying it is published.
type splicedVertex struct {
	v   int
	len uint32
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
	ix.file = &backing{
		path: path, kind: kind, f: src,
		pre: f.hdr.preamble(int(f.blockB), len(f.dir)-1), blockB: int(f.blockB),
		dir: f.dir, vlen: f.vlen, dirty: make([]bool, len(f.vlen)),
	}
	return ix, nil
}

// markDirty marks the vertices whose encoding the repaired store-local
// walks can change: each walk's start vertex, and that vertex's successor
// when it lies in the same block, since its tails are shared against it.
func (bk *backing) markDirty(walks []int32, r int) {
	for _, w := range walks {
		v := int(w) / r
		bk.dirty[v] = true
		if next := v + 1; next < len(bk.dirty) && next%bk.blockB != 0 {
			bk.dirty[next] = true
		}
	}
}

// writeBack rewrites the backing file from the resident rows: clean blocks
// copied from the old file, dirty ones spliced (spliceBlock). On success
// the new file becomes the source of clean bytes and nothing is dirty.
func (ix *Index) writeBack() error {
	bk := ix.file
	if !slices.Contains(bk.dirty, true) {
		return nil
	}
	nb := len(bk.dir) - 1
	payload := int64(len(bk.pre)) + 8*int64(nb+1)
	lens, spliceB := make([]int64, nb), make([]bool, nb)
	bk.enc, bk.spliced = bk.enc[:0], bk.spliced[:0]
	cur, prev := make([][]int32, 0, ix.r), make([][]int32, 0, ix.r)
	for b := range lens {
		lens[b] = bk.dir[b+1] - bk.dir[b]
		vlo, vhi := b*bk.blockB, min((b+1)*bk.blockB, len(bk.dirty))
		if spliceB[b] = slices.Contains(bk.dirty[vlo:vhi], true); !spliceB[b] {
			continue
		}
		n := len(bk.enc)
		if err := ix.spliceBlock(vlo, vhi, payload+bk.dir[b], cur, prev); err != nil {
			return fmt.Errorf("%w: %w", ErrWriteBack, err)
		}
		lens[b] = int64(len(bk.enc) - n)
	}
	err := writeFile(bk.path, func(w io.Writer) error {
		rest := bk.enc
		return writeV2(w, bk.pre, lens, func(b int, w io.Writer) error {
			if spliceB[b] {
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
	// Clean bytes are read from the handle, so it must hold the bytes the
	// directory and the lengths describe: until the new file opens, the
	// old handle, directory and lengths stay, with the vertices still
	// dirty — the next write-back then produces the same file again.
	nf, err := os.Open(bk.path)
	if err != nil {
		return fmt.Errorf("%w: reopening %s: %w", ErrWriteBack, bk.path, err)
	}
	bk.f.Close()
	bk.f = nf
	for b, n := range lens {
		bk.dir[b+1] = bk.dir[b] + n
	}
	for _, sv := range bk.spliced {
		bk.vlen[sv.v] = sv.len
	}
	clear(bk.dirty)
	return nil
}

// spliceBlock appends to bk.enc the posting block of the stored vertices
// [vlo, vhi), which starts at byte off of the old file: each
// dirty vertex re-encoded from the resident rows, its new length noted in
// bk.spliced, and each run of clean vertices between them read from the
// old file. A run that cannot be read in full is an error, never a short
// block. cur and prev are scratch for r walk views each.
func (ix *Index) spliceBlock(vlo, vhi int, off int64, cur, prev [][]int32) error {
	bk := ix.file
	start := len(bk.enc)
	have := -1 // the vertex whose walks prev holds
	for v := vlo; v < vhi; {
		if !bk.dirty[v] {
			run := 0
			for ; v < vhi && !bk.dirty[v]; v++ {
				run += int(bk.vlen[v])
			}
			n := len(bk.enc)
			bk.enc = slices.Grow(bk.enc, run)[:n+run]
			if got, err := bk.f.ReadAt(bk.enc[n:], off); got < run {
				return fmt.Errorf("reading %d clean bytes at offset %d of %s: %w", run, off, bk.path, err)
			}
			off += int64(run)
			continue
		}
		var p [][]int32
		if v > vlo {
			if have != v-1 {
				prev = ix.store.walks(v-1, prev[:0])
			}
			p = prev
		}
		cur = ix.store.walks(v, cur[:0])
		n := len(bk.enc)
		bk.enc = appendVertexWalks(bk.enc, cur, p)
		bk.spliced = append(bk.spliced, splicedVertex{v: v, len: uint32(len(bk.enc) - n)})
		off += int64(bk.vlen[v])
		cur, prev, have = prev, cur, v
		v++
	}
	return checkBlockLen(len(bk.enc) - start)
}
