package walkindex

import (
	"errors"
	"fmt"
	"os"
	"slices"

	"oipsr/internal/atomicio"
)

// Write-back: the index file as a durable copy of resident rows.
//
// LoadWriteBack decodes a file into the resident store like Load, replays
// its edit log (editlog.go), and keeps what the file looks like: its path,
// size and trailer checksum, its header and block size, its block
// directory, each stored vertex's encoded length, and an open handle on
// the bytes it was read from. Each Update appends its repaired walks to
// the log; the file itself is rewritten only at a checkpoint. In the codec
// a vertex's bytes depend only on its own walks and on its predecessor's
// in the same block (appendVertexWalks), so every repaired or replayed
// walk marks its vertex and that vertex's successor within a block dirty,
// and a checkpoint rewrites the file through the one file writer
// (fileWriter), block by block: every clean block copied verbatim from the
// old file and every dirty block spliced — dirty vertices re-encoded from
// the resident rows, the runs of clean vertices between them copied from
// the old file at offsets summed from the recorded lengths. atomicio
// publishes the result (temp file, fsync, rename, directory fsync). The
// encoding is canonical, so the file is byte for byte the one Save writes
// for the repaired index, at the cost of the vertices the batches since
// the last checkpoint changed rather than of their blocks.
//
// A failed write — clean bytes the old file no longer holds in full
// included — publishes nothing: the old file and its log stay as they
// were and the in-memory index repaired. The directory, the recorded
// lengths and the dirty flags change only once a new file is published
// and reopened, so they keep describing the old file, and the next
// successful checkpoint persists every batch since the last one. Queries
// never read the file.

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
	path    string
	f       *os.File   // the file as last read or written
	size    int64      // f's size in bytes
	crc     uint32     // f's trailer checksum
	hdr     fileHeader // rewritten verbatim
	blockB  int
	payload int64           // offset of the payload within f
	dir     []int64         // numBlocks+1 payload byte offsets within f
	vlen    []uint32        // per stored vertex: its encoded length within f
	dirty   []bool          // per stored vertex: re-encode at the next checkpoint
	spliced []splicedVertex // the re-encoded vertices' new lengths, reused

	// logBytes is the length of f's edit log, header included, 0 when f
	// has none; logBroken marks a log that missed a batch or ends in a
	// torn or bad record, which only a checkpoint may follow.
	logBytes  int64
	logBroken bool
	rec, body []byte // the record being appended and its payload, reused
}

// splicedVertex is a re-encoded vertex and its new encoded length, held
// until the file carrying it is published.
type splicedVertex struct {
	v   int
	len uint32
}

// splicedBlock is one block of a checkpoint's window: its encoding, the
// vertices re-encoded in it, and the error that stopped it.
type splicedBlock struct {
	enc     []byte
	spliced []splicedVertex
	err     error
}

// spliceWindow is how many bytes of the old file's blocks a checkpoint
// splices before it writes them: a window of whole blocks, at least one,
// spliced in parallel.
const spliceWindow = 4 << 20

// LoadWriteBack reads the file of the given kind at path into a resident
// index, exactly as LoadFile does — its edit log replayed — that makes
// every Update durable: the batch is appended to the log, and the file
// rewritten at each checkpoint (editlog.go). Call Close to checkpoint and
// release the file handle.
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
	walks, valid, total, err := ix.replayLog(path, f.size, f.crc)
	if err != nil {
		src.Close()
		return nil, err
	}
	blockB, nb := int(f.blockB), len(f.dir)-1
	ix.file = &backing{
		path: path, f: src, size: f.size, crc: f.crc, hdr: f.hdr, blockB: blockB,
		payload: int64(len(f.hdr.preamble(blockB, nb))) + 8*int64(nb+1),
		dir:     f.dir, vlen: f.vlen, dirty: make([]bool, len(f.vlen)),
	}
	ix.file.logBytes, ix.file.logBroken = valid, valid < total
	ix.file.markDirty(walks, ix.r)
	return ix, nil
}

// LoadFile reads the file of the given kind at path into a resident index
// as Load does, then replays the edit log beside it, if one names the
// file, onto the decoded rows: the index is the one the last durable
// Update of a write-back index left. It never writes.
func LoadFile(path string, kind FileKind) (*Index, error) {
	src, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer src.Close()
	f, err := readFile(src, kind)
	if err != nil {
		return nil, err
	}
	ix := f.newIndex()
	if _, _, _, err := ix.replayLog(path, f.size, f.crc); err != nil {
		return nil, err
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

// writeBack rewrites the backing file from the resident rows through the
// file writer: windows of blocks spliced (spliceBlock, which copies a clean
// one whole from the old file) on workers goroutines (1 = serial, <1 = all
// CPUs) and handed to the writer in order. On success the new file becomes
// the source of clean bytes and nothing is dirty. It is the checkpoint's
// first half (editlog.go).
func (ix *Index) writeBack(workers int) error {
	bk := ix.file
	if !slices.Contains(bk.dirty, true) {
		return nil
	}
	dir := make([]int64, 1, len(bk.dir))
	bk.spliced = bk.spliced[:0]
	var window []splicedBlock // the window's blocks, reused across windows
	var size int64
	var sum uint32
	err := writeFile(bk.path, func(f *os.File) error {
		fw := newFileWriter(f, bk.hdr, bk.blockB)
		for b0 := 0; b0 < fw.blocks; {
			b1 := b0 + 1
			for b1 < fw.blocks && bk.dir[b1+1]-bk.dir[b0] <= spliceWindow {
				b1++
			}
			for len(window) < b1-b0 {
				window = append(window, splicedBlock{})
			}
			eachBlock(workers, b1-b0, func() func(i int) {
				cur, prev := make([][]int32, 0, ix.r), make([][]int32, 0, ix.r)
				return func(i int) {
					b, sb := b0+i, &window[i]
					vlo, vhi := b*bk.blockB, min((b+1)*bk.blockB, len(bk.dirty))
					sb.enc, sb.spliced, sb.err = ix.spliceBlock(sb.enc[:0], sb.spliced[:0], vlo, vhi, bk.payload+bk.dir[b], cur, prev)
				}
			})
			for i, sb := range window[:b1-b0] {
				if sb.err != nil {
					return sb.err
				}
				if err := fw.add(sb.enc); err != nil {
					return err
				}
				dir = append(dir, dir[b0+i]+int64(len(sb.enc)))
				bk.spliced = append(bk.spliced, sb.spliced...)
			}
			b0 = b1
		}
		var err error
		size, sum, err = fw.finish()
		return err
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
	bk.f, bk.size, bk.crc, bk.dir = nf, size, sum, dir
	for _, sv := range bk.spliced {
		bk.vlen[sv.v] = sv.len
	}
	clear(bk.dirty)
	return nil
}

// spliceBlock appends to dst the posting block of the stored vertices
// [vlo, vhi), which starts at byte off of the old file: each dirty vertex
// re-encoded from the resident rows, its new length appended to spliced,
// and each run of clean vertices between them read from the old file — a
// clean block is one such run. A run that cannot be read in full is an
// error, never a short block. cur and prev are scratch for r walk views
// each. It only reads the index and the old file, so blocks splice in
// parallel.
func (ix *Index) spliceBlock(dst []byte, spliced []splicedVertex, vlo, vhi int, off int64, cur, prev [][]int32) ([]byte, []splicedVertex, error) {
	bk := ix.file
	have := -1 // the vertex whose walks prev holds
	for v := vlo; v < vhi; {
		if !bk.dirty[v] {
			run := 0
			for ; v < vhi && !bk.dirty[v]; v++ {
				run += int(bk.vlen[v])
			}
			n := len(dst)
			dst = slices.Grow(dst, run)[:n+run]
			if got, err := bk.f.ReadAt(dst[n:], off); got < run {
				return dst, spliced, fmt.Errorf("reading %d clean bytes at offset %d of %s: %w", run, off, bk.path, err)
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
		n := len(dst)
		dst = appendVertexWalks(dst, cur, p)
		spliced = append(spliced, splicedVertex{v: v, len: uint32(len(dst) - n)})
		off += int64(bk.vlen[v])
		cur, prev, have = prev, cur, v
		v++
	}
	return dst, spliced, nil
}
