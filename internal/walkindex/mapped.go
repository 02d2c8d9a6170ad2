package walkindex

import (
	"fmt"
	"io"
	"os"
	"slices"
	"sync"
	"sync/atomic"

	"oipsr/internal/atomicio"
	"oipsr/internal/lru"
)

// Mapped (paged) serving of index files.
//
// LoadMapped (serialize.go) opens a file without materializing the dense
// []int32 path payload. Queries decode single posting blocks on
// demand — zero-copy out of an mmap'd region where the platform supports
// it (mmap_unix.go), through ReadAt otherwise — behind a small LRU of
// decoded blocks. The file is fully validated at open (header guards,
// structural decode of every block, per-entry range checks, CRC, exact
// file length), so the demand-paging read path cannot fail on the bytes
// it already vetted: a decode error after open means the file was mutated
// underneath the mapping, and the store panics with that diagnosis rather
// than serving silently corrupt scores.
//
// Update works on a mapped index too: repaired rows are promoted into an
// in-memory overlay (copy-on-write per block), and the Update paths flush
// the overlay back to disk by rewriting only the dirty vertices' blocks —
// clean block bytes are copied verbatim — through atomicio, then remapping
// the new file. If the flush fails, the in-memory overlay still serves
// consistent post-edit answers; the backing file is simply stale, and the
// next successful Update persists both.

// DefaultMappedCacheBlocks is the decoded-block LRU capacity used when
// MappedOptions.CacheBlocks is zero. At the default block geometry (64
// vertices per block) this keeps ~2k vertices' decoded walks hot.
const DefaultMappedCacheBlocks = 32

// MappedOptions configures LoadMapped.
type MappedOptions struct {
	// CacheBlocks is the capacity of the decoded-block LRU. Zero means
	// DefaultMappedCacheBlocks; negative disables caching (every row
	// access decodes its block — useful only for measuring cold costs).
	CacheBlocks int
	// DisableMmap forces the portable ReadAt path even where mmap is
	// available.
	DisableMmap bool
	// PrefetchBlocks is the readahead depth in posting blocks: when a
	// sweep declares its range (PathStore.Prefetch) or an ascending block
	// scan is detected, up to this many upcoming blocks are decoded into
	// the LRU ahead of the reader (see prefetch.go). Zero means
	// DefaultPrefetchBlocks; negative disables prefetching. The effective
	// depth is clamped below the cache capacity so readahead never evicts
	// the block under the reader.
	PrefetchBlocks int
}

func (o MappedOptions) cacheBlocks() int {
	if o.CacheBlocks == 0 {
		return DefaultMappedCacheBlocks
	}
	return o.CacheBlocks
}

// prefetchDepth resolves PrefetchBlocks against the cache capacity: with
// at most one cache slot there is nowhere to put readahead, and the
// window must leave at least the reader's own block un-evictable.
func (o MappedOptions) prefetchDepth() int {
	cb := o.cacheBlocks()
	if cb <= 1 || o.PrefetchBlocks < 0 {
		return 0
	}
	d := o.PrefetchBlocks
	if d == 0 {
		d = DefaultPrefetchBlocks
	}
	return min(d, cb-1)
}

// fileBacking is the byte source behind a mapped store: an mmap'd region
// when available, a plain ReadAt fallback otherwise.
type fileBacking struct {
	f    *os.File
	data []byte // whole-file mapping; nil on the ReadAt path
	size int64
}

func openBacking(path string, disableMmap bool) (*fileBacking, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("walkindex: opening mapped index: %w", err)
	}
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("walkindex: opening mapped index: %w", err)
	}
	bk := &fileBacking{f: f, size: st.Size()}
	if !disableMmap && bk.size > 0 {
		if data, err := mmapFile(f, bk.size); err == nil {
			bk.data = data
		}
		// mmap failure is not an error: fall back to ReadAt silently.
	}
	return bk, nil
}

// slice returns file bytes [off, off+n): a zero-copy view of the mapping,
// or a fresh ReadAt copy. Offsets come from the validated directory.
func (bk *fileBacking) slice(off, n int64) ([]byte, error) {
	if bk.data != nil {
		return bk.data[off : off+n : off+n], nil
	}
	buf := make([]byte, n)
	if _, err := bk.f.ReadAt(buf, off); err != nil {
		return nil, err
	}
	return buf, nil
}

func (bk *fileBacking) close() error {
	var err error
	if bk.data != nil {
		err = munmapFile(bk.data)
		bk.data = nil
	}
	if cerr := bk.f.Close(); err == nil {
		err = cerr
	}
	return err
}

// mappedStore is the PathStore paging an index file block by block.
type mappedStore struct {
	path   string
	what   string // "index" or "shard", for error labels
	rows   int    // store-local start vertices
	k, r   int
	stride int // r*k entries per row
	blockB int // start vertices per posting block
	opts   MappedOptions

	pre        []byte  // header + v2 meta, reused verbatim by flush
	dir        []int64 // numBlocks+1 payload byte offsets
	payloadOff int64   // file offset of payload byte 0

	bk    *fileBacking
	cache *lru.Cache[int, []int32] // decoded clean blocks

	mu      sync.Mutex
	overlay map[int][]int32 // dirty decoded blocks, not yet flushed

	// Prefetch pool state (see prefetch.go). pfMu orders the workers'
	// decode+fill against flush's backing swap: workers hold the read
	// side, flush the write side. Lock order is pfMu before mu.
	nb      int // posting-block count, constant across flushes
	pfDepth int // resolved readahead depth; 0 = prefetch disabled
	pfq     chan int
	pfStop  chan struct{}
	pfOnce  sync.Once
	pfWG    sync.WaitGroup
	pfMu    sync.RWMutex
	det     streamDetector
	pfLoads atomic.Int64 // blocks decoded by the pool (tests, bench)
}

// newMappedStore pages the file at path, which readFile has just
// validated as f.
func newMappedStore(path string, f *validFile, opts MappedOptions) (*mappedStore, error) {
	bk, err := openBacking(path, opts.DisableMmap)
	if err != nil {
		return nil, err
	}
	nb := len(f.dir) - 1
	pre := f.hdr.preamble(int(f.blockB), nb) // the file's own leading bytes
	k, r := int(f.hdr.k), int(f.hdr.r)
	ms := &mappedStore{
		path: path, what: f.hdr.kind.String(), rows: int(f.hdr.rows()), k: k, r: r, stride: r * k,
		blockB: int(f.blockB), opts: opts,
		pre: pre, dir: f.dir, payloadOff: int64(len(pre)) + 8*int64(len(f.dir)),
		bk:      bk,
		cache:   lru.New[int, []int32](opts.cacheBlocks()),
		overlay: map[int][]int32{},
		nb:      nb,
		pfDepth: opts.prefetchDepth(),
	}
	ms.startPrefetch()
	return ms, nil
}

// decodeBlock decodes posting block b from the backing file. The file was
// fully validated at open, so failure here means it changed on disk under
// the store — that is unrecoverable mid-query, hence the panic.
func (ms *mappedStore) decodeBlock(b int) []int32 {
	width := min(ms.blockB, ms.rows-b*ms.blockB)
	buf, err := ms.bk.slice(ms.payloadOff+ms.dir[b], ms.dir[b+1]-ms.dir[b])
	if err != nil {
		panic(fmt.Sprintf("walkindex: mapped %s %s changed on disk (block %d: %v)", ms.what, ms.path, b, err))
	}
	dst := make([]int32, width*ms.stride)
	if err := decodeV2Block(buf, dst, width, ms.k, ms.r); err != nil {
		panic(fmt.Sprintf("walkindex: mapped %s %s changed on disk (block %d: %v)", ms.what, ms.path, b, err))
	}
	return dst
}

// block returns the decoded posting block holding store-local vertex v's
// walks: the dirty overlay copy if one exists, the LRU'd clean copy, or a
// fresh decode.
func (ms *mappedStore) block(b int) []int32 {
	ms.mu.Lock()
	blk, dirty := ms.overlay[b]
	ms.mu.Unlock()
	if dirty {
		return blk
	}
	if blk, ok := ms.cache.Get(b); ok {
		return blk
	}
	blk = ms.decodeBlock(b)
	ms.cache.Put(b, blk)
	return blk
}

// row returns v's slice of its decoded block: every walk's k entries,
// -1 tail included.
func (ms *mappedStore) row(v int) walkRow {
	b := v / ms.blockB
	if ms.pfDepth > 0 && ms.det.observe(int64(b)) {
		ms.scheduleWindow(b)
	}
	blk := ms.block(b)
	off := (v - b*ms.blockB) * ms.stride
	return walkRow{data: blk[off : off+ms.stride], k: ms.k}
}

// rewrite repairs the walks in place, in v's row of the overlay.
func (ms *mappedStore) rewrite(v int, fps []int, fix func(j int, path []int32)) {
	row := ms.mutableRow(v)
	for j, fp := range fps {
		fix(j, row[fp*ms.k:(fp+1)*ms.k])
	}
}

// mutableRow promotes v's block into the overlay (copy-on-write) and
// returns the writable row. The overlay copy also replaces the block's
// cache slot, so readers converge on the repaired data immediately.
func (ms *mappedStore) mutableRow(v int) []int32 {
	b := v / ms.blockB
	ms.mu.Lock()
	blk, ok := ms.overlay[b]
	if !ok {
		if clean, hit := ms.cache.Get(b); hit {
			blk = slices.Clone(clean)
		} else {
			blk = ms.decodeBlock(b)
		}
		ms.overlay[b] = blk
		ms.cache.Put(b, blk)
	}
	ms.mu.Unlock()
	off := (v - b*ms.blockB) * ms.stride
	return blk[off : off+ms.stride]
}

func (ms *mappedStore) Rows() int { return ms.rows }

// Bytes reports the backing file's size — the compressed on-disk
// footprint, which is what a mapped deployment actually pages — not the
// transient decoded-block cache.
func (ms *mappedStore) Bytes() int64 { return ms.bk.size }

func (ms *mappedStore) Kind() string {
	if ms.bk.data != nil {
		return "mapped"
	}
	return "mapped-readat"
}

func (ms *mappedStore) Close() error {
	// Quiesce the prefetch pool before the mapping goes away: after
	// stopPrefetch returns no worker touches the backing file again.
	ms.stopPrefetch()
	ms.mu.Lock()
	defer ms.mu.Unlock()
	ms.cache.Clear()
	ms.overlay = map[int][]int32{}
	return ms.bk.close()
}

// flush rewrites the backing file with the overlay's dirty blocks
// re-encoded and every clean block's bytes copied verbatim, atomically
// (temp + fsync + rename), then remaps the new file and demotes the
// overlay into the clean cache. Called by the Update paths via flushStore.
//
// On error the overlay is kept: queries keep serving the repaired in-memory
// state, the file on disk is merely stale, and the next successful Update
// persists both.
func (ms *mappedStore) flush() error {
	// The write side of pfMu stalls prefetch workers for the whole
	// rewrite: a worker that decoded from the pre-flush backing must not
	// publish its block after the overlay has been demoted over it. Lock
	// order is pfMu before mu, matching prefetchBlock's read side.
	ms.pfMu.Lock()
	defer ms.pfMu.Unlock()
	ms.mu.Lock()
	defer ms.mu.Unlock()
	if len(ms.overlay) == 0 {
		return nil
	}
	nb := len(ms.dir) - 1
	blocks := make([][]byte, nb)
	for b := 0; b < nb; b++ {
		if blk, ok := ms.overlay[b]; ok {
			vlo := b * ms.blockB
			width := min(ms.blockB, ms.rows-vlo)
			enc, err := appendV2Block(nil, func(v int) []int32 {
				off := (v - vlo) * ms.stride
				return blk[off : off+ms.stride]
			}, vlo, width, ms.k, ms.r)
			if err != nil {
				return err
			}
			if len(enc) > maxV2BlockBytes {
				return fmt.Errorf("%w: encoded posting block of %d bytes exceeds %d", ErrFormatLimits, len(enc), maxV2BlockBytes)
			}
			blocks[b] = enc
		} else {
			raw, err := ms.bk.slice(ms.payloadOff+ms.dir[b], ms.dir[b+1]-ms.dir[b])
			if err != nil {
				return fmt.Errorf("walkindex: flushing mapped %s: reading clean block %d: %w", ms.what, b, err)
			}
			blocks[b] = raw
		}
	}
	if err := atomicio.WriteFile(ms.path, func(w io.Writer) error {
		return writeV2(w, ms.pre, blocks, ms.what)
	}); err != nil {
		return fmt.Errorf("walkindex: flushing mapped %s: %w", ms.what, err)
	}

	// The file on disk is now the repaired index; swap the mapping and
	// bookkeeping over to it. Failing to remap after a successful rename
	// is reported, and the overlay is kept so queries stay correct.
	newDir := make([]int64, nb+1)
	for b, blk := range blocks {
		newDir[b+1] = newDir[b] + int64(len(blk))
	}
	bk, err := openBacking(ms.path, ms.opts.DisableMmap)
	if err != nil {
		return fmt.Errorf("walkindex: remapping flushed %s: %w", ms.what, err)
	}
	old := ms.bk
	ms.bk, ms.dir = bk, newDir
	for b, blk := range ms.overlay {
		ms.cache.Put(b, blk)
	}
	ms.overlay = map[int][]int32{}
	if err := old.close(); err != nil {
		return fmt.Errorf("walkindex: closing pre-flush mapping: %w", err)
	}
	return nil
}
