package walkindex

import "sync/atomic"

// Block readahead for the mapped store.
//
// A mapped index pays one posting-block decode per cache miss, on the
// query path. Point lookups amortize that through the LRU, but the
// scan-heavy queries — MultiSource's target sweep, Join's per-fingerprint
// position materialization, the shard partials — walk the whole store in
// ascending vertex order and miss on every new block, serializing decode
// behind the sweep. The prefetch pool moves those decodes off the hot
// path: a small fixed set of workers drains a bounded queue of block ids,
// decoding each into the LRU just ahead of the reader.
//
// Two things feed the queue. Sweeps that know their range declare it up
// front through PathStore.Prefetch, which seeds the first window and
// primes a detector slot so every subsequent block access rolls the window
// forward. Everything else goes through sequential-scan detection on the
// row path: a handful of atomic stream slots (one per concurrently
// sweeping reader, replaced round-robin) each remember the next block an
// ascending scan would touch, and a confirmed continuation schedules the
// blocks behind it — the kernel-readahead idea applied to decoded blocks.
//
// Everything is advisory. The queue drops on overflow, depth is clamped
// below the cache capacity so readahead cannot evict the block under the
// reader, and a prefetched block is bit-identical to a demand-decoded one
// — so answers never depend on whether the pool kept up.

// DefaultPrefetchBlocks is the readahead depth used when
// MappedOptions.PrefetchBlocks is zero.
const DefaultPrefetchBlocks = 8

// prefetchWorkers is the pool size; prefetchQueue bounds the pending block
// ids (overflow drops, it never blocks the reader).
const (
	prefetchWorkers = 2
	prefetchQueue   = 64
)

// detectorStreams is how many interleaved sequential scans the detector
// tracks — one slot per sweeping worker, a few spares for point-query
// noise. Slots are replaced round-robin, so a burst of random accesses
// recycles them without touching an active stream's slot.
const detectorStreams = 8

// streamDetector recognizes ascending block-sequential access patterns.
// Each slot holds the next block id its stream expects (b+1 after an
// access to b); the zero value primes every slot for a scan starting at
// block 0, the common case. All methods are safe for concurrent use.
type streamDetector struct {
	slots [detectorStreams]atomic.Int64
	clock atomic.Uint32
}

// observe records an access to block b and reports whether it continues a
// tracked ascending stream (the signal to schedule readahead). Repeated
// accesses within one block — 64 row calls land in the same posting block
// — match the already-advanced slot and are not counted again, so they
// neither re-schedule nor thrash the slots.
func (d *streamDetector) observe(b int64) bool {
	for i := range d.slots {
		v := d.slots[i].Load()
		if v == b+1 {
			return false
		}
		if v == b && d.slots[i].CompareAndSwap(b, b+1) {
			return true
		}
	}
	d.slots[d.clock.Add(1)%detectorStreams].Store(b + 1)
	return false
}

// prime points a slot at block b so a declared sweep's first access counts
// as a continuation immediately instead of after one warm-up block.
func (d *streamDetector) prime(b int64) {
	d.slots[d.clock.Add(1)%detectorStreams].Store(b)
}

// startPrefetch launches the worker pool; no-op when the resolved depth is
// zero (prefetch disabled, or a cache too small to hold readahead).
func (ms *mappedStore) startPrefetch() {
	if ms.pfDepth == 0 {
		return
	}
	ms.pfq = make(chan int, prefetchQueue)
	ms.pfStop = make(chan struct{})
	ms.pfWG.Add(prefetchWorkers)
	for i := 0; i < prefetchWorkers; i++ {
		go ms.prefetchLoop()
	}
}

// stopPrefetch quiesces the pool: after it returns no worker touches the
// backing file or the cache again. Close calls it before releasing the
// mapping; it is idempotent.
func (ms *mappedStore) stopPrefetch() {
	if ms.pfDepth == 0 {
		return
	}
	ms.pfOnce.Do(func() { close(ms.pfStop) })
	ms.pfWG.Wait()
}

func (ms *mappedStore) prefetchLoop() {
	defer ms.pfWG.Done()
	for {
		// The stop probe comes first so a closed store wins over a backlog.
		select {
		case <-ms.pfStop:
			return
		default:
		}
		select {
		case <-ms.pfStop:
			return
		case b := <-ms.pfq:
			ms.prefetchBlock(b)
		}
	}
}

// prefetchBlock decodes block b into the LRU unless it is already resident
// (cached or dirty in the overlay). The read lock spans decode + cache
// fill: flush takes the write side across its backing-file swap and
// overlay demotion, so a worker can never publish a block decoded from
// superseded bytes over the repaired one.
func (ms *mappedStore) prefetchBlock(b int) {
	ms.pfMu.RLock()
	defer ms.pfMu.RUnlock()
	ms.mu.Lock()
	_, dirty := ms.overlay[b]
	ms.mu.Unlock()
	if dirty {
		return
	}
	if _, ok := ms.cache.Get(b); ok {
		return
	}
	ms.cache.Put(b, ms.decodeBlock(b))
	ms.pfLoads.Add(1)
}

// schedule enqueues block b for the pool, dropping it when the queue is
// full — readahead is advisory, the reader must never wait on it.
func (ms *mappedStore) schedule(b int) {
	if b < 0 || b >= ms.nb {
		return
	}
	select {
	case ms.pfq <- b:
	default:
	}
}

// scheduleWindow enqueues the readahead window behind block b.
func (ms *mappedStore) scheduleWindow(b int) {
	for nb := b + 1; nb <= b+ms.pfDepth; nb++ {
		ms.schedule(nb)
	}
}

// Prefetch implements PathStore: a sweep declares the store-local vertex
// range [lo, hi) it is about to read in ascending order. The first window
// of covering blocks is seeded immediately and a detector slot is primed
// so the sweep's own block accesses keep the window rolling.
func (ms *mappedStore) Prefetch(lo, hi int) {
	if ms.pfDepth == 0 || lo >= hi || lo < 0 {
		return
	}
	b0 := lo / ms.blockB
	last := (hi - 1) / ms.blockB
	ms.det.prime(int64(b0))
	for b := b0; b <= min(b0+ms.pfDepth, last); b++ {
		ms.schedule(b)
	}
}
