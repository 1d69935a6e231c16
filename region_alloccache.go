package rcgo

import (
	"fmt"
	"sync"
	"sync/atomic"
	"unsafe"
)

// Allocation fast path for the concurrent arena (DESIGN.md §11).
//
// The paper's whole cost argument is that region allocation is a pointer
// bump: `ralloc` touches only region-local state, and safety is paid for
// at pointer *assignments*, not allocations. The original TryAlloc
// betrayed that: every object took the region's lifecycle mutex and
// updated two arena-shared atomics (objs, liveObjs), so a tight Alloc
// loop serialized on one lock and bounced two contended cache lines.
// This file replaces that with two cooperating caches:
//
//   - Batched counter deltas. Each region lazily owns a small block of
//     cache-line-padded shards (allocCache); an admitted allocation adds
//     +1 to one shard chosen by hashing the object address — the same
//     Fibonacci scheme the slot registry uses, and goroutine-correlated
//     because the Go allocator hands a goroutine addresses from its P's
//     spans. Deltas drain into the real objs/liveObjs counters on a
//     threshold, on Region.Stats / Arena.Stats, at DeleteDeferred's
//     zombie transition, and at reclaim — so the counters are exact at
//     every quiesce point (the Arena.Audit contract) while the hot loop
//     touches one shard-local line.
//   - Pooled object chunks. Obj headers are handed out of per-type
//     chunks, so a chunk's worth of allocations costs one heap
//     allocation. A partially-used chunk parks in a per-region slot
//     (Region.chunkPark — it used to be an arena-wide slot array, which
//     made concurrent single-type regions displace each other's chunks
//     and bounce the shared slot words; see DESIGN.md §12) picked by
//     object size, so a region interleaving a few types keeps a chunk
//     of each parked. A parked chunk is shared in place: allocators
//     claim indices off its atomic cursor, so steady state is one load
//     plus one fetch-add and the slot word is written only at refill or
//     exhaustion. Parked chunks are strong references, so unlike a bare
//     sync.Pool the cache survives GC cycles under allocation churn.
//     The sync.Pool, shared per type across the whole process, is the
//     second level, touched only on slot misses; reclaim returns a
//     region's parked chunks to their pools so the chunk capacity
//     outlives the region. Oversized types bypass chunking.
//
// Why exact-at-quiesce still holds (the increment-then-validate
// argument, same shape as incRC): an allocation publishes its +1 delta
// *before* loading the region state. Go atomics are sequentially
// consistent, so if the load observed stateAlive, the +1 preceded any
// later dying/dead store and therefore preceded reclaim's drain — an
// admitted object's delta can never be missed by the reclaim that frees
// it. An allocation that observes a deleted state withdraws its +1; if
// a drain or flush captured the +1 before the withdrawal landed, both
// halves of the pair eventually reach objs (every flush credits objs
// AND liveObjs, and reclaim's final objs.Swap removes whatever objs
// accumulated), so the pair nets to zero everywhere it can be seen.
// Residual deltas parked on a reclaimed region's shards are exactly
// such half-pairs and are never read again.
//
// The cache-refill edge carries the rcgo/alloc.refill failpoint: an
// injected error is a transient allocator failure (surfaced before any
// counting, so nothing unwinds), and its perturbations fire inside the
// flush window, widening the interval during which deltas are in flight
// between a shard and the real counters.

// allocShards is the number of delta shards per region. Allocations
// hash to a shard by object address, so concurrent allocators rarely
// share a shard cache line.
const allocShards = 8

// allocFlushThreshold is the per-shard delta at which an allocation
// attempts a best-effort flush. Worth at most threshold*shards of lag
// on the scalar accessors between flush points; exactness never depends
// on it.
const allocFlushThreshold = 64

// allocShard is one padded delta accumulator: pending admitted-object
// count not yet credited to objs/liveObjs (transiently negative on a
// deleted region while a failed allocation's withdraw is in flight).
type allocShard struct {
	pending atomic.Int64
	_       [56]byte
}

// allocCache is a region's delta shard block, allocated lazily on the
// first fast-path allocation (512 B; regions that never allocate pay a
// nil pointer).
type allocCache struct {
	shards [allocShards]allocShard
}

func (c *allocCache) shard(p unsafe.Pointer) *allocShard {
	h := uintptr(p) * 0x9E3779B97F4A7C15 >> 32
	return &c.shards[h%allocShards]
}

// sum reads the shards without clearing them (the Objects accessor).
func (c *allocCache) sum() int64 {
	var d int64
	for i := range c.shards {
		d += c.shards[i].pending.Load()
	}
	return d
}

// drain atomically claims every shard's delta.
func (c *allocCache) drain() int64 {
	var d int64
	for i := range c.shards {
		d += c.shards[i].pending.Swap(0)
	}
	return d
}

// allocCache returns the region's delta block, creating it on first
// use. The CAS race on creation is benign: the loser's empty block is
// discarded before any delta lands in it.
func (r *Region) allocCache() *allocCache {
	if c := r.acache.Load(); c != nil {
		return c
	}
	c := &allocCache{}
	if r.acache.CompareAndSwap(nil, c) {
		return c
	}
	return r.acache.Load()
}

// flushAllocPendingLocked drains the delta shards into objs and the
// arena's liveObjs. Caller holds r.mu; the state word is therefore
// stable and never stateDying. On a dead region the flush is skipped —
// reclaim owns (or already performed) the final drain, and crediting
// counters after reclaim's objs.Swap would leak into the arena total.
func (r *Region) flushAllocPendingLocked() {
	c := r.acache.Load()
	if c == nil || r.state.Load() == stateDead {
		return
	}
	// Perturbation point inside the flush window: deltas claimed from the
	// shards are in flight to the real counters while mu is held.
	fpAllocRefill.Perturb()
	if d := c.drain(); d != 0 {
		r.objs.Add(d)
		r.shard.liveObjs.Add(d)
		if m := r.counters(); m != nil {
			m.allocFlushes.Add(1)
		}
	}
}

// tryFlushAllocPending is the threshold flush: best-effort, because the
// fast path must never block behind a slow lifecycle operation. A
// skipped flush retries on the next threshold crossing, and Stats,
// delete and reclaim flush unconditionally.
func (r *Region) tryFlushAllocPending() {
	if !r.mu.TryLock() {
		return
	}
	r.flushAllocPendingLocked()
	r.mu.Unlock()
}

// drainAllocPendingReclaim is reclaim's drain (state already stateDead,
// made exactly once): credit whatever deltas remain so the final
// objs.Swap removes exactly this region's contribution from liveObjs.
// Deltas that race in after this drain are failed-admission half-pairs
// and net to zero unobserved (see the file comment).
func (r *Region) drainAllocPendingReclaim() {
	if c := r.acache.Load(); c != nil {
		if d := c.drain(); d != 0 {
			r.objs.Add(d)
			r.shard.liveObjs.Add(d)
		}
	}
}

// flushAllocPending drains every registered region's delta shards, so
// arena-wide totals are exact at quiesce. Regions are locked one at a
// time, like every other whole-arena walk.
func (a *Arena) flushAllocPending() {
	a.EachRegion(func(r *Region) {
		r.mu.Lock()
		r.flushAllocPendingLocked()
		r.mu.Unlock()
	})
}

// ---------------------------------------------------------------------------
// Pooled object chunks.

// maxChunkObjBytes: objects larger than this are allocated individually
// (chunking big objects would amplify the memory retained while any one
// chunk-mate is still referenced).
const maxChunkObjBytes = 1 << 10

// chunkTargetBytes sizes a chunk: smaller objects share larger chunks.
const chunkTargetBytes = 8 << 10

// objChunk is a batch of headers for one Obj instantiation. A parked
// chunk is shared by every allocator that loads it from the slot: next
// is an atomic cursor, so each index is claimed exactly once no matter
// how many goroutines hold the chunk — the zero-value guarantee reduces
// to fetch-add uniqueness. A cursor past len(buf) just means the chunk
// is exhausted; the claimer retires it and refills.
type objChunk[T any] struct {
	buf  []Obj[T]
	next atomic.Int64
	// box is this chunk's type-erased parking wrapper, built once at
	// creation so parking allocates nothing.
	box chunkBox
	// slab marks a chunk carved from the arena's backing store
	// (region_slab.go): buf points into an off-heap page owned by the
	// region's slab page list, the chunk never enters a sync.Pool, and
	// claimers publish through the claimed counter below.
	slab bool
	// claimed is the slab writer gate: a claimer increments it after its
	// Obj-header write lands, so reclaim can poison the cursor, compute
	// how many claims succeeded before the poison, and wait until that
	// many header writes have been published before freeing the page
	// (objChunk.quiesce, region_slab.go). Untouched on heap chunks.
	claimed atomic.Int64
}

// release returns a displaced or type-mismatched chunk to its pool.
// Slab chunks are region-owned, not pooled: their storage is freed by
// reclaim's page return, so displacement just drops the reference (the
// region's page list still holds the chunk).
func (ch *objChunk[T]) release() {
	if ch.slab {
		return
	}
	chunkPool[T]().Put(ch)
}

// claim hands out one header from the chunk, or nil when the chunk is
// exhausted (or, for slab chunks, quiesced by reclaim). Heap chunks
// are a load-free fetch-add; slab chunks publish each completed header
// write through the claimed counter, so reclaim can wait until every
// pre-poison claim has landed before freeing the region-owned page.
func (ch *objChunk[T]) claim(r *Region) *Obj[T] {
	if i := ch.next.Add(1) - 1; i < int64(len(ch.buf)) {
		o := &ch.buf[i]
		o.region = r
		if ch.slab {
			ch.claimed.Add(1)
		}
		return o
	}
	return nil
}

// chunkBox type-erases a parked chunk: park slots hold *chunkBox (one
// concrete type for every Obj instantiation), and the claimer
// type-asserts the payload, releasing chunks of other types back to
// their own pools.
type chunkBox struct{ c chunkRef }

type chunkRef interface{ release() }

// chunkParkSlotBits is log2 of the number of parking slots per region
// (Region.chunkPark). Slots are picked by object size, so a region
// allocating a handful of distinct types keeps a chunk of each parked
// simultaneously instead of thrashing one slot; the paper's common case
// (one goroutine, one type per region) uses exactly one slot and
// reclaims its own chunk with no pool traffic.
const chunkParkSlotBits = 2

const chunkParkSlots = 1 << chunkParkSlotBits

// chunkParkSlot picks the region parking slot for an object size by
// Fibonacci hashing: the slot is the *top* chunkParkSlotBits bits of
// size * 2^64/φ. It must not take the low bits of the high word, as the
// address hashes above do: those pick the same slot for every size 8 to
// 128 B, so two interleaved types would evict each other's chunk on
// every switch. Over the 8-byte multiples up to 512 B the slots fill
// 12/17/16/19. Called with unsafe.Sizeof, the slot is a compile-time
// constant per Obj instantiation.
func chunkParkSlot(size uintptr) int {
	return int(uint64(size) * 0x9E3779B97F4A7C15 >> (64 - chunkParkSlotBits))
}

// chunkPools maps an Obj instantiation (keyed by a nil *T, which boxes
// the type descriptor without allocating) to its chunk pool.
var chunkPools sync.Map

func chunkPool[T any]() *sync.Pool {
	key := any((*T)(nil))
	if p, ok := chunkPools.Load(key); ok {
		return p.(*sync.Pool)
	}
	p, _ := chunkPools.LoadOrStore(key, new(sync.Pool))
	return p.(*sync.Pool)
}

// newChunkedObj hands out one object header. Steady state is one
// atomic load (the parked chunk) plus one fetch-add (the cursor): the
// chunk stays parked while allocators share it, so the slot word is
// written only on refill, exhaustion or a type mismatch. A slot miss
// falls through to the sync.Pool, and only a pool miss allocates a
// fresh chunk. That refill edge is the rcgo/alloc.refill failpoint: an
// injected error surfaces before the object is counted, so a refused
// refill unwinds nothing.
//
// Memory trade-off, documented here because it is deliberate: a chunk
// is garbage only when every object in it is, so one long-lived object
// can retain up to chunkTargetBytes of chunk-mates — the same batching
// trade the paper's regions themselves make.
func newChunkedObj[T any](r *Region) (*Obj[T], error) {
	var probe Obj[T]
	if unsafe.Sizeof(probe) > maxChunkObjBytes {
		return &Obj[T]{region: r}, nil
	}
	slot := &r.chunkPark[chunkParkSlot(unsafe.Sizeof(probe))]
	for {
		b := slot.Load()
		if b == nil {
			break
		}
		c, ok := b.c.(*objChunk[T])
		if !ok {
			// Another instantiation is parked here: displace it to its
			// own pool (never dropped) and refill.
			if slot.CompareAndSwap(b, nil) {
				b.c.release()
			}
			break
		}
		if o := c.claim(r); o != nil {
			return o, nil
		}
		// Exhausted: retire it so the next allocator refills. The chunk
		// itself becomes garbage once its objects are.
		slot.CompareAndSwap(b, nil)
	}
	// Slot miss: refill. Pointer-free payload types carve their chunk
	// out of the arena's backing store when one is attached
	// (region_slab.go); everything else — and every store refusal —
	// takes the GC-heap pool path.
	if r.arena.backing != nil && chunkSlabEligible[T]() {
		return newSlabChunkedObj[T](r, slot)
	}
	return newHeapChunkedObj[T](r, slot)
}

// newHeapChunkedObj is the GC-heap refill: the sync.Pool second level,
// then a fresh make. Pooled chunks may arrive partially consumed
// (handoff races below put them back with slots remaining) or, rarely,
// exhausted by a racer that still held them — the cursor check covers
// both.
func newHeapChunkedObj[T any](r *Region, slot *atomic.Pointer[chunkBox]) (*Obj[T], error) {
	var probe Obj[T]
	ch, _ := chunkPool[T]().Get().(*objChunk[T])
	for {
		if ch != nil {
			if o := ch.claim(r); o != nil {
				if ch.next.Load() < int64(len(ch.buf)) {
					// Offer the remainder to the slot; if a racer parked
					// first, the chunk goes back to the pool instead.
					if !slot.CompareAndSwap(nil, &ch.box) {
						ch.release()
					}
				}
				return o, nil
			}
			ch = nil
		}
		if err := fpAllocRefill.Eval(); err != nil {
			return nil, fmt.Errorf("%w: allocation in region %d", err, r.id)
		}
		n := chunkTargetBytes / int(unsafe.Sizeof(probe))
		if n < 4 {
			n = 4
		}
		ch = &objChunk[T]{buf: make([]Obj[T], n)}
		ch.box.c = ch
	}
}
