package rcgo

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"unsafe"

	"rcgo/internal/slab"
)

// Off-GC-heap backing store for region payloads (DESIGN.md §16).
//
// The paper's reclaim-at-delete win only materialises when payloads
// live outside the collected heap: with ordinary make/new chunks,
// deleting a region frees nothing until the next GC cycle, and heavy
// traffic pays heap-scan pressure proportional to total allocation.
// With a backing store attached (WithOffHeapSlabs / WithBackingStore),
// the allocation fast path (region_alloccache.go) carves its per-type
// object chunks out of 8 KiB slab blocks instead, and reclaim returns
// every one of the region's blocks to the store the moment the region
// dies — the GC never scans a slab-backed payload, and the memory is
// reusable immediately.
//
// What keeps this sound — the pointer-safety contract, stated in full
// in DESIGN.md §16 and enforced here in two places:
//
//  1. Admission: only pointer-free payload types are slab-backed.
//     chunkSlabEligible walks T with reflect once per instantiation;
//     any type containing a Go pointer (Ref fields included — a Ref's
//     one word is an unsafe.Pointer) takes the ordinary GC-heap chunk path
//     unchanged. So the only pointer living in slab memory is the Obj
//     header's region back-pointer, which the arena's registry keeps
//     alive until reclaim — GC never needs to see it.
//  2. Reclaim: a page is returned to the store only after its chunk's
//     claim cursor is killed and every claim that preceded the kill
//     has published its Obj-header write (the writer gate below), so a
//     stale claimer can never write into a page the store has recycled
//     into another region.
//
// The writer gate: a slab chunk's claimer fetch-adds the cursor,
// writes the Obj header, then increments the chunk's claimed counter —
// one extra atomic per allocation over the heap-chunk path. Reclaim
// swaps a poisoned value into the cursor; the swap's return value is
// exactly the number of claim attempts that preceded the kill, of
// which min(attempts, len(buf)) succeeded and will each publish one
// claimed increment. Reclaim spins until claimed reaches that bound,
// then frees the page. Each claimed.Add is a release operation
// sequenced after its header write, and the read that observes the
// final count acquires the whole chain — so every pre-kill header
// write is visible (and done) before the page is reused; claims after
// the kill see an exhausted cursor and never touch the page.
//
// Dangling handles: a *Obj[T] into a slab-backed region is an off-heap
// pointer the GC cannot trace. While the region is alive the handle is
// as good as any heap pointer; once the region is deleted its pages
// are recycled, and using the handle reads (or, through Value writes,
// corrupts) whatever lives there now — unlike heap-backed objects,
// whose storage the GC keeps intact and whose Use() panics
// deterministically. Pin (or the rc protocol generally) is the
// sanctioned way to hold a handle across code that may delete regions;
// DESIGN.md §16 spells out the three sanctioned reference shapes.

// BackingStore is the pluggable page-level allocator behind slab-backed
// object chunks. Alloc returns a zeroed, 8-byte-aligned (in practice
// 8 KiB-aligned) block of at least size bytes, or an error — any error
// makes the runtime fall back to GC-heap chunks for that refill, so a
// store may refuse (budget spent, closed, map failure) without
// breaking allocation. Free returns a block for immediate reuse and is
// called exactly once per Alloc, always after the runtime has
// quiesced writers into the block. Implementations must be safe for
// concurrent use.
type BackingStore interface {
	Alloc(size int) (unsafe.Pointer, error)
	Free(p unsafe.Pointer, size int)
	Stats() SlabStats
	Close() error
}

// SlabStats is a snapshot of a backing store's page accounting,
// exact at quiesce like every other counter in the runtime. Pages are
// store blocks (8–64 KiB); CarvedPages partitions into InUsePages +
// FreePages.
type SlabStats struct {
	Segments    int64 `json:"segments"`
	MappedBytes int64 `json:"mapped_bytes"`
	CarvedPages int64 `json:"carved_pages"`
	InUsePages  int64 `json:"in_use_pages"`
	FreePages   int64 `json:"free_pages"`
	InUseBytes  int64 `json:"in_use_bytes"`
	FreeBytes   int64 `json:"free_bytes"`
}

// slabStore adapts internal/slab.Store to the BackingStore interface.
type slabStore struct{ s *slab.Store }

func (b slabStore) Alloc(size int) (unsafe.Pointer, error) { return b.s.Alloc(size) }
func (b slabStore) Free(p unsafe.Pointer, size int)        { b.s.Free(p, size) }
func (b slabStore) Close() error                           { return b.s.Close() }
func (b slabStore) Stats() SlabStats {
	st := b.s.Stats()
	return SlabStats{
		Segments:    st.Segments,
		MappedBytes: st.MappedBytes,
		CarvedPages: st.CarvedPages,
		InUsePages:  st.InUsePages,
		FreePages:   st.FreePages,
		InUseBytes:  st.InUseBytes,
		FreeBytes:   st.FreeBytes,
	}
}

// WithOffHeapSlabs attaches a fresh internal/slab store to the arena:
// pointer-free payload types are chunked out of mmap-backed 8 KiB
// blocks (a GC-heap segment backend on platforms without mmap), and
// reclaim returns a region's blocks immediately at delete. Close the
// store with Arena.CloseBackingStore once the arena quiesces.
func WithOffHeapSlabs() Option {
	return func(c *arenaConfig) { c.backing = NewSlabStore() }
}

// NewSlabStore returns a fresh off-heap slab store — the same store
// WithOffHeapSlabs attaches — for callers that want to share one
// long-lived store across several arenas via WithBackingStore (its
// page free lists stay warm across arena lifetimes). The caller owns
// Close; Arena.CloseBackingStore forwards to it.
func NewSlabStore() BackingStore {
	return slabStore{s: slab.New(slab.Config{})}
}

// WithBackingStore attaches a caller-supplied page store instead of
// the built-in slab store — the pluggable seam for capped stores,
// instrumented stores, or test doubles. nil detaches (the default:
// ordinary GC-heap chunks).
func WithBackingStore(bs BackingStore) Option {
	return func(c *arenaConfig) { c.backing = bs }
}

// SlabStats returns the backing store's page accounting and whether a
// store is attached at all.
func (a *Arena) SlabStats() (SlabStats, bool) {
	if a.backing == nil {
		return SlabStats{}, false
	}
	return a.backing.Stats(), true
}

// CloseBackingStore closes the attached backing store, unmapping its
// segments. Idempotent, nil without a store. Callers own the
// quiescence argument: every region whose payloads the store backed
// must already be reclaimed (or never touched again) — outstanding
// slab blocks become invalid at once, exactly like freeing a region's
// pages in the paper's runtime.
func (a *Arena) CloseBackingStore() error {
	if a.backing == nil {
		return nil
	}
	return a.backing.Close()
}

// ---------------------------------------------------------------------------
// The pointer-free admission gate.

// chunkSlabEligible reports whether T may be slab-backed: T must
// contain no Go pointers, so that nothing the GC must trace ever lives
// in an unscanned slab page. The verdict is computed once per
// instantiation, by the walk that builds T's chunkType
// (region_alloccache.go).
func chunkSlabEligible[T any]() bool { return chunkTypeOf[T]().slab }

// ---------------------------------------------------------------------------
// Region-owned page tracking.

// slabChunkQuiescer is the type-erased face of a slab-backed
// objChunk[T]: quiesce kills the claim cursor, waits out in-flight
// claimers and returns how many claims the chunk handed out, after
// which the chunk's page has no writers and may be freed.
type slabChunkQuiescer interface{ quiesce() int64 }

// slabPage is one store block owned by a region, with the chunk carved
// into it. The entry holds the chunk strongly so quiesce can reach its
// cursor even after the chunk left the parking slot.
type slabPage struct {
	chunk slabChunkQuiescer
	p     unsafe.Pointer
	size  int
}

// chunkLedger tracks, from carve or retire to reclaim, the chunks a
// region on an arena with a backing store must account for at reclaim:
// its slab pages and the heap chunks it exhausted (retired, linked
// through their boxes). closed flips exactly once, under mu, at
// reclaim: a carve that loses the race (add returns false) frees its
// page immediately and the allocation falls back to the GC heap, and a
// retire that loses it leaves its chunk to the collector — the mutex's
// release/acquire edge guarantees the closing reclaim cannot miss a
// tracked page or a listed chunk.
type chunkLedger struct {
	mu     sync.Mutex
	closed bool
	// noRecycle turns the dead region's count gate off (reclaimChunks,
	// region_alloccache.go): set, never cleared, when a claim counted in
	// objs may sit on a chunk the region does not list. It sits in the
	// padding after closed, so the ledger stays 48 B.
	noRecycle atomic.Bool
	pages     []slabPage
	retired   *chunkBox
}

// add tracks a freshly carved page; false means the region is already
// reclaiming and the caller keeps ownership of the page.
func (l *chunkLedger) add(pg slabPage) bool {
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return false
	}
	l.pages = append(l.pages, pg)
	l.mu.Unlock()
	return true
}

// retire takes an exhausted heap chunk out of its park slot and lists
// it in one step under mu. Reclaim empties the park slots under the
// same lock, so when it looks every chunk the region exhausted is
// either still parked or listed, never in between.
func (l *chunkLedger) retire(slot *atomic.Pointer[chunkBox], b *chunkBox) {
	l.mu.Lock()
	if slot.CompareAndSwap(b, nil) && !l.closed {
		b.link = l.retired
		l.retired = b
	}
	l.mu.Unlock()
}

// list lists an exhausted heap chunk that sits in no park slot: a
// token's sealed chunk, handed back exhausted (Owner.handBack).
func (l *chunkLedger) list(b *chunkBox) {
	l.mu.Lock()
	if !l.closed {
		b.link = l.retired
		l.retired = b
	}
	l.mu.Unlock()
}

// count returns the number of currently tracked pages (0 once closed);
// the auditor's slab-pages-total rule sums it across live regions.
func (l *chunkLedger) count() int64 {
	l.mu.Lock()
	n := len(l.pages)
	l.mu.Unlock()
	return int64(n)
}

// slabPageCount is the auditor's accessor for the region's tracked
// pages.
func (r *Region) slabPageCount() int64 { return r.chunks.count() }

// ---------------------------------------------------------------------------
// The slab refill edge.

// slabCursorKill is the poisoned cursor value quiesce stores: any
// claimer's fetch-add lands far past every possible chunk length, so
// the claim check fails without wrapping.
const slabCursorKill = int64(1) << 62

// quiesce implements slabChunkQuiescer on slab-backed chunks: poison
// the cursor, capturing how many claim attempts preceded the poison,
// then wait until every successful one of them has published its
// header write through the claimed counter, and return that many. New
// claimers after the poison see an exhausted chunk and leave
// immediately, so the spin is bounded by the handful of claims already
// in flight.
func (ch *objChunk[T]) quiesce() int64 {
	want := min(ch.next.Swap(slabCursorKill), int64(len(ch.buf)))
	for ch.claimed.Load() < want {
		runtime.Gosched()
	}
	return want
}

// newSlabChunkedObj is the slab flavour of the chunk refill: carve one
// store block, wrap it in a region-owned chunk, claim the first header
// and park the remainder. Any store refusal (budget, closed, map
// failure) falls back to the ordinary GC-heap refill, so a backing
// store can never make allocation fail on its own — only the injected
// rcgo/slab.map failpoint error surfaces, as a transient allocator
// failure before anything is counted.
func newSlabChunkedObj[T any](r *Region, slot *atomic.Pointer[chunkBox], ct *chunkType) (*Obj[T], error) {
	var probe Obj[T]
	// Failpoint on the map/refill window: an injected error is a
	// refused slab map surfaced before the object is counted (nothing
	// unwinds); perturbations widen the carve-vs-reclaim window the
	// ledger's closed flag decides.
	if err := fpSlabMap.Eval(); err != nil {
		return nil, fmt.Errorf("%w: slab refill for region %d", err, r.id)
	}
	p, err := r.arena.backing.Alloc(chunkTargetBytes)
	if err != nil {
		return newHeapChunkedObj[T](r, slot, ct)
	}
	n := chunkTargetBytes / int(unsafe.Sizeof(probe))
	ch := &objChunk[T]{buf: unsafe.Slice((*Obj[T])(p), n), typ: ct, slab: true}
	ch.box.c = ch
	if !r.chunks.add(slabPage{chunk: ch, p: p, size: chunkTargetBytes}) {
		// The region is already reclaiming: return the untracked page
		// and let the heap path hand out a header the admission check
		// will reject against the settled state.
		r.arena.backing.Free(p, chunkTargetBytes)
		return newHeapChunkedObj[T](r, slot, ct)
	}
	r.note(TraceSlabMapped, 1)
	if o := ch.claim(r); o != nil {
		// Offer the remainder to the parking slot; if a racer parked
		// first the chunk simply stays reachable through the ledger
		// until reclaim (slab chunks never enter the sync.Pools).
		slot.CompareAndSwap(nil, &ch.box)
		return o, nil
	}
	// Quiesced before the first claim: reclaim won the race.
	return newHeapChunkedObj[T](r, slot, ct)
}
