package rcgo

import (
	"fmt"
	"reflect"
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
//     any type containing a Go pointer (Ref fields included — a Ref
//     holds an atomic.Pointer) takes the ordinary GC-heap chunk path
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

// slabEligibleCache memoizes chunkSlabEligible per Obj instantiation,
// keyed by a nil *T exactly like chunkPools.
var slabEligibleCache sync.Map

// chunkSlabEligible reports whether T may be slab-backed: T must
// contain no Go pointers, so that nothing the GC must trace ever lives
// in an unscanned slab page. Ref, string, slice, map, chan, func and
// interface fields all disqualify; arrays and structs are walked
// recursively. The verdict is computed once per instantiation.
func chunkSlabEligible[T any]() bool {
	key := any((*T)(nil))
	if v, ok := slabEligibleCache.Load(key); ok {
		return v.(bool)
	}
	ok := typeIsPointerFree(reflect.TypeOf((*T)(nil)).Elem())
	slabEligibleCache.Store(key, ok)
	return ok
}

func typeIsPointerFree(t reflect.Type) bool {
	switch t.Kind() {
	case reflect.Bool,
		reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64,
		reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64,
		reflect.Uintptr, reflect.Float32, reflect.Float64,
		reflect.Complex64, reflect.Complex128:
		return true
	case reflect.Array:
		return typeIsPointerFree(t.Elem())
	case reflect.Struct:
		for i := 0; i < t.NumField(); i++ {
			if !typeIsPointerFree(t.Field(i).Type) {
				return false
			}
		}
		return true
	default:
		// Ptr, UnsafePointer, Chan, Map, Func, Interface, Slice, String
		// all contain pointers the GC would need to scan.
		return false
	}
}

// ---------------------------------------------------------------------------
// Region-owned page tracking.

// slabChunkQuiescer is the type-erased face of a slab-backed
// objChunk[T]: quiesce kills the claim cursor and waits out in-flight
// claimers, after which the chunk's page has no writers and may be
// freed.
type slabChunkQuiescer interface{ quiesce() }

// slabPage is one store block owned by a region, with the chunk carved
// into it. The entry holds the chunk strongly so quiesce can reach its
// cursor even after the chunk left the parking slot.
type slabPage struct {
	chunk slabChunkQuiescer
	p     unsafe.Pointer
	size  int
}

// slabPageList tracks a region's slab pages from carve to reclaim.
// closed flips exactly once, under mu, at reclaim: a carve that loses
// the race (add returns false) frees its page immediately and the
// allocation falls back to the GC heap — the mutex's release/acquire
// edge guarantees the closing reclaim cannot miss a tracked page.
type slabPageList struct {
	mu     sync.Mutex
	closed bool
	pages  []slabPage
}

// add tracks a freshly carved page; false means the region is already
// reclaiming and the caller keeps ownership of the page.
func (l *slabPageList) add(pg slabPage) bool {
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return false
	}
	l.pages = append(l.pages, pg)
	l.mu.Unlock()
	return true
}

// close marks the list closed and surrenders the tracked pages to the
// caller, exactly once; later calls return nil.
func (l *slabPageList) close() []slabPage {
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return nil
	}
	l.closed = true
	pages := l.pages
	l.pages = nil
	l.mu.Unlock()
	return pages
}

// count returns the number of currently tracked pages (0 once closed);
// the auditor's slab-pages-total rule sums it across live regions.
func (l *slabPageList) count() int64 {
	l.mu.Lock()
	n := len(l.pages)
	l.mu.Unlock()
	return int64(n)
}

// slabPageCount is the auditor's accessor for the region's tracked
// pages.
func (r *Region) slabPageCount() int64 { return r.slabPages.count() }

// releaseSlabPages is reclaim's page return: close the list (exactly
// once), quiesce every chunk's writers, then hand each page back to
// the store for immediate reuse. Runs after the stateDead transition,
// so no new slab carve can be tracked (add observes closed) and every
// claimer either finished before the cursor kill or sees the poisoned
// cursor — the writer gate makes "finished" mean "its header write
// landed before the page is freed".
func (r *Region) releaseSlabPages() {
	pages := r.slabPages.close()
	if len(pages) == 0 {
		return
	}
	bs := r.arena.backing
	for _, pg := range pages {
		pg.chunk.quiesce()
		bs.Free(pg.p, pg.size)
	}
	r.note(TraceSlabReleased, int64(len(pages)))
}

// ---------------------------------------------------------------------------
// The slab refill edge.

// slabCursorKill is the poisoned cursor value quiesce stores: any
// claimer's fetch-add lands far past every possible chunk length, so
// the claim check fails without wrapping.
const slabCursorKill = int64(1) << 62

// quiesce implements slabChunkQuiescer on slab-backed chunks: poison
// the cursor, capturing how many claim attempts preceded the poison,
// then wait until every successful one of them has published its
// header write through the claimed counter. New claimers after the
// poison see an exhausted chunk and leave immediately, so the spin is
// bounded by the handful of claims already in flight.
func (ch *objChunk[T]) quiesce() {
	attempts := ch.next.Swap(slabCursorKill)
	want := attempts
	if n := int64(len(ch.buf)); want > n {
		want = n
	}
	for ch.claimed.Load() < want {
		runtime.Gosched()
	}
}

// newSlabChunkedObj is the slab flavour of the chunk refill: carve one
// store block, wrap it in a region-owned chunk, claim the first header
// and park the remainder. Any store refusal (budget, closed, map
// failure) falls back to the ordinary GC-heap refill, so a backing
// store can never make allocation fail on its own — only the injected
// rcgo/slab.map failpoint error surfaces, as a transient allocator
// failure before anything is counted.
func newSlabChunkedObj[T any](r *Region, slot *atomic.Pointer[chunkBox]) (*Obj[T], error) {
	var probe Obj[T]
	// Failpoint on the map/refill window: an injected error is a
	// refused slab map surfaced before the object is counted (nothing
	// unwinds); perturbations widen the carve-vs-reclaim window the
	// page list's closed flag decides.
	if err := fpSlabMap.Eval(); err != nil {
		return nil, fmt.Errorf("%w: slab refill for region %d", err, r.id)
	}
	p, err := r.arena.backing.Alloc(chunkTargetBytes)
	if err != nil {
		return newHeapChunkedObj[T](r, slot)
	}
	n := chunkTargetBytes / int(unsafe.Sizeof(probe))
	ch := &objChunk[T]{buf: unsafe.Slice((*Obj[T])(p), n), slab: true}
	ch.box.c = ch
	if !r.slabPages.add(slabPage{chunk: ch, p: p, size: chunkTargetBytes}) {
		// The region is already reclaiming: return the untracked page
		// and let the heap path hand out a header the admission check
		// will reject against the settled state.
		r.arena.backing.Free(p, chunkTargetBytes)
		return newHeapChunkedObj[T](r, slot)
	}
	r.note(TraceSlabMapped, 1)
	if o := ch.claim(r); o != nil {
		// Offer the remainder to the parking slot; if a racer parked
		// first the chunk simply stays reachable through the page list
		// until reclaim (slab chunks never enter the sync.Pools).
		slot.CompareAndSwap(nil, &ch.box)
		return o, nil
	}
	// Quiesced before the first claim: reclaim won the race.
	return newHeapChunkedObj[T](r, slot)
}
