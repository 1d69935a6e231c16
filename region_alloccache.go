package rcgo

import (
	"fmt"
	"reflect"
	"sync"
	"sync/atomic"
	"unsafe"
)

// Allocation fast path for the concurrent arena (DESIGN.md §11).
//
// The paper's whole cost argument is that region allocation is a pointer
// bump: `ralloc` touches only region-local state, and safety is paid for
// at pointer *assignments*, not allocations. TryAlloc keeps to that: it
// takes no lock and writes no arena-shared cache line. Admission is one
// fetch-add on the region's own object counter (region_api.go), and the
// object header comes out of a pooled chunk:
//
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
//   - The owner's sealed chunk. An Owner token takes a heap chunk out of
//     its region's park and seals it with one swap of the cursor, then
//     claims from it with plain stores; it hands the chunk back to the
//     park at Release, hand-off and Owner.Delete (region_owner.go,
//     DESIGN.md §11). Slab chunks are never sealed.
//   - The dead-region scrub. A pooled chunk's claimed headers are dead
//     objects, and the next region to park the chunk keeps them
//     reachable. Before reclaim pools a parked chunk it cuts every link
//     from the dead region's objects in it to other chunks, so a pooled
//     chunk retains no earlier, exhausted chunk (DESIGN.md §11).
//   - Exhausted-chunk recycling, on arenas with a backing store only
//     (the arenas that already accept DESIGN.md §16's stale-handle
//     contract). A region lists the heap chunks it exhausts, and
//     reclaim zeroes them and returns them to their pools once a count
//     gate proves that no header write into them is still in flight:
//     the region's gross object counter, read first, must equal the
//     claims handed out on its listed, parked and slab chunks
//     (DESIGN.md §11). The gate adds nothing to the allocation path;
//     default arenas leave exhausted chunks to the collector.
//
// The GC-heap chunk-refill edge, taken on every park miss, carries the
// rcgo/alloc.refill failpoint: an injected error is a transient
// allocator failure, surfaced before the object is counted, so nothing
// unwinds.

// ---------------------------------------------------------------------------
// Pooled object chunks.

// maxChunkObjBytes: objects larger than this are allocated individually
// (chunking big objects would amplify the memory retained while any one
// chunk-mate is still referenced).
const maxChunkObjBytes = 1 << 10

// chunkTargetBytes sizes a chunk: smaller objects share larger chunks.
const chunkTargetBytes = 8 << 10

// chunkType is the per-type descriptor of one Obj instantiation's
// chunks, built once with reflect: the chunk pool, whether the payload
// may be slab-backed (chunkSlabEligible), and where its Ref words lie
// (for the dead-region scrub).
type chunkType struct {
	pool sync.Pool
	slab bool
	// refs are the byte offsets of the Ref words in a value.
	refs []uintptr
}

// refWord is implemented by every *Ref[U]: the walk that builds a
// chunkType recognises a Ref field by it. refType names the Ref type
// itself, so a struct that embeds a Ref (and so has the method
// promoted) is walked field by field instead.
type refWord interface{ refType() reflect.Type }

func (*Ref[T]) refType() reflect.Type { return reflect.TypeOf((*Ref[T])(nil)).Elem() }

var refWordType = reflect.TypeOf((*refWord)(nil)).Elem()

// chunkTypes maps an Obj instantiation (keyed by a nil *T, which boxes
// the type descriptor without allocating) to its chunkType.
var chunkTypes sync.Map

func chunkTypeOf[T any]() *chunkType {
	key := any((*T)(nil))
	if ct, ok := chunkTypes.Load(key); ok {
		return ct.(*chunkType)
	}
	ct := new(chunkType)
	ct.slab = ct.walk(reflect.TypeOf((*T)(nil)).Elem(), 0)
	got, _ := chunkTypes.LoadOrStore(key, ct)
	return got.(*chunkType)
}

// walk records the Ref words of t, laid out off bytes into the value,
// and reports whether t is pointer-free: Ref, string, slice, map, chan,
// func, interface and pointer fields all contain pointers the GC must
// scan; arrays and structs are walked recursively.
func (ct *chunkType) walk(t reflect.Type, off uintptr) (pointerFree bool) {
	if reflect.PointerTo(t).Implements(refWordType) &&
		reflect.New(t).Interface().(refWord).refType() == t {
		ct.refs = append(ct.refs, off)
		return false
	}
	switch t.Kind() {
	case reflect.Bool,
		reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64,
		reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64,
		reflect.Uintptr, reflect.Float32, reflect.Float64,
		reflect.Complex64, reflect.Complex128:
		return true
	case reflect.Array:
		if t.Len() == 0 {
			return true
		}
		n := len(ct.refs)
		free := ct.walk(t.Elem(), off)
		if len(ct.refs) > n {
			for i := 1; i < t.Len(); i++ {
				ct.walk(t.Elem(), off+uintptr(i)*t.Elem().Size())
			}
		}
		return free
	case reflect.Struct:
		free := true
		for i := 0; i < t.NumField(); i++ {
			f := t.Field(i)
			free = ct.walk(f.Type, off+f.Offset) && free
		}
		return free
	}
	return false
}

// objChunk is a batch of headers for one Obj instantiation. A parked
// chunk is shared by every allocator that loads it from the slot: next
// is an atomic cursor, so each index is claimed exactly once no matter
// how many goroutines hold the chunk — the zero-value guarantee reduces
// to fetch-add uniqueness. A cursor past len(buf) just means the chunk
// is exhausted; the claimer retires it and refills.
type objChunk[T any] struct {
	buf  []Obj[T]
	next atomic.Int64
	// typ is the chunk's per-type descriptor, so release needs no map
	// lookup.
	typ *chunkType
	// base is the cursor when the chunk last entered its pool (0 for a
	// fresh or recycled chunk): the headers in [base, next) are the
	// parking region's, plus any claim a stale allocator of an earlier
	// region made after that point. Written before the pool Put, read
	// after a pool Get.
	base int64
	// shared marks a chunk displaced from a live region's park. An
	// allocator of that region that loaded the chunk before the
	// displacement may claim from it at any later time, so a later
	// region's [base, next) may hold a live object, and the chunk is
	// never scrubbed or recycled. Set before the pool Put, read after a
	// pool Get.
	shared bool
	// clean records that every claim below base has landed its header
	// write, so the chunk may be zeroed and reset once its current
	// region's claims are proven landed too (Region.reclaimChunks). Set
	// at make and by a recycle; it survives a pooled park only when
	// that region's count gate passed.
	clean bool
	// box is this chunk's type-erased parking wrapper, built once at
	// creation so parking allocates nothing.
	box chunkBox
	// slab marks a chunk carved from the arena's backing store
	// (region_slab.go): buf points into an off-heap page owned by the
	// region's ledger (chunkLedger), the chunk never enters a sync.Pool, and
	// claimers publish through the claimed counter below.
	slab bool
	// claimed is the slab writer gate: a claimer increments it after its
	// Obj-header write lands, so reclaim can poison the cursor, compute
	// how many claims succeeded before the poison, and wait until that
	// many header writes have been published before freeing the page
	// (objChunk.quiesce, region_slab.go). Untouched on heap chunks.
	claimed atomic.Int64
}

// release returns a chunk displaced from a live region's park to its
// pool, marked shared. Slab chunks are region-owned, not pooled: their
// storage is freed by reclaim's page return, so displacement just drops
// the reference (the region's ledger still holds the chunk).
func (ch *objChunk[T]) release() {
	if ch.slab {
		return
	}
	ch.shared = true
	ch.base = ch.next.Load()
	ch.typ.pool.Put(ch)
}

// unpark is reclaim's first half for a chunk taken out of the dead
// region's park: it reads the cursor once, scrubs the dead region's
// headers below it unless the chunk is shared, rebases the chunk at
// that cursor and returns how many claims [base, cursor) handed out,
// for the count gate. 0 for a slab chunk, whose claims quiesce counts.
func (ch *objChunk[T]) unpark() int64 {
	if ch.slab {
		return 0
	}
	end := ch.next.Load()
	n := min(end, int64(len(ch.buf))) - ch.base
	if !ch.shared {
		ch.scrub(end)
	}
	ch.base = end
	return n
}

// repool is unpark's second half: the chunk goes back to its pool,
// still clean only if the dead region's gate proved its claims landed.
func (ch *objChunk[T]) repool(settled bool) {
	if ch.slab {
		return
	}
	ch.clean = ch.clean && settled
	ch.typ.pool.Put(ch)
}

// unseal ends a token's seal (Owner.handBack): the chunk's cursor
// becomes the token's, and it reports whether the token exhausted the
// chunk.
func (ch *objChunk[T]) unseal(next int64) bool {
	ch.next.Store(next)
	return next >= int64(len(ch.buf))
}

// claims counts the headers handed out on an exhausted chunk since
// its base, for the count gate.
func (ch *objChunk[T]) claims() int64 { return int64(len(ch.buf)) - ch.base }

// recycle zeroes an exhausted chunk whose every claim has landed and
// returns it to its pool as good as new, reporting whether it did. A
// shared or unclean chunk is left to the collector.
func (ch *objChunk[T]) recycle() bool {
	if ch.shared || !ch.clean {
		return false
	}
	clear(ch.buf)
	ch.base = 0
	ch.next.Store(0)
	ch.typ.pool.Put(ch)
	return true
}

// scrub cuts a dead region's links out of its chunk before the chunk is
// pooled: for each of the region's headers [base, min(end, len)) it
// stores nil into every Ref word whose target lies outside this chunk.
// A link inside the chunk retains nothing the pooled chunk does not
// already hold. The loads and stores are atomic because a racing
// SetSame that passed its state check, or a blocked-deleters scan, may
// touch the same word. Counted slots are already nil: reclaim runs the
// unscan first.
func (ch *objChunk[T]) scrub(end int64) {
	refs := ch.typ.refs
	end = min(end, int64(len(ch.buf)))
	if len(refs) == 0 || end <= ch.base {
		return
	}
	lo := uintptr(unsafe.Pointer(unsafe.SliceData(ch.buf)))
	span := uintptr(len(ch.buf)) * unsafe.Sizeof(ch.buf[0])
	for i := ch.base; i < end; i++ {
		v := unsafe.Pointer(&ch.buf[i].Value)
		for _, off := range refs {
			w := (*unsafe.Pointer)(unsafe.Add(v, off))
			if t := atomic.LoadPointer(w); t != nil && uintptr(t)-lo >= span {
				atomic.StorePointer(w, nil)
			}
		}
	}
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
// their own pools. link chains the heap chunks a region exhausted on
// its retired list (chunkLedger), under the ledger's lock.
type chunkBox struct {
	c    chunkRef
	link *chunkBox
}

// chunkRef is the type-erased face of an objChunk[T]: displacement
// (release), the end of a token's seal (unseal), reclaim of a parked
// chunk (unpark, repool) and of a retired one (claims, recycle).
type chunkRef interface {
	release()
	unseal(next int64) bool
	unpark() int64
	repool(settled bool)
	claims() int64
	recycle() bool
}

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
// address hashes of the fabric and the metrics shards do: those pick the same slot for every size 8 to
// 128 B, so two interleaved types would evict each other's chunk on
// every switch. Over the 8-byte multiples up to 512 B the slots fill
// 12/17/16/19. Called with unsafe.Sizeof, the slot is a compile-time
// constant per Obj instantiation.
func chunkParkSlot(size uintptr) int {
	return int(uint64(size) * 0x9E3779B97F4A7C15 >> (64 - chunkParkSlotBits))
}

// newChunkedObj hands out one object header. Steady state is one
// atomic load (the parked chunk) plus one fetch-add (the cursor): the
// chunk stays parked while allocators share it, so the slot word is
// written only on refill, exhaustion or a type mismatch. A slot miss
// falls through to the sync.Pool, and only a pool miss allocates a
// fresh chunk. The slot miss is the rcgo/alloc.refill failpoint: an
// injected error surfaces before the object is counted, so a refused
// refill unwinds nothing.
//
// Memory trade-off, documented here because it is deliberate: on a
// default arena a chunk is garbage only when every object in it is, so
// one long-lived object can retain up to chunkTargetBytes of
// chunk-mates — the same batching trade the paper's regions themselves
// make. On an arena with a backing store the region's ledger holds the
// chunks it exhausted until its reclaim, which recycles them: the
// region's memory comes back at its delete, as the paper's does.
func newChunkedObj[T any](r *Region) (*Obj[T], error) {
	var probe Obj[T]
	if unsafe.Sizeof(probe) > maxChunkObjBytes {
		// Counted in objs but on no chunk the region lists.
		r.forgoRecycle()
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
			// own pool (never dropped) and refill. The region's claims on
			// it leave its ledger, so its gate is off first.
			r.forgoRecycle()
			if slot.CompareAndSwap(b, nil) {
				b.c.release()
			}
			break
		}
		if o := c.claim(r); o != nil {
			return o, nil
		}
		// Exhausted: retire it so the next allocator refills. On an
		// arena with a backing store the region lists it for reclaim to
		// recycle; otherwise it becomes garbage once its objects are.
		if c.slab || r.arena.backing == nil {
			slot.CompareAndSwap(b, nil)
		} else {
			r.chunks.retire(slot, b)
		}
	}
	// Slot miss: refill. Pointer-free payload types carve their chunk
	// out of the arena's backing store when one is attached
	// (region_slab.go); everything else — and every store refusal —
	// takes the GC-heap pool path.
	ct := chunkTypeOf[T]()
	if r.arena.backing != nil && ct.slab {
		return newSlabChunkedObj[T](r, slot, ct)
	}
	return newHeapChunkedObj[T](r, slot, ct)
}

// newHeapChunkedObj is the GC-heap refill: the sync.Pool second level,
// then a fresh make. Pooled chunks may arrive partially consumed
// (handoff races below put them back with slots remaining) or, rarely,
// exhausted by a racer that still held them — the cursor check covers
// both. The rcgo/alloc.refill failpoint sits at its head, so it fires
// on every park miss whether the pool or a make serves it.
func newHeapChunkedObj[T any](r *Region, slot *atomic.Pointer[chunkBox], ct *chunkType) (*Obj[T], error) {
	if err := fpAllocRefill.Eval(); err != nil {
		return nil, fmt.Errorf("%w: allocation in region %d", err, r.id)
	}
	var probe Obj[T]
	ch, _ := ct.pool.Get().(*objChunk[T])
	for {
		if ch != nil {
			if o := ch.claim(r); o != nil {
				// Offer the remainder to the slot. A claim on a chunk
				// the region does not park is on no chunk its ledger
				// sees, so its gate is off: the claim exhausted the
				// chunk, or a racer parked first and the chunk goes
				// back to the pool, rebased past this claim. A stale
				// claimer may sit below the new base, so the chunk is
				// no longer clean.
				switch {
				case ch.next.Load() >= int64(len(ch.buf)):
					r.forgoRecycle()
				case !slot.CompareAndSwap(nil, &ch.box):
					r.forgoRecycle()
					ch.base, ch.clean = ch.next.Load(), false
					ct.pool.Put(ch)
				}
				return o, nil
			}
			ch = nil
		}
		n := chunkTargetBytes / int(unsafe.Sizeof(probe))
		if n < 4 {
			n = 4
		}
		ch = &objChunk[T]{buf: make([]Obj[T], n), typ: ct, clean: true}
		ch.box.c = ch
	}
}

// forgoRecycle turns r's count gate off for good: a claim counted in
// r.objs may sit on a chunk r does not list, so equal counts would no
// longer prove that every listed claim has landed. It is stored before
// the claim's objs fetch-add (or, for a displacement, before the chunk
// leaves the park), so a reclaim whose first read of objs counts that
// claim sees the flag.
func (r *Region) forgoRecycle() {
	if !r.chunks.noRecycle.Load() {
		r.chunks.noRecycle.Store(true)
	}
}

// reclaimChunks returns a dead region's chunks. Parked heap chunks go
// back to their pools, scrubbed and rebased at their cursors. A default
// arena does nothing more: its regions list nothing, and an exhausted
// chunk is garbage once its objects are.
//
// On an arena with a backing store, reclaim also recycles the heap
// chunks the region exhausted, behind the count gate: objs, read first,
// counts every claim that reached admission, and each of those wrote
// its header before its fetch-add. The claims the region's listed,
// parked and slab chunks handed out are summed after it. Each counted
// claim is one of those (noRecycle is set otherwise), so the sum can
// equal objs only if every claim on those chunks reached its fetch-add,
// that is, only if no header write into them is still in flight. Then
// the exhausted chunks are zeroed and pooled, and the parked ones stay
// clean; otherwise the exhausted ones are left to the collector, as on
// a default arena. A region that ever registered a counted slot
// (registered) recycles nothing either: a scan may still read its slot
// words through a registry snapshot taken before the unscan. The slab
// pages go back to the store either way, once their writer gate has
// drained (region_slab.go).
func (r *Region) reclaimChunks(registered bool) {
	if r.arena.backing == nil {
		for i := range r.chunkPark {
			if b := r.chunkPark[i].Swap(nil); b != nil {
				b.c.unpark()
				b.c.repool(false)
			}
		}
		return
	}
	objs := r.objs.Load()
	var parked [chunkParkSlots]*chunkBox
	l := &r.chunks
	l.mu.Lock()
	l.closed = true
	pages, retired := l.pages, l.retired
	l.pages, l.retired = nil, nil
	for i := range r.chunkPark {
		parked[i] = r.chunkPark[i].Swap(nil)
	}
	l.mu.Unlock()
	var claims int64
	for _, b := range parked {
		if b != nil {
			claims += b.c.unpark()
		}
	}
	for b := retired; b != nil; b = b.link {
		claims += b.c.claims()
	}
	for _, pg := range pages {
		claims += pg.chunk.quiesce()
	}
	settled := claims == objs && !registered && !r.chunks.noRecycle.Load()
	for _, b := range parked {
		if b != nil {
			b.c.repool(settled)
		}
	}
	var recycled int64
	for b := retired; b != nil; {
		next := b.link
		b.link = nil
		if settled && b.c.recycle() {
			recycled++
		}
		b = next
	}
	if recycled > 0 {
		r.note(TraceChunkRecycled, recycled)
	}
	// The paper's reclaim-at-delete, for real: each page is handed back
	// for immediate reuse, and no GC cycle is involved.
	if len(pages) > 0 {
		for _, pg := range pages {
			r.arena.backing.Free(pg.p, pg.size)
		}
		r.note(TraceSlabReleased, int64(len(pages)))
	}
}
