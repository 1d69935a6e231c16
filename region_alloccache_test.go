package rcgo

import (
	"errors"
	"math/rand"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"
	"unsafe"

	"rcgo/internal/failpoint"
)

type cachePayload struct{ a, b, c int64 }

// Delete must account for every admitted object: once the region is
// reclaimed the arena total returns to zero exactly.
func TestAllocCacheFlushOnDelete(t *testing.T) {
	a := NewArena()
	r := a.NewRegion()
	const n = 20
	for i := 0; i < n; i++ {
		if _, err := TryAlloc[cachePayload](r); err != nil {
			t.Fatal(err)
		}
	}
	if got := a.LiveObjects(); got != n {
		t.Fatalf("LiveObjects = %d before delete, want %d", got, n)
	}
	if err := r.Delete(); err != nil {
		t.Fatal(err)
	}
	if got := a.LiveObjects(); got != 0 {
		t.Fatalf("LiveObjects = %d after delete, want 0", got)
	}
	if rep := a.Audit(); !rep.OK {
		t.Fatalf("audit after delete:\n%s", rep)
	}
}

// A zombie's objects stay live until reclaim, so it keeps its count,
// and the eventual drain returns the arena to zero.
func TestAllocCacheFlushOnDeleteDeferred(t *testing.T) {
	a := NewArena()
	r := a.NewRegion()
	o, err := TryAlloc[cachePayload](r)
	if err != nil {
		t.Fatal(err)
	}
	const n = 34
	for i := 1; i < n; i++ {
		if _, err := TryAlloc[cachePayload](r); err != nil {
			t.Fatal(err)
		}
	}
	unpin, err := TryPin(o)
	if err != nil {
		t.Fatal(err)
	}
	r.DeleteDeferred()
	if !r.Deferred() {
		t.Fatal("pinned region did not become a zombie")
	}
	if got := r.Objects(); got != n {
		t.Fatalf("zombie Objects() = %d, want %d", got, n)
	}
	if got := a.LiveObjects(); got != n {
		t.Fatalf("LiveObjects = %d with the zombie pinned, want %d", got, n)
	}
	if got := r.Stats().Objects; got != n {
		t.Fatalf("zombie Stats().Objects = %d, want %d", got, n)
	}
	unpin()
	if !r.Stats().Reclaimed {
		t.Fatal("zombie did not reclaim after the last unpin")
	}
	if got := a.LiveObjects(); got != 0 {
		t.Fatalf("LiveObjects = %d after reclaim, want 0", got)
	}
	if rep := a.Audit(); !rep.OK {
		t.Fatalf("audit after reclaim:\n%s", rep)
	}
}

// Randomized churn: regions created, filled and deleted in arbitrary
// order must leave the arena total equal to the surviving regions' sum,
// the cumulative Allocs counter equal to the exact success count, and
// the audit clean — no admission may drift across a delete.
func TestAllocCacheAuditAfterChurn(t *testing.T) {
	a := NewArena(WithMetrics())
	rng := rand.New(rand.NewSource(1))
	var live []*Region
	var want, total int64
	for round := 0; round < 120; round++ {
		r := a.NewRegion()
		n := int64(rng.Intn(150))
		for i := int64(0); i < n; i++ {
			if _, err := TryAlloc[cachePayload](r); err != nil {
				t.Fatal(err)
			}
		}
		total += n
		if rng.Intn(2) == 0 {
			if err := r.Delete(); err != nil {
				t.Fatal(err)
			}
		} else {
			live = append(live, r)
			want += n
		}
	}
	if got := a.LiveObjects(); got != want {
		t.Fatalf("LiveObjects = %d, want %d", got, want)
	}
	if got := a.Counters().Allocs; got != total {
		t.Fatalf("Counters().Allocs = %d, want %d (objs drift through the cache)", got, total)
	}
	if rep := a.Audit(); !rep.OK {
		t.Fatalf("audit after churn:\n%s", rep)
	}
	for _, r := range live {
		if err := r.Delete(); err != nil {
			t.Fatal(err)
		}
	}
	if got := a.LiveObjects(); got != 0 {
		t.Fatalf("LiveObjects = %d after draining, want 0", got)
	}
}

// Concurrent chunk refills and admissions racing region deletion: run
// under -race, exact at quiesce, and every deleted region reads 0
// objects. The refill failpoint yields at the refill edge to widen the
// races.
func TestAllocCacheConcurrentRefillVsDelete(t *testing.T) {
	if err := failpoint.Enable("rcgo/alloc.refill",
		failpoint.Rule{Action: failpoint.ActionYield, Num: 1, Den: 2, Seed: 7}); err != nil {
		t.Fatal(err)
	}
	defer failpoint.DisableAll()

	a := NewArena()
	var cur atomic.Pointer[Region]
	cur.Store(a.NewRegion())
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				if _, err := TryAlloc[cachePayload](cur.Load()); err != nil && !errors.Is(err, ErrRegionDeleted) {
					t.Errorf("TryAlloc: %v", err)
					return
				}
			}
		}()
	}
	swaps := 200
	if testing.Short() {
		swaps = 50
	}
	dead := make([]*Region, 0, swaps+1)
	for i := 0; i < swaps; i++ {
		old := cur.Swap(a.NewRegion())
		old.DeleteDeferred()
		dead = append(dead, old)
	}
	close(stop)
	wg.Wait()
	failpoint.DisableAll()
	cur.Load().DeleteDeferred()
	dead = append(dead, cur.Load())
	a.SweepZombies()
	for _, r := range dead {
		assertDeadReadsZero(t, r)
	}
	if got := a.LiveObjects(); got != 0 {
		t.Fatalf("LiveObjects = %d at quiesce, want 0", got)
	}
	if got := a.Stats().LiveObjects; got != 0 {
		t.Fatalf("Stats().LiveObjects = %d at quiesce, want 0", got)
	}
	if got := a.DeferredRegions(); got != 0 {
		t.Fatalf("DeferredRegions = %d at quiesce, want 0", got)
	}
	if rep := a.Audit(); !rep.OK {
		t.Fatalf("audit at quiesce:\n%s", rep)
	}
}

// assertDeadReadsZero checks a reclaimed region's object count: a
// fresh allocation is refused with ErrRegionDeleted, and both readers
// report 0 afterwards.
func assertDeadReadsZero(t *testing.T, r *Region) {
	t.Helper()
	if _, err := TryAlloc[cachePayload](r); !errors.Is(err, ErrRegionDeleted) {
		t.Fatalf("TryAlloc on reclaimed region %d: %v, want ErrRegionDeleted", r.ID(), err)
	}
	if got := r.Objects(); got != 0 {
		t.Fatalf("reclaimed region %d: Objects() = %d, want 0", r.ID(), got)
	}
	if st := r.Stats(); !st.Reclaimed || st.Objects != 0 {
		t.Fatalf("reclaimed region %d: Stats() = %+v, want Reclaimed with 0 objects", r.ID(), st)
	}
}

// A dead region reads 0 objects, whatever its counter holds: after a
// Delete, after a refused allocation, and inside a refused admission's
// window (its +1 landed, its withdrawal not yet). The arena total stays
// the surviving region's count throughout.
func TestDeadRegionReadsZeroObjects(t *testing.T) {
	a := NewArena()
	keep, r := a.NewRegion(), a.NewRegion()
	const kept, n = 7, 40
	for i := 0; i < kept; i++ {
		Alloc[cachePayload](keep)
	}
	for i := 0; i < n; i++ {
		Alloc[cachePayload](r)
	}
	if got := a.LiveObjects(); got != kept+n {
		t.Fatalf("LiveObjects = %d before delete, want %d", got, kept+n)
	}
	if err := r.Delete(); err != nil {
		t.Fatal(err)
	}
	assertDeadReadsZero(t, r)
	// A refused admission counts first and withdraws after reading the
	// state; hold its window open by hand.
	r.objs.Add(1)
	if got := r.Objects(); got != 0 {
		t.Fatalf("Objects() = %d inside a refused admission's window, want 0", got)
	}
	if got := r.Stats().Objects; got != 0 {
		t.Fatalf("Stats().Objects = %d inside a refused admission's window, want 0", got)
	}
	r.withdrawn.Add(1)
	for _, got := range []int64{a.LiveObjects(), a.Stats().LiveObjects} {
		if got != kept {
			t.Fatalf("arena live objects = %d after the delete, want %d", got, kept)
		}
	}
	if rep := a.Audit(); !rep.OK {
		t.Fatalf("audit:\n%s", rep)
	}
}

// A refused chunk refill (the rcgo/alloc.refill failpoint) surfaces
// before the object is counted: nothing unwinds, nothing leaks into the
// arena totals, and the next attempt succeeds once disarmed.
func TestAllocRefillFailpoint(t *testing.T) {
	// A type unique to this test, so its chunk pool is guaranteed empty
	// and the first allocation must refill.
	type refillProbe struct{ x [48]byte }
	a := NewArena()
	r := a.NewRegion()
	if err := failpoint.Enable("rcgo/alloc.refill", failpoint.Rule{Action: failpoint.ActionError}); err != nil {
		t.Fatal(err)
	}
	defer failpoint.DisableAll()
	_, err := TryAlloc[refillProbe](r)
	if !errors.Is(err, ErrInjected) {
		t.Fatalf("refused refill returned %v, want ErrInjected", err)
	}
	failpoint.DisableAll()
	if got := a.LiveObjects(); got != 0 {
		t.Fatalf("refused refill counted an object: LiveObjects = %d", got)
	}
	if _, err := TryAlloc[refillProbe](r); err != nil {
		t.Fatalf("disarmed allocation: %v", err)
	}
	if got := r.Objects(); got != 1 {
		t.Fatalf("Objects() = %d, want 1", got)
	}
}

// Chunk slots are handed out at most once, so the zero-value guarantee
// survives recycling through the pool — including chunks left over from
// a deleted region.
func TestChunkedAllocZeroValue(t *testing.T) {
	a := NewArena()
	r1 := a.NewRegion()
	for i := 0; i < 300; i++ {
		o := Alloc[cachePayload](r1)
		if o.Value != (cachePayload{}) {
			t.Fatalf("alloc %d in r1: non-zero value %+v", i, o.Value)
		}
		o.Value = cachePayload{1, 2, 3}
	}
	if err := r1.Delete(); err != nil {
		t.Fatal(err)
	}
	r2 := a.NewRegion()
	for i := 0; i < 300; i++ {
		o := Alloc[cachePayload](r2)
		if o.Value != (cachePayload{}) {
			t.Fatalf("alloc %d in r2: non-zero value %+v (recycled chunk slot)", i, o.Value)
		}
	}
	if err := r2.Delete(); err != nil {
		t.Fatal(err)
	}
}

// Oversized types bypass the chunk pool but use the same admission,
// keeping accounting uniform.
func TestAllocOversizedBypassesChunks(t *testing.T) {
	type big struct{ x [2048]byte }
	a := NewArena()
	r := a.NewRegion()
	for i := 0; i < 5; i++ {
		if _, err := TryAlloc[big](r); err != nil {
			t.Fatal(err)
		}
	}
	if got := r.Objects(); got != 5 {
		t.Fatalf("Objects() = %d, want 5", got)
	}
	if err := r.Delete(); err != nil {
		t.Fatal(err)
	}
	if got := a.LiveObjects(); got != 0 {
		t.Fatalf("LiveObjects = %d, want 0", got)
	}
}

// termShape and coefShape mirror a region that interleaves two small
// types, like grobner's list terms and their coefficients: a
// pointer-carrying one (24 B Obj) and a pointer-free one (40 B Obj, so
// slab-backed when the arena has a backing store).
type termShape struct {
	val  int64
	next Ref[termShape]
}

type coefShape struct{ c [4]int64 }

// Park slots must depend on the object size: two small types get
// different slots, and the small sizes spread over every slot, so a
// region allocating a few types keeps one chunk of each parked.
func TestChunkParkSlotSpread(t *testing.T) {
	pairs := [][2]uintptr{
		{24, 40},
		{unsafe.Sizeof(Obj[termShape]{}), unsafe.Sizeof(Obj[coefShape]{})},
	}
	for _, p := range pairs {
		if s := chunkParkSlot(p[0]); s == chunkParkSlot(p[1]) {
			t.Errorf("%d B and %d B objects share park slot %d", p[0], p[1], s)
		}
	}
	var used [chunkParkSlots]int
	for size := uintptr(8); size <= 128; size += 8 {
		s := chunkParkSlot(size)
		if s < 0 || s >= chunkParkSlots {
			t.Fatalf("chunkParkSlot(%d) = %d, outside [0, %d)", size, s, chunkParkSlots)
		}
		used[s]++
	}
	for s, n := range used {
		if n == 0 {
			t.Errorf("no size in 8..128 B parks in slot %d of %d (spread %v)", s, chunkParkSlots, used)
		}
	}
}

// threeRefs is moss's 3-slot object: a word of data and three links.
type threeRefs struct {
	n       int64
	a, b, c Ref[threeRefs]
}

// A Ref is one machine word, like the paper's pointers, so an object
// pays 8 B per link and no more.
func TestRefIsOneWord(t *testing.T) {
	var ref Ref[threeRefs]
	if got, want := unsafe.Sizeof(ref), unsafe.Sizeof(uintptr(0)); got != want {
		t.Errorf("Ref is %d B, want one word (%d B)", got, want)
	}
	if got := unsafe.Sizeof(Obj[threeRefs]{}); got != 40 {
		t.Errorf("Obj of {int64; 3 Refs} is %d B, want 40", got)
	}
}

// Every Obj starts with its region, whatever its T, so a counted slot's
// target region reads through the one type-free objHeader: for a 1-byte
// T, a pointer-free array T and a T embedding Refs.
func TestObjRegionFirst(t *testing.T) {
	type embeds struct {
		n int8
		Ref[threeRefs]
		tail [3]Ref[coefShape]
	}
	if off := unsafe.Offsetof(Obj[byte]{}.region); off != 0 {
		t.Errorf("Obj[byte].region at offset %d, want 0", off)
	}
	if off := unsafe.Offsetof(Obj[[5]int16]{}.region); off != 0 {
		t.Errorf("Obj[[5]int16].region at offset %d, want 0", off)
	}
	if off := unsafe.Offsetof(Obj[embeds]{}.region); off != 0 {
		t.Errorf("Obj[embeds].region at offset %d, want 0", off)
	}
	r := NewArena().NewRegion()
	o := Alloc[embeds](r)
	if h := (*objHeader)(unsafe.Pointer(o)); h.region != r {
		t.Errorf("objHeader reads region %p, want %p", h.region, r)
	}
}

// Each payload type's descriptor lists its Ref words, nested structs,
// arrays and embedded Refs included, and admits only pointer-free types
// to slabs.
func TestChunkTypeRefWords(t *testing.T) {
	type inner struct {
		x int32
		r Ref[cachePayload]
	}
	type embeds struct {
		n int64
		Ref[cachePayload]
	}
	type outer struct {
		a   int64
		in  inner
		arr [2]Ref[threeRefs]
		pad [64]byte
		emb embeds
	}
	var o outer
	want := []uintptr{
		unsafe.Offsetof(o.in) + unsafe.Offsetof(o.in.r),
		unsafe.Offsetof(o.arr),
		unsafe.Offsetof(o.arr) + unsafe.Sizeof(o.arr[0]),
		unsafe.Offsetof(o.emb) + unsafe.Offsetof(o.emb.Ref),
	}
	ct := chunkTypeOf[outer]()
	if !slices.Equal(ct.refs, want) {
		t.Errorf("refs = %v, want %v", ct.refs, want)
	}
	if ct.slab {
		t.Error("a type with Ref words is slab-eligible")
	}
	if ct := chunkTypeOf[coefShape](); ct.slab != true || len(ct.refs) != 0 {
		t.Errorf("coefShape: slab %v refs %v, want true and none", ct.slab, ct.refs)
	}
}

// tagNode is a SetSame-linked node that can carry a heap tag, whose
// finalizer reports when the node's chunk has been collected.
type tagNode struct {
	next Ref[tagNode]
	tag  *[32]byte
}

// A dead region's pooled chunk must not keep its earlier chunks alive.
// The region fills one and a half chunks of a SetSame-linked list, so
// its last chunk's first node links into the chunk before; at reclaim
// that chunk goes to the pool, and the next region of the type parks
// it. The scrub cuts the cross-chunk link, so the first node (in an
// exhausted chunk nothing else names) is collected, and its tag's
// finalizer runs.
func TestPooledChunkRetainsNoDeadChunk(t *testing.T) {
	a := NewArena()
	collected := fillLinkedAndDelete(t, a)
	r := a.NewRegion()
	keep := Alloc[tagNode](r)
	for i := 0; i < 50; i++ {
		runtime.GC()
		select {
		case <-collected:
			runtime.KeepAlive(keep)
			return
		case <-time.After(10 * time.Millisecond):
		}
	}
	t.Fatal("a pooled chunk of a deleted region keeps its first chunk alive")
}

// fillLinkedAndDelete builds the linked region and deletes it. The
// returned channel is closed once the first node's tag is collected.
func fillLinkedAndDelete(t *testing.T, a *Arena) <-chan struct{} {
	per := chunkTargetBytes / int(unsafe.Sizeof(Obj[tagNode]{}))
	r := a.NewRegion()
	prev := Alloc[tagNode](r)
	prev.Value.tag = new([32]byte)
	collected := make(chan struct{})
	runtime.SetFinalizer(prev.Value.tag, func(*[32]byte) { close(collected) })
	for i := 1; i < per+per/2; i++ {
		o := Alloc[tagNode](r)
		MustSetSame(o, &o.Value.next, prev)
		prev = o
	}
	if err := r.Delete(); err != nil {
		t.Fatal(err)
	}
	return collected
}

// The scrub cuts a dead region's cross-chunk links and keeps its
// in-chunk ones, but spares a chunk that was displaced from a live
// region's park: an allocator of that region may still claim a live
// object from it. A type switch in one park slot marks the displaced
// chunk. The scrub's Ref offsets are relative to the value, not the
// header: it must leave the header's region alone and reach the last
// Ref word.
func TestScrubSparesDisplacedChunks(t *testing.T) {
	a := NewArena()
	r := a.NewRegion()
	slot := &r.chunkPark[chunkParkSlot(unsafe.Sizeof(Obj[threeRefs]{}))]
	if slot != &r.chunkPark[chunkParkSlot(unsafe.Sizeof(Obj[coefShape]{}))] {
		t.Fatal("threeRefs and coefShape no longer share a park slot; pick a colliding pair")
	}
	Alloc[threeRefs](r)
	displaced := slot.Load().c.(*objChunk[threeRefs])
	Alloc[coefShape](r)
	if !displaced.shared {
		t.Fatal("a chunk displaced by a type switch is not marked shared")
	}

	far := Alloc[threeRefs](a.Traditional())
	for _, shared := range []bool{false, true} {
		ch := &objChunk[threeRefs]{buf: make([]Obj[threeRefs], 4), typ: chunkTypeOf[threeRefs](), shared: shared}
		ch.box.c = ch
		o, near := ch.claim(r), ch.claim(r)
		o.Value.a.swap(far)
		o.Value.b.swap(near)
		o.Value.c.swap(far)
		ch.unpark()
		ch.repool(false)
		if cut := o.Value.a.Get() == nil; cut == shared {
			t.Errorf("shared=%v: cross-chunk link cut=%v, want %v", shared, cut, !shared)
		}
		if cut := o.Value.c.Get() == nil; cut == shared {
			t.Errorf("shared=%v: last cross-chunk link cut=%v, want %v", shared, cut, !shared)
		}
		if o.Value.b.Get() != near {
			t.Errorf("shared=%v: in-chunk link was cut", shared)
		}
		if o.Region() != r {
			t.Errorf("shared=%v: the scrub overwrote the header's region", shared)
		}
	}
}

// recTerm is the recycling tests' own term type, so their chunks come
// from a pool no other test feeds.
type recTerm struct {
	val  int64
	next Ref[recTerm]
}

// recHuge is above maxChunkObjBytes: allocated on its own, outside any
// chunk.
type recHuge struct{ b [2 * maxChunkObjBytes]byte }

// drainPool empties T's chunk pool, so the next refill makes a fresh,
// clean chunk at base 0.
func drainPool[T any]() {
	for chunkTypeOf[T]().pool.Get() != nil {
	}
}

// fillRecTerms allocates one chunk's worth of linked terms and one more,
// through the token own or, when own is nil, through the shared
// TryAlloc, so the first chunk is exhausted and retired, and returns
// that chunk and its first object. The chunk is read where the first
// allocation left it: in the park slot, or sealed in the token.
func fillRecTerms(t *testing.T, r *Region, own *Owner) (*objChunk[recTerm], *Obj[recTerm]) {
	t.Helper()
	drainPool[recTerm]()
	i := chunkParkSlot(unsafe.Sizeof(Obj[recTerm]{}))
	filled := func() *chunkBox {
		if own != nil {
			return own.sealed[i].box
		}
		return r.chunkPark[i].Load()
	}
	var first, prev *Obj[recTerm]
	var ch *objChunk[recTerm]
	per := chunkTargetBytes / int(unsafe.Sizeof(Obj[recTerm]{}))
	for n := 0; n <= per; n++ {
		var o *Obj[recTerm]
		var err error
		if own != nil {
			o, err = TryAllocOwned[recTerm](own)
		} else {
			o, err = TryAlloc[recTerm](r)
		}
		if err != nil {
			t.Fatal(err)
		}
		o.Value.val = int64(n + 1)
		if prev == nil {
			first, ch = o, filled().c.(*objChunk[recTerm])
		} else {
			o.Value.next.swap(prev)
		}
		prev = o
	}
	if ch.next.Load() < int64(len(ch.buf)) || filled() == &ch.box {
		t.Fatal("the first chunk was not exhausted and retired")
	}
	return ch, first
}

// A recycled chunk comes back as good as new: cursor and base at 0, and
// every header and value zeroed.
func TestRecycledChunkZeroed(t *testing.T) {
	a := NewArena(WithOffHeapSlabs(), WithMetrics())
	defer a.CloseBackingStore()
	r := a.NewRegion()
	ch, _ := fillRecTerms(t, r, nil)
	if err := r.Delete(); err != nil {
		t.Fatal(err)
	}
	if got := a.Counters().ChunksRecycled; got != 1 {
		t.Fatalf("ChunksRecycled = %d, want 1", got)
	}
	if ch.next.Load() != 0 || ch.base != 0 || !ch.clean {
		t.Fatalf("recycled chunk: next=%d base=%d clean=%v, want 0, 0, true", ch.next.Load(), ch.base, ch.clean)
	}
	for i := range ch.buf {
		if o := &ch.buf[i]; o.region != nil || o.Value.val != 0 || o.Value.next.Get() != nil {
			t.Fatalf("recycled header %d: region=%p val=%d next=%p, want all zero", i, o.region, o.Value.val, o.Value.next.Get())
		}
	}
}

// Each claim the count gate cannot see leaves the region's exhausted
// chunks to the collector untouched: a type switch in one park slot (the
// displaced chunk's claims leave the ledger), an oversize Obj (on no
// chunk at all), and a revoked token that allocated (its claims never
// reach objs).
func TestRecycleRefusals(t *testing.T) {
	for _, tc := range []struct {
		name string
		run  func(t *testing.T, a *Arena) (*Region, *objChunk[recTerm])
	}{
		{"type-switch", func(t *testing.T, a *Arena) (*Region, *objChunk[recTerm]) {
			r := a.NewRegion()
			ch, _ := fillRecTerms(t, r, nil)
			if chunkParkSlot(unsafe.Sizeof(Obj[recTerm]{})) != chunkParkSlot(unsafe.Sizeof(Obj[cachePayload]{})) {
				t.Fatal("recTerm and cachePayload no longer share a park slot; pick a colliding pair")
			}
			Alloc[cachePayload](r)
			return r, ch
		}},
		{"oversize", func(t *testing.T, a *Arena) (*Region, *objChunk[recTerm]) {
			r := a.NewRegion()
			ch, _ := fillRecTerms(t, r, nil)
			Alloc[recHuge](r)
			return r, ch
		}},
		{"revoked-token", func(t *testing.T, a *Arena) (*Region, *objChunk[recTerm]) {
			r := a.NewRegion()
			own := r.Acquire()
			ch, _ := fillRecTerms(t, r, own)
			if !r.revokeOwner(own) {
				t.Fatal("revocation lost")
			}
			return r, ch
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			a := NewArena(WithOffHeapSlabs(), WithMetrics())
			defer a.CloseBackingStore()
			r, ch := tc.run(t, a)
			if err := r.Delete(); err != nil {
				t.Fatal(err)
			}
			if got := a.Counters().ChunksRecycled; got != 0 {
				t.Fatalf("ChunksRecycled = %d, want 0", got)
			}
			if ch.next.Load() < int64(len(ch.buf)) || ch.buf[0].region != r || ch.buf[0].Value.val != 1 {
				t.Fatalf("the exhausted chunk was reset or zeroed: next=%d region=%p val=%d",
					ch.next.Load(), ch.buf[0].region, ch.buf[0].Value.val)
			}
		})
	}
}

// Three kinds of TryAlloc leave the object counts exact at quiesce: one
// refused on an owned region, one refused on a deleted (zombie) region,
// and one that waited out a dying window and was admitted once the
// delete failed. Region.Objects, Stats().Objects and LiveObjects all
// agree with the objects actually admitted.
func TestRefusedAllocsKeepCountsExact(t *testing.T) {
	exact := func(t *testing.T, a *Arena, r *Region, want int64) {
		t.Helper()
		if got := r.Objects(); got != want {
			t.Errorf("Objects = %d, want %d", got, want)
		}
		if got := r.Stats().Objects; got != want {
			t.Errorf("Stats().Objects = %d, want %d", got, want)
		}
		if got := a.LiveObjects(); got != want {
			t.Errorf("LiveObjects = %d, want %d", got, want)
		}
	}
	t.Run("owned", func(t *testing.T) {
		a := NewArena()
		r := a.NewRegion()
		Alloc[recTerm](r)
		Alloc[recTerm](r)
		own := r.Acquire()
		if _, err := TryAlloc[recTerm](r); !errors.Is(err, ErrRegionOwned) {
			t.Fatalf("TryAlloc on an owned region: %v, want ErrRegionOwned", err)
		}
		AllocOwned[recTerm](own)
		if err := own.Release(); err != nil {
			t.Fatal(err)
		}
		exact(t, a, r, 3)
	})
	t.Run("deleted", func(t *testing.T) {
		a := NewArena()
		r := a.NewRegion()
		unpin := Pin(Alloc[recTerm](r))
		Alloc[recTerm](r)
		r.DeleteDeferred()
		if _, err := TryAlloc[recTerm](r); !errors.Is(err, ErrRegionDeleted) {
			t.Fatalf("TryAlloc on a zombie: %v, want ErrRegionDeleted", err)
		}
		exact(t, a, r, 2)
		unpin()
		exact(t, a, r, 0)
	})
	t.Run("dying-window", func(t *testing.T) {
		defer failpoint.Disable("rcgo/delete.dying")
		a := NewArena(WithMetrics())
		r := a.NewRegion()
		unpin := Pin(Alloc[recTerm](r))
		defer unpin()
		done := make(chan error, 1)
		if err := failpoint.Enable("rcgo/delete.dying", failpoint.Rule{
			Action: failpoint.ActionHook,
			Hook: func() {
				// The delete holds the region dying: start an allocation
				// and hold the window until it has counted its claim and
				// is waiting for the decision.
				go func() { _, err := TryAlloc[recTerm](r); done <- err }()
				for r.objs.Load() < 2 {
					runtime.Gosched()
				}
			},
		}); err != nil {
			t.Fatal(err)
		}
		if err := r.Delete(); !errors.Is(err, ErrRegionInUse) {
			t.Fatalf("Delete under a pin: %v, want ErrRegionInUse", err)
		}
		failpoint.Disable("rcgo/delete.dying")
		if err := <-done; err != nil {
			t.Fatalf("the allocation that waited out the dying window: %v", err)
		}
		exact(t, a, r, 2)
		if got := a.Counters().Allocs; got != 2 {
			t.Errorf("Counters().Allocs = %d, want 2", got)
		}
	})
}
