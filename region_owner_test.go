package rcgo

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"unsafe"

	"rcgo/internal/failpoint"
)

// Acquire/Release round trip: the owned fast path keeps its deltas on
// the token, Release flushes them exactly, and every arena counter and
// the audit agree once the token is gone.
func TestOwnerLifecycle(t *testing.T) {
	a := NewArena(WithMetrics())
	r := a.NewRegion()
	r2 := a.NewRegion()
	ext := Alloc[crossNode](r2)

	own, err := r.TryAcquire()
	if err != nil {
		t.Fatal(err)
	}
	if !r.Owned() || !r.Stats().Owned {
		t.Fatal("region not reported owned after TryAcquire")
	}
	if got := a.OwnedRegions(); got != 1 {
		t.Fatalf("OwnedRegions = %d, want 1", got)
	}
	if own.Region() != r {
		t.Fatal("token names the wrong region")
	}

	o := AllocOwned[crossNode](own)
	l := AllocOwned[listNode](own)
	l.Value.Data = 7
	// Owner-local deltas are invisible until Release: the flushed object
	// count is still zero.
	if got := r.Objects(); got != 0 {
		t.Fatalf("Objects before release = %d, want 0 (unflushed)", got)
	}
	if err := SetSameOwned(own, l, &l.Value.Next, l); err != nil {
		t.Fatal(err)
	}
	if err := SetRefOwned(own, o, &o.Value.Other, ext); err != nil {
		t.Fatal(err)
	}
	// The external target's rc unit is committed immediately — the
	// target region is shared and its delete races stay linearizable.
	if got := r2.RC(); got != 1 {
		t.Fatalf("external target rc = %d, want 1", got)
	}
	// Displacing the reference through the owned path releases it.
	if err := SetRefOwned(own, o, &o.Value.Other, nil); err != nil {
		t.Fatal(err)
	}
	if got := r2.RC(); got != 0 {
		t.Fatalf("external target rc after clear = %d, want 0", got)
	}

	if err := own.Release(); err != nil {
		t.Fatal(err)
	}
	if r.Owned() || a.OwnedRegions() != 0 {
		t.Fatal("region still owned after Release")
	}
	if own.Region() != nil {
		t.Fatal("released token still names a region")
	}
	if got := r.Objects(); got != 2 {
		t.Fatalf("Objects after release = %d, want 2", got)
	}
	c := a.Counters()
	if c.Acquires != 1 || c.Releases != 1 || c.OwnerFlushes != 1 {
		t.Fatalf("ownership counters = acquires %d releases %d flushes %d, want 1/1/1",
			c.Acquires, c.Releases, c.OwnerFlushes)
	}
	if c.Allocs != 3 { // ext + two owned
		t.Fatalf("Allocs = %d, want 3", c.Allocs)
	}
	if c.CountedStores != 2 || c.SameChecks != 1 {
		t.Fatalf("store counters = counted %d same %d, want 2/1", c.CountedStores, c.SameChecks)
	}
	if rep := a.Audit(); !rep.OK {
		t.Fatalf("audit after release: %s", rep)
	}
	if err := r.Delete(); err != nil {
		t.Fatal(err)
	}
	if err := r2.Delete(); err != nil {
		t.Fatal(err)
	}
	if got := a.LiveObjects(); got != 0 {
		t.Fatalf("LiveObjects = %d, want 0", got)
	}
}

// The pipeline pattern: build on one goroutine, hand the token through
// a channel (the memory-model edge), delete on the other. Owner.Delete
// consumes the token in one step and counts as release + delete, so
// the quiesced counters balance.
func TestOwnerPipelineHandOff(t *testing.T) {
	a := NewArena(WithMetrics())
	r := a.NewRegion()
	own := r.Acquire()
	for i := 0; i < 5; i++ {
		AllocOwned[listNode](own)
	}
	ch := make(chan *Owner)
	done := make(chan error)
	go func() {
		tok := <-ch
		AllocOwned[listNode](tok)
		done <- tok.Delete()
	}()
	ch <- own
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	c := a.Counters()
	if c.Acquires != 1 || c.Releases != 1 || c.Deletes != 1 {
		t.Fatalf("counters = acquires %d releases %d deletes %d, want 1/1/1",
			c.Acquires, c.Releases, c.Deletes)
	}
	if c.Allocs != 6 {
		t.Fatalf("Allocs = %d, want 6", c.Allocs)
	}
	if got := a.LiveObjects(); got != 0 {
		t.Fatalf("LiveObjects = %d, want 0", got)
	}
	if got := a.LiveRegions(); got != 1 {
		t.Fatalf("LiveRegions = %d, want 1 (traditional)", got)
	}
	if rep := a.Audit(); !rep.OK {
		t.Fatalf("audit: %s", rep)
	}
}

// Every illegal acquisition and every shared-path operation against an
// owned region fails with the documented error class.
func TestOwnerErrorPaths(t *testing.T) {
	a := NewArena()

	if _, err := a.Traditional().TryAcquire(); err == nil {
		t.Fatal("acquired the traditional region")
	}

	// Deleted and deferred regions cannot be acquired.
	dead := a.NewRegion()
	if err := dead.Delete(); err != nil {
		t.Fatal(err)
	}
	if _, err := dead.TryAcquire(); !errors.Is(err, ErrRegionDeleted) {
		t.Fatalf("acquire of deleted region: %v, want ErrRegionDeleted", err)
	}
	zr := a.NewRegion()
	zo := Alloc[crossNode](zr)
	unpin, err := TryPin(zo)
	if err != nil {
		t.Fatal(err)
	}
	zr.DeleteDeferred()
	if _, err := zr.TryAcquire(); !errors.Is(err, ErrRegionDeleted) {
		t.Fatalf("acquire of zombie region: %v, want ErrRegionDeleted", err)
	}
	unpin()

	r := a.NewRegion()
	obj := Alloc[crossNode](r)
	other := a.NewRegion()
	outside := Alloc[crossNode](other)
	own, err := r.TryAcquire()
	if err != nil {
		t.Fatal(err)
	}

	// Second acquisition and every shared mutation: ErrRegionOwned.
	if _, err := r.TryAcquire(); !errors.Is(err, ErrRegionOwned) {
		t.Fatalf("double acquire: %v, want ErrRegionOwned", err)
	}
	if _, err := TryAlloc[crossNode](r); !errors.Is(err, ErrRegionOwned) {
		t.Fatalf("shared alloc: %v, want ErrRegionOwned", err)
	}
	if _, err := r.TryNewSubregion(); !errors.Is(err, ErrRegionOwned) {
		t.Fatalf("subregion of owned region: %v, want ErrRegionOwned", err)
	}
	if _, err := TryPin(obj); !errors.Is(err, ErrRegionOwned) {
		t.Fatalf("pin into owned region: %v, want ErrRegionOwned", err)
	}
	if err := r.Delete(); !errors.Is(err, ErrRegionOwned) {
		t.Fatalf("shared delete of owned region: %v, want ErrRegionOwned", err)
	}
	if err := SetRef(obj, &obj.Value.Other, outside); !errors.Is(err, ErrRegionOwned) {
		t.Fatalf("shared counted store with owned holder: %v, want ErrRegionOwned", err)
	}
	if err := SetSame(obj, &obj.Value.Other, obj); !errors.Is(err, ErrRegionOwned) {
		t.Fatalf("shared sameregion store with owned holder: %v, want ErrRegionOwned", err)
	}
	for _, st := range crossStores {
		if err := st.set(obj, slotFor(obj, st.flavour), nil); !errors.Is(err, ErrRegionOwned) {
			t.Fatalf("shared nil %v with owned holder: %v, want ErrRegionOwned", st.flavour, err)
		}
	}
	// A new inbound counted reference from outside: the target region is
	// owned, so incRC withdraws and rejects.
	if err := SetRef(outside, &outside.Value.Other, obj); !errors.Is(err, ErrRegionOwned) {
		t.Fatalf("inbound counted store into owned region: %v, want ErrRegionOwned", err)
	}
	// DeleteDeferred is a no-op on an owned region: the owner decides.
	r.DeleteDeferred()
	if !r.Owned() {
		t.Fatal("DeleteDeferred ended ownership")
	}

	// Owned stores police their holder and their annotation.
	if err := SetRefOwned(own, outside, &outside.Value.Other, obj); !errors.Is(err, ErrNotOwner) {
		t.Fatalf("owned store with foreign holder: %v, want ErrNotOwner", err)
	}
	if err := SetSameOwned(own, obj, &obj.Value.Other, outside); !errors.Is(err, ErrBadRef) {
		t.Fatalf("owned sameregion store of external target: %v, want ErrBadRef", err)
	}
	if err := SetTradOwned(own, obj, &obj.Value.Other, outside); !errors.Is(err, ErrBadRef) {
		t.Fatalf("owned traditional store of non-traditional target: %v, want ErrBadRef", err)
	}
	if err := SetParentOwned(own, obj, &obj.Value.Up, outside); !errors.Is(err, ErrBadRef) {
		t.Fatalf("owned parentptr store of non-ancestor: %v, want ErrBadRef", err)
	}
	trad := Alloc[crossNode](a.Traditional())
	if err := SetTradOwned(own, obj, &obj.Value.Other, trad); err != nil {
		t.Fatalf("owned traditional store: %v", err)
	}
	if err := SetTradOwned(own, obj, &obj.Value.Other, nil); err != nil {
		t.Fatalf("owned traditional clear: %v", err)
	}

	if err := own.Release(); err != nil {
		t.Fatal(err)
	}
	// A released token rejects everything.
	if err := own.Release(); !errors.Is(err, ErrNotOwner) {
		t.Fatalf("double release: %v, want ErrNotOwner", err)
	}
	if err := own.Delete(); !errors.Is(err, ErrNotOwner) {
		t.Fatalf("delete on released token: %v, want ErrNotOwner", err)
	}
	if _, err := TryAllocOwned[crossNode](own); !errors.Is(err, ErrNotOwner) {
		t.Fatalf("alloc on released token: %v, want ErrNotOwner", err)
	}
	if err := SetRefOwned(own, obj, &obj.Value.Other, outside); !errors.Is(err, ErrNotOwner) {
		t.Fatalf("counted store on released token: %v, want ErrNotOwner", err)
	}
	if err := SetSameOwned(own, obj, &obj.Value.Other, obj); !errors.Is(err, ErrNotOwner) {
		t.Fatalf("sameregion store on released token: %v, want ErrNotOwner", err)
	}
}

// A parentptr stored through a token may target an ancestor that is
// itself owned: the link creates no reference and mutates nothing in
// the ancestor.
func TestOwnerParentStoreIntoOwnedAncestor(t *testing.T) {
	a := NewArena()
	parent := a.NewRegion()
	child := parent.NewSubregion()
	pObj := Alloc[crossNode](parent)
	cObj := Alloc[crossNode](child)

	pOwn, err := parent.TryAcquire()
	if err != nil {
		t.Fatal(err)
	}
	cOwn, err := child.TryAcquire()
	if err != nil {
		t.Fatal(err)
	}
	if err := SetParentOwned(cOwn, cObj, &cObj.Value.Up, pObj); err != nil {
		t.Fatalf("parentptr into owned ancestor: %v", err)
	}
	if err := cOwn.Delete(); err != nil {
		t.Fatal(err)
	}
	if err := pOwn.Delete(); err != nil {
		t.Fatal(err)
	}
	if got := a.LiveRegions(); got != 1 {
		t.Fatalf("LiveRegions = %d, want 1", got)
	}
}

// Owner.Delete fails ErrRegionInUse while pre-existing references or
// subregions remain; the region stays owned, the token stays valid, and
// the early flush is not double-counted on the retry.
func TestOwnerDeleteBlocked(t *testing.T) {
	a := NewArena(WithMetrics())
	r := a.NewRegion()
	target := Alloc[crossNode](r)
	sub := r.NewSubregion()
	holderRegion := a.NewRegion()
	holder := Alloc[crossNode](holderRegion)
	MustSetRef(holder, &holder.Value.Other, target) // pre-existing inbound ref

	own, err := r.TryAcquire()
	if err != nil {
		t.Fatal(err)
	}
	AllocOwned[crossNode](own)
	if err := own.Delete(); !errors.Is(err, ErrRegionInUse) {
		t.Fatalf("delete with live subregion: %v, want ErrRegionInUse", err)
	}
	if !r.Owned() || own.Region() != r {
		t.Fatal("failed delete ended ownership")
	}
	// The early flush already landed the owned allocation.
	if got := r.Objects(); got != 2 {
		t.Fatalf("Objects after failed delete = %d, want 2", got)
	}
	if err := sub.Delete(); err != nil {
		t.Fatal(err)
	}
	if err := own.Delete(); !errors.Is(err, ErrRegionInUse) {
		t.Fatalf("delete with inbound reference: %v, want ErrRegionInUse", err)
	}
	// Releasing the pre-existing reference is legal while owned.
	MustSetRef(holder, &holder.Value.Other, nil)
	if err := own.Delete(); err != nil {
		t.Fatal(err)
	}
	c := a.Counters()
	if c.Allocs != 3 {
		t.Fatalf("Allocs = %d, want 3 (no double count across the early flush)", c.Allocs)
	}
	if err := holderRegion.Delete(); err != nil {
		t.Fatal(err)
	}
	if rep := a.Audit(); !rep.OK {
		t.Fatalf("audit: %s", rep)
	}
}

// An injected rcgo/own.release failure is transient: nothing is
// flushed, the region stays owned, the token stays valid, and the retry
// succeeds with exact accounting.
func TestOwnerReleaseFailpoint(t *testing.T) {
	a := NewArena(WithMetrics())
	r := a.NewRegion()
	own, err := r.TryAcquire()
	if err != nil {
		t.Fatal(err)
	}
	AllocOwned[crossNode](own)

	if err := failpoint.Enable("rcgo/own.release",
		failpoint.Rule{Action: failpoint.ActionError}); err != nil {
		t.Fatal(err)
	}
	defer failpoint.DisableAll()
	if err := own.Release(); !errors.Is(err, ErrInjected) {
		t.Fatalf("release under failpoint: %v, want ErrInjected", err)
	}
	if !r.Owned() || own.Region() != r {
		t.Fatal("injected release failure ended ownership")
	}
	if got := r.Objects(); got != 0 {
		t.Fatalf("Objects after injected failure = %d, want 0 (nothing flushed)", got)
	}
	if err := own.Delete(); !errors.Is(err, ErrInjected) {
		t.Fatalf("owned delete under failpoint: %v, want ErrInjected", err)
	}
	failpoint.DisableAll()
	if err := own.Release(); err != nil {
		t.Fatal(err)
	}
	if got := r.Objects(); got != 1 {
		t.Fatalf("Objects after retried release = %d, want 1", got)
	}
	c := a.Counters()
	if c.Acquires != 1 || c.Releases != 1 || c.Allocs != 1 {
		t.Fatalf("counters = acquires %d releases %d allocs %d, want 1/1/1",
			c.Acquires, c.Releases, c.Allocs)
	}
	if err := r.Delete(); err != nil {
		t.Fatal(err)
	}
}

// Ownership hand-off under the race detector: workers acquire fresh
// regions, work them through the owned fast path, pass the tokens
// around a ring of channels, and the receivers delete them — while
// every worker also probes the shared paths against its held region.
// At quiesce the accounting must be exact: arena Allocs equals the
// worker-counted successes, Acquires equals Releases, and the audit is
// clean with nothing left alive.
func TestOwnershipStress(t *testing.T) {
	const workers = 8
	iters := 300
	if testing.Short() {
		iters = 60
	}
	a := NewArena(WithMetrics())
	hub := a.NewRegion()
	hubObj := Alloc[crossNode](hub)
	var allocs atomic.Int64
	allocs.Add(1) // hubObj

	chans := make([]chan *Owner, workers)
	for i := range chans {
		chans[i] = make(chan *Owner, 2)
	}
	var wg sync.WaitGroup
	var failures atomic.Int64
	fail := func(format string, args ...any) {
		failures.Add(1)
		t.Errorf(format, args...)
	}
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			next := chans[(w+1)%workers]
			for i := 0; i < iters; i++ {
				r := a.NewRegion()
				own, err := r.TryAcquire()
				if err != nil {
					fail("acquire: %v", err)
					next <- nil
					continue
				}
				o := AllocOwned[crossNode](own)
				allocs.Add(1)
				if err := SetRefOwned(own, o, &o.Value.Other, hubObj); err != nil {
					fail("owned counted store: %v", err)
				}
				if i%3 == 0 {
					if _, err := r.TryAcquire(); !errors.Is(err, ErrRegionOwned) {
						fail("double acquire: %v", err)
					}
					if err := r.Delete(); !errors.Is(err, ErrRegionOwned) {
						fail("shared delete: %v", err)
					}
					if _, err := TryPin(o); !errors.Is(err, ErrRegionOwned) {
						fail("pin: %v", err)
					}
				}
				next <- own
				tok := <-chans[w]
				if tok == nil {
					continue
				}
				if _, err := TryAllocOwned[crossNode](tok); err != nil {
					fail("owned alloc after hand-off: %v", err)
				} else {
					allocs.Add(1)
				}
				if err := tok.Delete(); err != nil {
					fail("owned delete: %v", err)
				}
			}
		}(w)
	}
	wg.Wait()
	if failures.Load() > 0 {
		t.FailNow()
	}
	if err := hub.Delete(); err != nil {
		t.Fatal(err)
	}
	c := a.Counters()
	if c.Allocs != allocs.Load() {
		t.Fatalf("alloc drift: arena counted %d, workers observed %d", c.Allocs, allocs.Load())
	}
	if c.Acquires == 0 || c.Acquires != c.Releases {
		t.Fatalf("ownership imbalance: acquires %d releases %d", c.Acquires, c.Releases)
	}
	if got := a.OwnedRegions(); got != 0 {
		t.Fatalf("OwnedRegions = %d, want 0", got)
	}
	if got := a.LiveObjects(); got != 0 {
		t.Fatalf("LiveObjects = %d, want 0", got)
	}
	if got := a.LiveRegions(); got != 1 {
		t.Fatalf("LiveRegions = %d, want 1 (traditional)", got)
	}
	if rep := a.Audit(); !rep.OK {
		t.Fatalf("audit: %s", rep)
	}
}

// Readers are legal against an owned region: concurrent Stats, Audit,
// Objects and hierarchy walks race the owner's plain-field fast path
// without tripping the race detector, because the owner's unflushed
// state lives on the token and the shared words they read stay atomic.
func TestOwnedConcurrentReaders(t *testing.T) {
	a := NewArena(WithMetrics())
	r := a.NewRegion()
	own, err := r.TryAcquire()
	if err != nil {
		t.Fatal(err)
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
					_ = r.Stats()
					_ = r.Objects()
					_ = a.Audit()
					_ = a.OwnedRegions()
				}
			}
		}()
	}
	for i := 0; i < 2000; i++ {
		o := AllocOwned[listNode](own)
		if err := SetSameOwned(own, o, &o.Value.Next, o); err != nil {
			t.Error(err)
			break
		}
	}
	close(stop)
	wg.Wait()
	if err := own.Delete(); err != nil {
		t.Fatal(err)
	}
	if got := a.LiveObjects(); got != 0 {
		t.Fatalf("LiveObjects = %d, want 0", got)
	}
}

// sealNode is the sealed-chunk tests' own type, so their chunks come
// from a pool no other test feeds.
type sealNode struct {
	val  int64
	next Ref[sealNode]
}

// sealSlot is sealNode's park slot.
var sealSlot = chunkParkSlot(unsafe.Sizeof(Obj[sealNode]{}))

// sealedChunkOf returns the chunk the token holds sealed in sealNode's
// slot and its cursor, failing if it holds none.
func sealedChunkOf(t *testing.T, own *Owner) (*objChunk[sealNode], int64) {
	t.Helper()
	s := own.sealed[sealSlot]
	if s.box == nil {
		t.Fatal("the token holds no sealed chunk")
	}
	return s.box.c.(*objChunk[sealNode]), s.next
}

// handedBack checks that the park slot holds ch with its shared cursor
// at the token's cursor next.
func handedBack(t *testing.T, r *Region, ch *objChunk[sealNode], next int64) {
	t.Helper()
	if r.chunkPark[sealSlot].Load() != &ch.box {
		t.Fatal("the token's chunk is not parked again")
	}
	if got := ch.next.Load(); got != next {
		t.Fatalf("handed-back cursor = %d, want the token's %d", got, next)
	}
}

// A token's sealed chunk is its own: while one goroutine allocates
// 2,000 objects through the token, another hammers the shared TryAlloc
// on the same region. Every shared call fails with ErrRegionOwned, every
// owned object is distinct and keeps its header and value, and after
// Release the region holds exactly the owned objects. Under -race a
// shared claim landing on an index the token handed out is a reported
// race on its header.
func TestSealIndexUniqueness(t *testing.T) {
	const n = 2000
	a := NewArena()
	r := a.NewRegion()
	own := r.Acquire()
	stop := make(chan struct{})
	hammered := make(chan error, 1)
	var calls atomic.Int64
	go func() {
		for {
			select {
			case <-stop:
				hammered <- nil
				return
			default:
			}
			if _, err := TryAlloc[sealNode](r); !errors.Is(err, ErrRegionOwned) {
				hammered <- fmt.Errorf("shared TryAlloc %d on an owned region: %v, want ErrRegionOwned", calls.Load(), err)
				return
			}
			calls.Add(1)
		}
	}()
	for calls.Load() == 0 {
		runtime.Gosched()
	}
	objs := make([]*Obj[sealNode], n)
	for i := range objs {
		if i%64 == 0 {
			runtime.Gosched()
		}
		o, err := TryAllocOwned[sealNode](own)
		if err != nil {
			t.Fatal(err)
		}
		o.Value.val = int64(i) + 1
		objs[i] = o
	}
	close(stop)
	if err := <-hammered; err != nil {
		t.Fatal(err)
	}
	seen := make(map[*Obj[sealNode]]bool, n)
	for i, o := range objs {
		if seen[o] {
			t.Fatalf("object %d was handed out twice", i)
		}
		seen[o] = true
		if o.region != r || o.Value.val != int64(i)+1 {
			t.Fatalf("object %d: region %p val %d, want %p and %d", i, o.region, o.Value.val, r, i+1)
		}
	}
	if err := own.Release(); err != nil {
		t.Fatal(err)
	}
	if got := r.Objects(); got != n {
		t.Fatalf("Objects = %d after Release, want %d", got, n)
	}
}

// Release, a direct hand-off and an Owner.Delete that fails
// ErrRegionInUse each hand the token's sealed chunk back: the park slot
// holds it again, its cursor at the token's, and the next allocation
// takes exactly that index.
func TestSealHandBack(t *testing.T) {
	alloc := func(t *testing.T, own *Owner, k int) {
		t.Helper()
		for j := 0; j < k; j++ {
			AllocOwned[sealNode](own)
		}
	}
	t.Run("release", func(t *testing.T) {
		r := NewArena().NewRegion()
		own := r.Acquire()
		alloc(t, own, 5)
		ch, next := sealedChunkOf(t, own)
		if r.chunkPark[sealSlot].Load() != nil {
			t.Fatal("the sealed chunk is still parked")
		}
		if err := own.Release(); err != nil {
			t.Fatal(err)
		}
		handedBack(t, r, ch, next)
		if o := Alloc[sealNode](r); o != &ch.buf[next] {
			t.Fatal("the next shared TryAlloc did not take the token's next index")
		}
	})
	t.Run("hand-off", func(t *testing.T) {
		r := NewArena().NewRegion()
		own := r.Acquire()
		alloc(t, own, 5)
		ch, next := sealedChunkOf(t, own)
		got := make(chan *Owner, 1)
		go func() {
			o, err := r.AcquireContext(context.Background())
			if err != nil {
				t.Error(err)
			}
			got <- o
		}()
		for r.waiterCount() == 0 {
			runtime.Gosched()
		}
		if err := own.Release(); err != nil {
			t.Fatal(err)
		}
		succ := <-got
		if succ == nil {
			t.FailNow()
		}
		handedBack(t, r, ch, next)
		if o := AllocOwned[sealNode](succ); o != &ch.buf[next] {
			t.Fatal("the successor's first allocation did not take the token's next index")
		}
		if err := succ.Delete(); err != nil {
			t.Fatal(err)
		}
	})
	t.Run("failed-delete", func(t *testing.T) {
		r := NewArena().NewRegion()
		unpin := Pin(Alloc[sealNode](r))
		own := r.Acquire()
		alloc(t, own, 5)
		ch, next := sealedChunkOf(t, own)
		if err := own.Delete(); !errors.Is(err, ErrRegionInUse) {
			t.Fatalf("Owner.Delete under a pin: %v, want ErrRegionInUse", err)
		}
		handedBack(t, r, ch, next)
		// The token is still valid, and seals the chunk again.
		if o := AllocOwned[sealNode](own); o != &ch.buf[next] {
			t.Fatal("the token's next allocation did not take its next index")
		}
		if again, at := sealedChunkOf(t, own); again != ch || at != next+1 {
			t.Fatalf("resealed chunk %p at %d, want %p at %d", again, at, ch, next+1)
		}
		if r.chunkPark[sealSlot].Load() != nil {
			t.Fatal("the resealed chunk is still parked")
		}
		unpin()
		if err := own.Delete(); err != nil {
			t.Fatal(err)
		}
		if got := r.Objects(); got != 0 {
			t.Fatalf("Objects = %d after delete, want 0", got)
		}
	})
}

// Slab chunks are never sealed: an owned pointer-free allocation on a
// slab arena claims through the slab chunk's writer gate, as a shared
// one does. An owned grobner-shaped region on a slab arena still
// recycles its exhausted heap chunks at Owner.Delete.
func TestSealSlabArenas(t *testing.T) {
	t.Run("slab-chunk", func(t *testing.T) {
		a := NewArena(WithOffHeapSlabs())
		defer a.CloseBackingStore()
		r := a.NewRegion()
		own := r.Acquire()
		const n = 10
		for j := 0; j < n; j++ {
			AllocOwned[coefShape](own)
		}
		i := chunkParkSlot(unsafe.Sizeof(Obj[coefShape]{}))
		if own.sealed[i].box != nil {
			t.Fatal("the token sealed a slab chunk")
		}
		ch := r.chunkPark[i].Load().c.(*objChunk[coefShape])
		if !ch.slab || ch.next.Load() != n || ch.claimed.Load() != n {
			t.Fatalf("slab chunk: slab=%v next=%d claimed=%d, want true, %d, %d",
				ch.slab, ch.next.Load(), ch.claimed.Load(), n, n)
		}
		if err := own.Delete(); err != nil {
			t.Fatal(err)
		}
	})
	t.Run("owned-churn", func(t *testing.T) {
		a := NewArena(WithOffHeapSlabs(), WithMetrics())
		defer a.CloseBackingStore()
		drainPool[termShape]()
		own := a.NewRegion().Acquire()
		var prev *Obj[termShape]
		for j := 0; j < 880; j++ {
			x := AllocOwned[termShape](own)
			x.Value.val = int64(j)
			if prev != nil {
				if err := SetSameOwned(own, prev, &prev.Value.next, x); err != nil {
					t.Fatal(err)
				}
			}
			prev = x
			if j%11 == 0 {
				AllocOwned[coefShape](own)
			}
		}
		if err := own.Delete(); err != nil {
			t.Fatal(err)
		}
		if got := a.Counters().ChunksRecycled; got == 0 {
			t.Fatal("an owned region's exhausted heap chunks were not recycled")
		}
	})
}

// The stale claimer: a shared allocator that loaded the park slot
// before the token sealed its chunk finds the chunk exhausted, and
// retires it only after the token re-parked it part-used. Reclaim must
// not recycle that chunk. On an arena with a backing store the listed
// chunk counts len(buf) − base claims, more than the region made, so
// the count gate fails; on a default arena the retire drops the chunk
// from the park, and it goes to the collector unscrubbed. The
// interleaving is played step by step, the retire exactly as
// newChunkedObj's exhausted branch makes it.
func TestSealStaleClaimer(t *testing.T) {
	for _, backing := range []bool{false, true} {
		name := "default"
		opts := []Option{WithMetrics()}
		if backing {
			name = "slab-arena"
			opts = append(opts, WithOffHeapSlabs())
		}
		t.Run(name, func(t *testing.T) {
			a := NewArena(opts...)
			defer a.CloseBackingStore()
			drainPool[sealNode]()
			r := a.NewRegion()
			Alloc[sealNode](r)
			slot := &r.chunkPark[sealSlot]
			b := slot.Load() // the stale claimer's load
			ch := b.c.(*objChunk[sealNode])
			own := r.Acquire()
			x := AllocOwned[sealNode](own)
			x.Value.val = 42
			if ch.claim(r) != nil {
				t.Fatal("a sealed chunk handed out a claim")
			}
			if err := own.Release(); err != nil {
				t.Fatal(err)
			}
			handedBack(t, r, ch, 2)
			if r.arena.backing == nil {
				slot.CompareAndSwap(b, nil)
			} else {
				r.chunks.retire(slot, b)
			}
			if err := r.Delete(); err != nil {
				t.Fatal(err)
			}
			if got := a.Counters().ChunksRecycled; got != 0 {
				t.Fatalf("ChunksRecycled = %d, want 0", got)
			}
			if x.region != r || x.Value.val != 42 || ch.next.Load() != 2 || ch.base != 0 {
				t.Fatalf("the part-used chunk was reset: region=%p val=%d next=%d base=%d",
					x.region, x.Value.val, ch.next.Load(), ch.base)
			}
		})
	}
}
