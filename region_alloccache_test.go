package rcgo

import (
	"errors"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"unsafe"

	"rcgo/internal/failpoint"
)

type cachePayload struct{ a, b, c int64 }

// Below the flush threshold, allocation deltas stay parked in the shard
// cache: objs is stale, Objects() folds the pending deltas in, and
// Stats is a flush point that settles the real counter.
func TestAllocCacheFlushOnStats(t *testing.T) {
	a := NewArena(WithMetrics())
	r := a.NewRegion()
	const n = 10
	for i := 0; i < n; i++ {
		if _, err := TryAlloc[cachePayload](r); err != nil {
			t.Fatal(err)
		}
	}
	if got := r.objs.Load(); got != 0 {
		t.Fatalf("objs = %d before any flush point, want 0 (deltas parked)", got)
	}
	if got := r.Objects(); got != n {
		t.Fatalf("Objects() = %d, want %d (pending deltas folded in)", got, n)
	}
	if got := r.Stats().Objects; got != n {
		t.Fatalf("Stats().Objects = %d, want %d", got, n)
	}
	if got := r.objs.Load(); got != n {
		t.Fatalf("objs = %d after the Stats flush, want %d", got, n)
	}
	if got := a.Counters().AllocFlushes; got == 0 {
		t.Fatal("the Stats flush was not counted")
	}
}

// A long enough allocation run must cross the per-shard threshold and
// flush without any explicit flush point being exercised.
func TestAllocCacheThresholdFlush(t *testing.T) {
	a := NewArena(WithMetrics())
	r := a.NewRegion()
	const n = 2 * allocShards * allocFlushThreshold
	for i := 0; i < n; i++ {
		if _, err := TryAlloc[cachePayload](r); err != nil {
			t.Fatal(err)
		}
	}
	if got := a.Counters().AllocFlushes; got == 0 {
		t.Fatalf("no threshold flush over %d allocations", n)
	}
	if got := r.Objects(); got != n {
		t.Fatalf("Objects() = %d, want %d", got, n)
	}
}

// Delete must account for every parked delta: reclaim drains the
// shards, so the arena total returns to zero exactly.
func TestAllocCacheFlushOnDelete(t *testing.T) {
	a := NewArena()
	r := a.NewRegion()
	const n = 20
	for i := 0; i < n; i++ {
		if _, err := TryAlloc[cachePayload](r); err != nil {
			t.Fatal(err)
		}
	}
	if got := r.objs.Load(); got != 0 {
		t.Fatalf("objs = %d before a flush point, want 0 (deltas parked)", got)
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

// DeleteDeferred flushes at the deferral point: a zombie's objs counter
// is settled (its objects stay live until reclaim), and the eventual
// drain returns the arena to zero.
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
	if got := r.objs.Load(); got != n {
		t.Fatalf("zombie objs = %d, want %d (deltas flushed at the deferral point)", got, n)
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
// the audit clean — no delta may drift across any flush path.
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

// Concurrent chunk refills and delta publishes racing region deletion:
// run under -race, exact at quiesce. The refill failpoint yields inside
// the refill and flush windows to widen the races.
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
	for i := 0; i < swaps; i++ {
		old := cur.Swap(a.NewRegion())
		old.DeleteDeferred()
	}
	close(stop)
	wg.Wait()
	failpoint.DisableAll()
	cur.Load().DeleteDeferred()
	a.SweepZombies()
	if got := a.LiveObjects(); got != 0 {
		t.Fatalf("LiveObjects = %d at quiesce, want 0", got)
	}
	if got := a.DeferredRegions(); got != 0 {
		t.Fatalf("DeferredRegions = %d at quiesce, want 0", got)
	}
	if rep := a.Audit(); !rep.OK {
		t.Fatalf("audit at quiesce:\n%s", rep)
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

// Oversized types bypass the chunk pool but use the same delta-batched
// admission, keeping accounting uniform.
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
// pointer-carrying one (32 B Obj) and a pointer-free one (40 B Obj, so
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
