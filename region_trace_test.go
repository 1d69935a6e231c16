package rcgo

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"
	"unsafe"
)

// Exact-accounting tests for the cumulative counters and the tracer,
// in the style of region_concurrent_test.go: N goroutines perform a
// known number of operations each, and the totals must match exactly —
// no lost and no double-counted events. All of these are meaningful
// under -race (make race).

type traceNode struct {
	same  Ref[traceNode] // sameregion slot
	trad  Ref[traceNode] // traditional slot
	up    Ref[traceNode] // parentptr slot
	cross Ref[traceNode] // counted slot
}

// Every store flavour, check failure, pin and alloc from 8 goroutines;
// the counter deltas must equal the op counts exactly.
func TestCountersExactUnderConcurrency(t *testing.T) {
	const workers = 8
	const iters = 400
	a := NewArena(WithMetrics())

	shared := a.NewRegion()
	tobj := Alloc[traceNode](shared)
	tradObj := Alloc[traceNode](a.Traditional())
	foreign := Alloc[traceNode](a.NewRegion())

	type worker struct {
		hr *Region
		h  *Obj[traceNode]
		s  *Obj[traceNode] // lives in a subregion of hr
	}
	ws := make([]worker, workers)
	for i := range ws {
		hr := a.NewRegion()
		ws[i] = worker{hr: hr, h: Alloc[traceNode](hr), s: Alloc[traceNode](hr.NewSubregion())}
	}

	c0 := a.Counters()
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func(w worker) {
			defer wg.Done()
			for n := 0; n < iters; n++ {
				MustSetSame(w.h, &w.h.Value.same, w.h)
				if err := SetSame(w.h, &w.h.Value.same, foreign); !errors.Is(err, ErrBadRef) {
					t.Errorf("cross-region SetSame: %v", err)
				}
				MustSetTrad(w.h, &w.h.Value.trad, tradObj)
				MustSetParent(w.s, &w.s.Value.up, w.h)
				MustSetRef(w.h, &w.h.Value.cross, tobj)
				MustSetRef(w.h, &w.h.Value.cross, nil)
				Pin(tobj)()
				Alloc[traceNode](w.hr)
			}
		}(ws[i])
	}
	wg.Wait()

	d := a.Counters()
	total := int64(workers * iters)
	for _, chk := range []struct {
		name      string
		got, want int64
	}{
		{"SameChecks", d.SameChecks - c0.SameChecks, 2 * total},
		{"CheckFailures", d.CheckFailures - c0.CheckFailures, total},
		{"TradChecks", d.TradChecks - c0.TradChecks, total},
		{"ParentChecks", d.ParentChecks - c0.ParentChecks, total},
		{"CountedStores", d.CountedStores - c0.CountedStores, 2 * total},
		{"RCIncrements", d.RCIncrements - c0.RCIncrements, 2 * total},
		{"RCDecrements", d.RCDecrements - c0.RCDecrements, 2 * total},
		{"PinOps", d.PinOps - c0.PinOps, total},
		{"Allocs", d.Allocs - c0.Allocs, total},
		{"Deletes", d.Deletes - c0.Deletes, 0},
		{"Reclaims", d.Reclaims - c0.Reclaims, 0},
	} {
		if chk.got != chk.want {
			t.Errorf("%s delta = %d, want %d", chk.name, chk.got, chk.want)
		}
	}
}

// Region lifecycle from 8 goroutines: the lifecycle counters, the arena
// live/deferred region stats, and the traced event stream must all
// account for every region exactly.
func TestLifecycleCountersAndTracerExact(t *testing.T) {
	const workers = 8
	const rounds = 100
	ring := NewRingTracer(1 << 14)
	a := NewArena(WithMetrics(), WithTracer(ring))

	c0 := a.Counters()
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for n := 0; n < rounds; n++ {
				r := a.NewRegion()
				sub := r.NewSubregion()
				if n%2 == 0 {
					// Plain teardown: child then parent.
					if err := sub.Delete(); err != nil {
						t.Errorf("sub delete: %v", err)
					}
					if err := r.Delete(); err != nil {
						t.Errorf("delete: %v", err)
					}
				} else {
					// Blocked delete, then deferred reclaim on unpin.
					o := Alloc[traceNode](r)
					unpin := Pin(o)
					if err := r.Delete(); !errors.Is(err, ErrRegionInUse) {
						t.Errorf("pinned delete: %v", err)
					}
					if err := sub.Delete(); err != nil {
						t.Errorf("sub delete: %v", err)
					}
					r.DeleteDeferred()
					unpin()
				}
			}
		}()
	}
	wg.Wait()

	// Per odd round: 2 created, 1 blocked, 1 explicit delete (sub),
	// 1 deferral, 2 reclaims. Per even round: 2 created, 2 deletes,
	// 2 reclaims. The tracer also saw the traditional region's creation.
	half := int64(workers * rounds / 2)
	d := a.Counters()
	for _, chk := range []struct {
		name      string
		got, want int64
	}{
		{"Deletes", d.Deletes - c0.Deletes, 2*half + half},
		{"DeletesBlocked", d.DeletesBlocked - c0.DeletesBlocked, half},
		{"DeferredDeletes", d.DeferredDeletes - c0.DeferredDeletes, half},
		{"Reclaims", d.Reclaims - c0.Reclaims, 4 * half},
	} {
		if chk.got != chk.want {
			t.Errorf("%s delta = %d, want %d", chk.name, chk.got, chk.want)
		}
	}

	st := a.Stats()
	if st.LiveRegions != 1 {
		t.Errorf("LiveRegions = %d, want 1 (traditional only)", st.LiveRegions)
	}
	if st.DeferredRegions != 0 {
		t.Errorf("DeferredRegions = %d, want 0", st.DeferredRegions)
	}
	if want := int64(1 + 2*workers*rounds); st.RegionsCreated != want {
		t.Errorf("RegionsCreated = %d, want %d", st.RegionsCreated, want)
	}

	wantEvents := map[TraceKind]uint64{
		TraceRegionCreated:   uint64(1 + 2*workers*rounds),
		TraceRegionDeleted:   uint64(3 * half),
		TraceDeleteBlocked:   uint64(half),
		TraceRegionDeferred:  uint64(half),
		TraceRegionReclaimed: uint64(4 * half),
	}
	var wantTotal uint64
	for _, n := range wantEvents {
		wantTotal += n
	}
	if got := ring.Total(); got != wantTotal {
		t.Errorf("traced events = %d, want %d", got, wantTotal)
	}
	got := make(map[TraceKind]uint64)
	for _, ev := range ring.Events() {
		got[ev.Kind]++
		if ev.Region <= 1 {
			t.Errorf("event %v for region %d (traditional or invalid)", ev.Kind, ev.Region)
		}
	}
	for kind, want := range wantEvents {
		if got[kind] != want {
			t.Errorf("%v events = %d, want %d", kind, got[kind], want)
		}
	}
}

// Each lifecycle counter is the count of its event kind: one pass
// through every lifecycle transition — an owner round with a hand-off,
// a cancelled and a timed-out wait, a blocked then successful
// Owner.Delete, a revocation, a slab-backed region, a zombie and a
// DeleteDeferred on an already drained region — and the ring's count of
// each kind must equal its ArenaCounters field.
func TestLifecycleCountersAreEventCounts(t *testing.T) {
	ring := NewRingTracer(1 << 12)
	a := NewArena(WithMetrics(), WithTracer(ring), WithOffHeapSlabs())
	defer a.CloseBackingStore()
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}

	// The owner round, on a region whose one object stays pinned until
	// the second Owner.Delete.
	r := a.NewRegion()
	unpin := Pin(Alloc[traceNode](r))
	o, err := r.TryAcquire()
	must(err)
	must(o.Release())
	o, err = r.TryAcquire()
	must(err)
	got := make(chan *Owner, 1)
	go func() {
		next, err := r.AcquireContext(context.Background())
		if err != nil {
			t.Errorf("hand-off acquire: %v", err)
		}
		got <- next
	}()
	waitForWaiters(t, r, 1)
	must(o.Release())
	o = <-got
	if o == nil {
		t.FailNow()
	}
	cctx, cancel := context.WithCancel(context.Background())
	aborted := make(chan error, 1)
	go func() {
		_, err := r.AcquireContext(cctx)
		aborted <- err
	}()
	waitForWaiters(t, r, 1)
	cancel()
	if err := <-aborted; !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled acquire: %v", err)
	}
	tctx, tcancel := context.WithTimeout(context.Background(), 5*time.Millisecond)
	defer tcancel()
	if _, err := r.AcquireContext(tctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("timed-out acquire: %v", err)
	}
	if err := o.Delete(); !errors.Is(err, ErrRegionInUse) {
		t.Fatalf("pinned Owner.Delete: %v", err)
	}
	unpin()
	must(o.Delete())

	// A revoked token.
	v := a.NewRegion()
	o, err = v.TryAcquire()
	must(err)
	if !v.revokeOwner(o) {
		t.Fatal("revokeOwner found no owner")
	}
	must(v.Delete())

	// A slab-backed region spanning two pages: one slab-released event,
	// two pages released.
	sr := a.NewRegion()
	perChunk := chunkTargetBytes / int(unsafe.Sizeof(Obj[slabVal]{}))
	for i := 0; i < perChunk+1; i++ {
		Alloc[slabVal](sr)
	}
	must(sr.Delete())

	// A zombie, and a DeleteDeferred that finds its region drained.
	z := a.NewRegion()
	unpin = Pin(Alloc[traceNode](z))
	z.DeleteDeferred()
	unpin()
	d := a.NewRegion()
	d.DeleteDeferred()

	if ring.Dropped() != 0 {
		t.Fatalf("ring dropped %d events", ring.Dropped())
	}
	n := make(map[TraceKind]int64)
	for _, ev := range ring.Events() {
		n[ev.Kind]++
	}
	c := a.Counters()
	for _, chk := range []struct {
		name      string
		got, want int64
	}{
		{"Deletes", c.Deletes, n[TraceRegionDeleted]},
		{"DeletesBlocked", c.DeletesBlocked, n[TraceDeleteBlocked]},
		{"DeferredDeletes", c.DeferredDeletes, n[TraceRegionDeferred]},
		{"Reclaims", c.Reclaims, n[TraceRegionReclaimed]},
		{"Acquires", c.Acquires, n[TraceRegionAcquired]},
		{"Releases", c.Releases, n[TraceRegionReleased]},
		{"AcquireWaits", c.AcquireWaits, n[TraceAcquireBlocked]},
		{"AcquireTimeouts+AcquireCancels", c.AcquireTimeouts + c.AcquireCancels, n[TraceAcquireAborted]},
		{"OwnerRevocations", c.OwnerRevocations, n[TraceOwnerRevoked]},
		{"SlabRefills", c.SlabRefills, n[TraceSlabMapped]},
		{"SlabReleases", c.SlabReleases, c.SlabRefills},
		// The expected totals of the run above.
		{"Deletes (Owner.Delete, revoked, slab, drained DeleteDeferred)", c.Deletes, 4},
		{"DeferredDeletes (the zombie only)", c.DeferredDeletes, 1},
		{"Reclaims", c.Reclaims, c.Deletes + c.DeferredDeletes},
		{"Acquires", c.Acquires, 4},
		{"AcquireWaits", c.AcquireWaits, 3},
		{"AcquireTimeouts", c.AcquireTimeouts, 1},
		{"AcquireCancels", c.AcquireCancels, 1},
		{"SlabReleases", c.SlabReleases, 2},
		{"slab-released events", n[TraceSlabReleased], 1},
	} {
		if chk.got != chk.want {
			t.Errorf("%s = %d, want %d", chk.name, chk.got, chk.want)
		}
	}
}

// Every kind's name round-trips through MarshalText and UnmarshalText;
// an unknown name is rejected, and a kind past the table prints its
// number.
func TestTraceKindText(t *testing.T) {
	names := make(map[string]bool)
	for k := TraceKind(0); k < traceKinds; k++ {
		b, err := k.MarshalText()
		if err != nil {
			t.Fatal(err)
		}
		if names[string(b)] {
			t.Errorf("kind %d reuses the name %q", k, b)
		}
		names[string(b)] = true
		var back TraceKind
		if err := back.UnmarshalText(b); err != nil || back != k {
			t.Errorf("kind %d: %q round-trips to %d, %v", k, b, back, err)
		}
	}
	for k, want := range map[TraceKind]string{
		TraceRegionCreated: "created", TraceRegionDeleted: "deleted",
		TraceAcquireAborted: "acquire-aborted", TraceSlabReleased: "slab-released",
	} {
		if got := k.String(); got != want {
			t.Errorf("%d.String() = %q, want %q", k, got, want)
		}
	}
	var k TraceKind
	if err := k.UnmarshalText([]byte("nonesuch")); err == nil {
		t.Error("unknown kind name accepted")
	}
	if got := TraceKind(traceKinds).String(); got != "TraceKind(13)" {
		t.Errorf("TraceKind(traceKinds).String() = %q", got)
	}
}

// Metric shards start on separate cache lines.
func TestCounterShardCacheLines(t *testing.T) {
	if sz := unsafe.Sizeof(counterShard{}); sz%64 != 0 {
		t.Errorf("counterShard is %d B, not a cache-line multiple", sz)
	}
}

// A full ring keeps the newest events and reports the overwritten ones
// through Total.
func TestRingTracerWrap(t *testing.T) {
	ring := NewRingTracer(16)
	for i := 0; i < 100; i++ {
		ring.Trace(TraceEvent{Kind: TraceRegionCreated, Region: int64(i + 1)})
	}
	if ring.Total() != 100 {
		t.Fatalf("Total = %d, want 100", ring.Total())
	}
	evs := ring.Events()
	if len(evs) != 16 {
		t.Fatalf("len(Events) = %d, want 16", len(evs))
	}
	for i, ev := range evs {
		if want := uint64(84 + i); ev.Seq != want {
			t.Fatalf("event %d has seq %d, want %d", i, ev.Seq, want)
		}
	}
}

// Concurrent tracing into a shared ring: every event is assigned a
// unique sequence number and none is double-stored.
func TestRingTracerConcurrent(t *testing.T) {
	const workers = 8
	const events = 1000
	ring := NewRingTracer(workers * events)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(id int64) {
			defer wg.Done()
			for i := 0; i < events; i++ {
				ring.Trace(TraceEvent{Kind: TraceRegionCreated, Region: id})
			}
		}(int64(w + 1))
	}
	wg.Wait()
	if got := ring.Total(); got != workers*events {
		t.Fatalf("Total = %d, want %d", got, workers*events)
	}
	evs := ring.Events()
	if len(evs) != workers*events {
		t.Fatalf("len(Events) = %d, want %d", len(evs), workers*events)
	}
	perRegion := make(map[int64]int)
	for i, ev := range evs {
		if ev.Seq != uint64(i) {
			t.Fatalf("event %d has seq %d (lost or duplicated slot)", i, ev.Seq)
		}
		perRegion[ev.Region]++
	}
	for id, n := range perRegion {
		if n != events {
			t.Fatalf("region %d traced %d events, want %d", id, n, events)
		}
	}
}

// Regression: Region.Stats must return even while hot mutators keep the
// reference count churning. The re-read loop that pairs rc with the
// state word is bounded (statsRCRetries); before the bound a tight
// pin/unpin loop could starve a stats reader indefinitely.
func TestStatsNoLivelockUnderHotRC(t *testing.T) {
	const mutators = 4
	a := NewArena()
	r := a.NewRegion()
	o := Alloc[traceNode](r)

	done := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < mutators; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-done:
					return
				default:
					Pin(o)()
				}
			}
		}()
	}
	for i := 0; i < 5000; i++ {
		st := r.Stats()
		if st.RC < 0 || st.RC > mutators {
			t.Fatalf("snapshot rc = %d out of range [0, %d]", st.RC, mutators)
		}
		if st.Deleted {
			t.Fatal("snapshot reports deletion of a live region")
		}
	}
	close(done)
	wg.Wait()
}
