package rcgo

// Tests for the off-heap slab backing store integration
// (region_slab.go): the pointer-free admission gate, page return at
// reclaim, the error paths' unwrap chains (injected map failures,
// refusing and capped stores, use after close), close idempotence, the
// /slabs inspector endpoint, the slab audit rules, a region that
// interleaves two types, a churn stress whose judge is zero leaked
// pages (run under -race by make race), the allocations a
// grobner-shaped region costs once its exhausted heap chunks are
// recycled, and what a stale handle into a recycled chunk reads.

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"unsafe"

	"rcgo/internal/failpoint"
	"rcgo/internal/slab"
)

// slabVal is pointer-free: the admission gate must slab-back it.
type slabVal struct {
	A, B int64
	Pad  [4]int64
}

// slabRefVal carries a Ref (an atomic pointer): the gate must refuse it.
type slabRefVal struct {
	N    int64
	Next Ref[slabRefVal]
}

func TestSlabEligibility(t *testing.T) {
	cases := []struct {
		name string
		got  bool
		want bool
	}{
		{"pointer-free struct", chunkSlabEligible[slabVal](), true},
		{"int", chunkSlabEligible[int](), true},
		{"array of float", chunkSlabEligible[[8]float64](), true},
		{"ref field", chunkSlabEligible[slabRefVal](), false},
		{"string", chunkSlabEligible[string](), false},
		{"slice", chunkSlabEligible[[]int](), false},
		{"pointer", chunkSlabEligible[*int](), false},
		{"map", chunkSlabEligible[map[int]int](), false},
	}
	for _, c := range cases {
		if c.got != c.want {
			t.Errorf("chunkSlabEligible(%s) = %v, want %v", c.name, c.got, c.want)
		}
	}
}

func TestSlabBackedAllocAndReclaim(t *testing.T) {
	ring := NewRingTracer(1 << 10)
	a := NewArena(WithOffHeapSlabs(), WithMetrics(), WithTracer(ring))
	defer a.CloseBackingStore()

	r := a.NewRegion()
	// Enough objects to span several chunks.
	perChunk := chunkTargetBytes / int(unsafe.Sizeof(Obj[slabVal]{}))
	for i := 0; i < 3*perChunk; i++ {
		o := Alloc[slabVal](r)
		o.Value.A = int64(i)
	}
	ss, ok := a.SlabStats()
	if !ok {
		t.Fatal("SlabStats: no store attached")
	}
	if ss.InUsePages < 3 {
		t.Fatalf("InUsePages = %d after 3 chunks' worth of allocs, want >= 3", ss.InUsePages)
	}
	if got := r.slabPageCount(); got != ss.InUsePages {
		t.Fatalf("region tracks %d pages, store reports %d in use", got, ss.InUsePages)
	}
	if rep := a.Audit(); !rep.OK {
		t.Fatalf("audit with live slab pages: %s", rep)
	}

	// A pointer-carrying payload in the same region must ride the
	// GC-heap chunk path without adding pages.
	before := ss.InUsePages
	for i := 0; i < perChunk; i++ {
		Alloc[slabRefVal](r)
	}
	if ss, _ = a.SlabStats(); ss.InUsePages != before {
		t.Fatalf("Ref-carrying payload changed InUsePages %d -> %d", before, ss.InUsePages)
	}

	// Reclaim returns every page immediately.
	if err := r.Delete(); err != nil {
		t.Fatal(err)
	}
	ss, _ = a.SlabStats()
	if ss.InUsePages != 0 {
		t.Fatalf("InUsePages = %d after delete, want 0", ss.InUsePages)
	}
	if ss.FreePages == 0 {
		t.Fatal("FreePages = 0 after delete — pages were not returned")
	}
	c := a.Counters()
	if c.SlabRefills == 0 || c.SlabRefills != c.SlabReleases {
		t.Fatalf("refills=%d releases=%d, want equal and nonzero", c.SlabRefills, c.SlabReleases)
	}
	var mapped, released int
	for _, ev := range ring.Events() {
		switch ev.Kind {
		case TraceSlabMapped:
			mapped++
		case TraceSlabReleased:
			released++
		}
	}
	if mapped == 0 || released == 0 {
		t.Fatalf("trace saw %d slab-mapped and %d slab-released events, want both nonzero", mapped, released)
	}
}

func TestSlabMapFailpointUnwrapChain(t *testing.T) {
	a := NewArena(WithOffHeapSlabs())
	defer a.CloseBackingStore()
	r := a.NewRegion()
	defer r.Delete()

	if err := failpoint.Enable("rcgo/slab.map", failpoint.Rule{Action: failpoint.ActionError}); err != nil {
		t.Fatal(err)
	}
	_, err := TryAlloc[slabVal](r)
	failpoint.DisableAll()
	if !errors.Is(err, ErrInjected) {
		t.Fatalf("TryAlloc under rcgo/slab.map = %v, want unwrap chain to reach ErrInjected", err)
	}
	// Heap-chunked payloads never evaluate the site.
	if err := failpoint.Enable("rcgo/slab.map", failpoint.Rule{Action: failpoint.ActionError}); err != nil {
		t.Fatal(err)
	}
	defer failpoint.DisableAll()
	if _, err := TryAlloc[slabRefVal](r); err != nil {
		t.Fatalf("heap-chunk TryAlloc tripped the slab failpoint: %v", err)
	}
}

// refusingStore fails every Alloc with a wrapped store error: the
// runtime must fall back to GC-heap chunks and never surface it.
type refusingStore struct{ closed bool }

func (s *refusingStore) Alloc(size int) (unsafe.Pointer, error) {
	return nil, fmt.Errorf("refusing %d bytes: %w", size, slab.ErrMapFailed)
}
func (s *refusingStore) Free(p unsafe.Pointer, size int) {}
func (s *refusingStore) Stats() SlabStats                { return SlabStats{} }
func (s *refusingStore) Close() error                    { s.closed = true; return nil }

func TestSlabStoreRefusalFallsBackToHeap(t *testing.T) {
	rs := &refusingStore{}
	a := NewArena(WithBackingStore(rs))
	r := a.NewRegion()
	for i := 0; i < 100; i++ {
		if _, err := TryAlloc[slabVal](r); err != nil {
			t.Fatalf("alloc %d: refusal must fall back to heap chunks, got %v", i, err)
		}
	}
	if got := r.Objects(); got != 100 {
		t.Fatalf("Objects = %d, want 100", got)
	}
	if err := r.Delete(); err != nil {
		t.Fatal(err)
	}
	if err := a.CloseBackingStore(); err != nil || !rs.closed {
		t.Fatalf("CloseBackingStore = %v (closed=%v)", err, rs.closed)
	}
}

func TestSlabCappedStoreExhaustion(t *testing.T) {
	// One segment, two pages: the third carve hits ErrExhausted and the
	// runtime quietly switches that region to heap chunks.
	store := slab.New(slab.Config{MaxBytes: 64 << 10, SegmentBytes: 64 << 10})
	a := NewArena(WithBackingStore(slabStore{s: store}))
	defer a.CloseBackingStore()
	r := a.NewRegion()
	perChunk := chunkTargetBytes / int(unsafe.Sizeof(Obj[slabVal]{}))
	for i := 0; i < 32*perChunk; i++ {
		if _, err := TryAlloc[slabVal](r); err != nil {
			t.Fatalf("alloc %d past exhaustion: %v", i, err)
		}
	}
	ss, _ := a.SlabStats()
	if ss.InUsePages == 0 {
		t.Fatal("capped store carved nothing before exhausting")
	}
	if err := r.Delete(); err != nil {
		t.Fatal(err)
	}
	if ss, _ = a.SlabStats(); ss.InUsePages != 0 {
		t.Fatalf("InUsePages = %d after delete, want 0", ss.InUsePages)
	}
}

func TestSlabCloseIdempotentAndUseAfterClose(t *testing.T) {
	a := NewArena(WithOffHeapSlabs())
	r := a.NewRegion()
	Alloc[slabVal](r)
	if err := r.Delete(); err != nil {
		t.Fatal(err)
	}
	if err := a.CloseBackingStore(); err != nil {
		t.Fatalf("first close: %v", err)
	}
	if err := a.CloseBackingStore(); err != nil {
		t.Fatalf("second close: %v", err)
	}
	// Allocation against a closed store degrades to heap chunks; the
	// region still works and its delete (whose page list is empty —
	// nothing was carved) is clean.
	r2 := a.NewRegion()
	for i := 0; i < 50; i++ {
		if _, err := TryAlloc[slabVal](r2); err != nil {
			t.Fatalf("alloc after close: %v", err)
		}
	}
	if err := r2.Delete(); err != nil {
		t.Fatal(err)
	}
	// No store at all: CloseBackingStore is a nil no-op.
	if err := NewArena().CloseBackingStore(); err != nil {
		t.Fatalf("close without store: %v", err)
	}
}

// lyingStore wraps a real store but inflates InUsePages: the auditor's
// slab-pages-total rule must flag the mismatch against the per-region
// page lists.
type lyingStore struct {
	BackingStore
	inflate int64
}

func (s *lyingStore) Stats() SlabStats {
	st := s.BackingStore.Stats()
	st.InUsePages += s.inflate
	return st
}

func TestSlabAuditRules(t *testing.T) {
	ls := &lyingStore{BackingStore: NewSlabStore()}
	a := NewArena(WithBackingStore(ls))
	defer a.CloseBackingStore()
	r := a.NewRegion()
	Alloc[slabVal](r)
	defer r.Delete()

	if rep := a.Audit(); !rep.OK {
		t.Fatalf("audit of honest store: %s", rep)
	}
	ls.inflate = 3
	rep := a.Audit()
	if rep.OK {
		t.Fatal("audit accepted a store whose InUsePages disagrees with the region page lists")
	}
	found := false
	for _, v := range rep.Violations {
		if v.Rule == AuditSlabPagesTotal {
			found = true
		}
	}
	if !found {
		t.Fatalf("expected %s violation, got: %s", AuditSlabPagesTotal, rep)
	}
}

func TestSlabsEndpoint(t *testing.T) {
	get := func(t *testing.T, srv *httptest.Server) SlabsReport {
		t.Helper()
		resp, err := http.Get(srv.URL + "/slabs")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET /slabs: status %d", resp.StatusCode)
		}
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		var rep SlabsReport
		if err := json.Unmarshal(body, &rep); err != nil {
			t.Fatalf("GET /slabs: %v in %s", err, body)
		}
		return rep
	}

	t.Run("disabled", func(t *testing.T) {
		a := NewArena()
		srv := httptest.NewServer(a.DebugHandler())
		defer srv.Close()
		if rep := get(t, srv); rep.Enabled {
			t.Fatal("/slabs reports Enabled on a storeless arena")
		}
	})

	t.Run("enabled", func(t *testing.T) {
		a := NewArena(WithOffHeapSlabs())
		defer a.CloseBackingStore()
		r := a.NewRegion()
		defer r.Delete()
		Alloc[slabVal](r)
		srv := httptest.NewServer(a.DebugHandler())
		defer srv.Close()
		rep := get(t, srv)
		if !rep.Enabled {
			t.Fatal("/slabs reports Disabled with a store attached")
		}
		if rep.Stats.InUsePages == 0 {
			t.Fatalf("/slabs reports 0 in-use pages, want > 0: %+v", rep)
		}
		found := false
		for _, row := range rep.Regions {
			if row.ID == r.ID() && row.Pages > 0 {
				found = true
			}
		}
		if !found {
			t.Fatalf("/slabs region rows missing region %d: %+v", r.ID(), rep.Regions)
		}
	})
}

func TestSlabTraceKindsRoundTrip(t *testing.T) {
	for kind, want := range map[TraceKind]string{
		TraceSlabMapped:   "slab-mapped",
		TraceSlabReleased: "slab-released",
	} {
		if got := kind.String(); got != want {
			t.Errorf("TraceKind(%d).String() = %q, want %q", kind, got, want)
		}
		var back TraceKind
		if err := back.UnmarshalText([]byte(want)); err != nil {
			t.Errorf("UnmarshalText(%q): %v", want, err)
		} else if back != kind {
			t.Errorf("UnmarshalText(%q) = %d, want %d", want, back, kind)
		}
	}
}

// A region alternating a pointer-carrying type with a pointer-free one
// keeps both chunks parked in their own slots, so the slab side carves
// one page per chunk's worth of coefficients, not one page per type
// switch.
func TestSlabInterleavedTypesShareNoSlot(t *testing.T) {
	a := NewArena(WithOffHeapSlabs(), WithMetrics())
	defer a.CloseBackingStore()
	r := a.NewRegion()

	perChunk := chunkTargetBytes / int(unsafe.Sizeof(Obj[coefShape]{}))
	n := 3*perChunk + 1
	for i := 0; i < n; i++ {
		Alloc[termShape](r).Value.val = int64(i)
		Alloc[coefShape](r).Value.c[0] = int64(i)
	}
	want := int64((n + perChunk - 1) / perChunk)
	if got := a.Counters().SlabRefills; got != want {
		t.Fatalf("SlabRefills = %d for %d interleaved coefficients, want %d (one page per %d)", got, n, want, perChunk)
	}
	if got := r.slabPageCount(); got != want {
		t.Fatalf("region tracks %d slab pages, want %d", got, want)
	}
	if err := r.Delete(); err != nil {
		t.Fatal(err)
	}
	c := a.Counters()
	if c.SlabReleases != want {
		t.Fatalf("SlabReleases = %d after delete, want %d", c.SlabReleases, want)
	}
	if ss, _ := a.SlabStats(); ss.InUsePages != 0 {
		t.Fatalf("InUsePages = %d after delete, want 0", ss.InUsePages)
	}
}

// The heap-only twin: with no backing store both types take GC-heap
// chunks, and each type switch must leave the other type's chunk parked
// where it was rather than displacing it to its pool. The chunks come
// from process-wide pools, so one may arrive nearly used: a slot may
// change only to refill after its chunk is exhausted.
func TestHeapInterleavedTypesStayParked(t *testing.T) {
	a := NewArena()
	r := a.NewRegion()
	termSlot := &r.chunkPark[chunkParkSlot(unsafe.Sizeof(Obj[termShape]{}))]
	coefSlot := &r.chunkPark[chunkParkSlot(unsafe.Sizeof(Obj[coefShape]{}))]

	var term, coef *chunkBox
	for i := 0; i < 100; i++ {
		Alloc[termShape](r)
		Alloc[coefShape](r)
		term = stillParked[termShape](t, i, termSlot, term)
		coef = stillParked[coefShape](t, i, coefSlot, coef)
	}
	if err := r.Delete(); err != nil {
		t.Fatal(err)
	}
}

// stillParked checks one type switch: slot must still hold prev, the T
// chunk parked before the switch, unless prev was exhausted and the
// slot was refilled with another T chunk (or left empty). It returns
// the chunk parked now.
func stillParked[T any](t *testing.T, i int, slot *atomic.Pointer[chunkBox], prev *chunkBox) *chunkBox {
	t.Helper()
	cur := slot.Load()
	if cur == prev {
		return cur
	}
	if prev != nil {
		if ch := prev.c.(*objChunk[T]); ch.next.Load() < int64(len(ch.buf)) {
			t.Fatalf("switch %d displaced a parked chunk", i)
		}
	}
	if cur != nil {
		if _, ok := cur.c.(*objChunk[T]); !ok {
			t.Fatalf("switch %d: slot holds a %T, want a %T", i, cur.c, (*objChunk[T])(nil))
		}
	}
	return cur
}

// TestSlabChurnZeroLeaks is the stress judge (run under -race by make
// race): workers churn create/populate/delete against a slab arena,
// racing region reclaim's immediate page return against concurrent
// carves, and at quiesce the store must report zero in-use pages with
// refills and releases balanced exactly.
func TestSlabChurnZeroLeaks(t *testing.T) {
	a := NewArena(WithOffHeapSlabs(), WithMetrics())
	defer a.CloseBackingStore()

	workers, rounds := 8, 60
	if testing.Short() {
		workers, rounds = 4, 20
	}
	perChunk := chunkTargetBytes / int(unsafe.Sizeof(Obj[slabVal]{}))
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				r := a.NewRegion()
				for n := 0; n < 2*perChunk+w; n++ {
					o, err := TryAlloc[slabVal](r)
					if err != nil {
						errs <- err
						return
					}
					o.Value.A, o.Value.B = int64(n), int64(w)
				}
				if i%2 == 0 {
					if err := r.Delete(); err != nil {
						errs <- err
						return
					}
				} else {
					r.DeleteDeferred()
				}
			}
		}(w)
	}
	wg.Wait()
	select {
	case err := <-errs:
		t.Fatal(err)
	default:
	}
	if rep := a.Audit(); !rep.OK {
		t.Fatalf("quiesced audit: %s", rep)
	}
	if got := a.LiveObjects(); got != 0 {
		t.Fatalf("LiveObjects = %d, want 0", got)
	}
	ss, _ := a.SlabStats()
	if ss.InUsePages != 0 {
		t.Fatalf("leaked %d slab pages at quiesce", ss.InUsePages)
	}
	c := a.Counters()
	if c.SlabRefills == 0 || c.SlabRefills != c.SlabReleases {
		t.Fatalf("refills=%d releases=%d, want equal and nonzero", c.SlabRefills, c.SlabReleases)
	}
}

// churnRegion builds and deletes one grobner-shaped region: 880 terms
// linked into a list by SetSame, interleaved with 80 pointer-free
// coefficients (slab-backed on an arena with a backing store).
func churnRegion(a *Arena) error {
	r := a.NewRegion()
	var prev *Obj[termShape]
	for i := 0; i < 880; i++ {
		t, err := TryAlloc[termShape](r)
		if err != nil {
			return err
		}
		t.Value.val = int64(i)
		if prev != nil {
			if err := SetSame(prev, &prev.Value.next, t); err != nil {
				return err
			}
		}
		prev = t
		if i%11 == 0 {
			c, err := TryAlloc[coefShape](r)
			if err != nil {
				return err
			}
			c.Value.c[i%4] = int64(i)
		}
	}
	return r.Delete()
}

// On a slab arena a dead region's exhausted term chunks come back
// zeroed through their pool, so in steady state a grobner-shaped region
// costs three allocations: the Region, its slab chunk and the ledger's
// page list. Without recycling it cost 8. A default arena leaves the
// exhausted chunks to the collector and recycles none.
func TestChurnSlabSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector drops sync.Pool puts at random, so chunk refills allocate")
	}
	for _, tc := range []struct {
		name     string
		opts     []Option
		max      float64
		recycles bool
	}{
		{"slab", []Option{WithOffHeapSlabs(), WithMetrics()}, 3, true},
		{"default", []Option{WithMetrics()}, 8, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			a := NewArena(tc.opts...)
			defer a.CloseBackingStore()
			for i := 0; i < 10; i++ {
				if err := churnRegion(a); err != nil {
					t.Fatal(err)
				}
			}
			n := testing.AllocsPerRun(50, func() {
				if err := churnRegion(a); err != nil {
					t.Fatal(err)
				}
			})
			if n > tc.max {
				t.Errorf("%.1f allocations per region, want <= %v", n, tc.max)
			}
			if got := a.Counters().ChunksRecycled; (got > 0) != tc.recycles {
				t.Errorf("ChunksRecycled = %d, want recycling %v", got, tc.recycles)
			}
		})
	}
}

// A stale *Obj into a recycled heap chunk reads whatever the chunk's
// next region put there, as a stale handle into a recycled slab page
// does (DESIGN.md §16). On a default arena the chunk is never recycled,
// so the stale handle keeps its dead header and Use panics.
func TestStaleHandleIntoRecycledChunk(t *testing.T) {
	t.Run("slab", func(t *testing.T) {
		a := NewArena(WithOffHeapSlabs())
		defer a.CloseBackingStore()
		r := a.NewRegion()
		ch, stale := fillRecTerms(t, r, nil)
		if err := r.Delete(); err != nil {
			t.Fatal(err)
		}
		if ch.next.Load() != 0 {
			t.Fatal("the exhausted chunk was not recycled")
		}
		r2 := a.NewRegion()
		defer r2.Delete()
		for i := 0; i < 2*len(ch.buf); i++ {
			o := Alloc[recTerm](r2)
			o.Value.val = -7
			if o == stale {
				if v := stale.Use(); v.val != -7 || stale.Region() != r2 {
					t.Fatalf("stale handle reads val=%d in region %p, want the new object's -7 in %p", v.val, stale.Region(), r2)
				}
				return
			}
		}
		if !raceEnabled {
			t.Fatal("the recycled chunk never came back out of its pool")
		}
		t.Log("the race detector dropped the recycled chunk's pool put")
	})
	t.Run("default", func(t *testing.T) {
		a := NewArena()
		r := a.NewRegion()
		_, stale := fillRecTerms(t, r, nil)
		if err := r.Delete(); err != nil {
			t.Fatal(err)
		}
		defer func() {
			if recover() == nil {
				t.Fatal("Use of a stale handle on a default arena did not panic")
			}
		}()
		stale.Use()
	})
}
