package rcgo

import (
	"errors"
	"runtime"
	"sync"
	"testing"
	"unsafe"
)

// Tests of the slot registry and the delete-time unscan (reclaim):
// registering a request region's counted slots allocates nothing, the
// unscan releases the registry in place and the deleting owner's parked
// slots directly, so a delete allocates nothing for its counted slots,
// every slot is released exactly once whichever way the region dies,
// and a dead region's registry keeps no slot reachable.

// unscanRegions is how many prebuilt regions each allocation guard
// deletes: enough that one stray allocation elsewhere in the process
// cannot pass for a per-delete cost.
const unscanRegions = 128

// mallocsPerCall reports the heap allocations per call of del over n
// calls, counting only the calls themselves.
func mallocsPerCall(n int, del func(i int)) float64 {
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for i := 0; i < n; i++ {
		del(i)
	}
	runtime.ReadMemStats(&after)
	return float64(after.Mallocs-before.Mallocs) / float64(n)
}

// pastInline is how many counted slots fillPastInline registers: enough
// that the registry's slice has moved off its inline block to the heap.
const pastInline = slotInline + slotInline/4

// fillPastInline stores counted cross-region references from fresh
// holders in r into target until r's registry has spilled past its
// inline block, and returns how many it stored.
func fillPastInline(r *Region, target *Obj[crossNode]) int {
	for i := 0; i < pastInline; i++ {
		h := Alloc[crossNode](r)
		MustSetRef(h, &h.Value.Other, target)
	}
	return pastInline
}

// Region.Delete's unscan allocates nothing: the registry's slice is
// released where it lies. Measured over 128 regions with ~20 counted
// slots each, when the registry was 8 shards: 4.41 allocations per
// delete when reclaim gathered every shard into a fresh slice, and 0.09
// (a dozen over the 128 deletes) with the shards released in place.
func TestDeleteUnscanDoesNotAllocate(t *testing.T) {
	a := NewArena()
	targetRegion := a.NewRegion()
	target := Alloc[crossNode](targetRegion)
	regions := make([]*Region, unscanRegions)
	slots := int64(0)
	for i := range regions {
		regions[i] = a.NewRegion()
		slots += int64(fillPastInline(regions[i], target))
	}
	if got := targetRegion.RC(); got != slots {
		t.Fatalf("target rc = %d before the deletes, want %d", got, slots)
	}
	per := mallocsPerCall(len(regions), func(i int) {
		if err := regions[i].Delete(); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("%.2f allocations per Region.Delete", per)
	if per >= 0.5 {
		t.Errorf("Region.Delete allocated %.2f times per delete, want 0", per)
	}
	if got := targetRegion.RC(); got != 0 {
		t.Fatalf("target rc = %d after the deletes, want 0", got)
	}
	if err := targetRegion.Delete(); err != nil {
		t.Fatal(err)
	}
}

// Owner.Delete's unscan allocates nothing: 16 SetRefOwned slots per
// region fit in the registry's inline block. Measured over 128 owned
// regions: 16.07 allocations per delete when Owner.Delete merged slots
// parked on the token into the registry shards (each shard's slice
// grown from nil by the merge, then gathered again by reclaim), 0.09
// once the parked slots were released directly, and none to release
// since owned stores register in the registry itself.
func TestOwnerDeleteUnscanDoesNotAllocate(t *testing.T) {
	const parked = 16
	a := NewArena()
	targetRegion := a.NewRegion()
	target := Alloc[crossNode](targetRegion)
	owners := make([]*Owner, unscanRegions)
	for i := range owners {
		owners[i] = a.NewRegion().Acquire()
		for j := 0; j < parked; j++ {
			h := AllocOwned[crossNode](owners[i])
			if err := SetRefOwned(owners[i], h, &h.Value.Other, target); err != nil {
				t.Fatal(err)
			}
		}
	}
	per := mallocsPerCall(len(owners), func(i int) {
		if err := owners[i].Delete(); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("%.2f allocations per Owner.Delete", per)
	if per >= 0.5 {
		t.Errorf("Owner.Delete allocated %.2f times per delete, want 0", per)
	}
	if got := targetRegion.RC(); got != 0 {
		t.Fatalf("target rc = %d after the deletes, want 0", got)
	}
	if err := targetRegion.Delete(); err != nil {
		t.Fatal(err)
	}
}

// An Owner.Delete that fails ErrRegionInUse leaves the owned stores'
// slots in the region's registry and nothing on the still-valid token;
// once the blocking pin is gone, a second Owner.Delete — or a Release
// then a shared Delete — releases each slot exactly once. A goroutine
// keeps taking and dropping pins on the targets throughout, so under
// -race the unscan's releases race other decrements of the same counts.
func TestFailedOwnerDeleteSlotsReleasedOnce(t *testing.T) {
	const targets, parked = 4, 24
	for _, tc := range []struct {
		name    string
		release bool
	}{
		{"owner-delete", false},
		{"release-then-delete", true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			a := NewArena(WithMetrics())
			tregions := make([]*Region, targets)
			tobjs := make([]*Obj[crossNode], targets)
			unpinTargets := make([]func(), targets)
			baseline := make([]int64, targets)
			for i := range tregions {
				tregions[i] = a.NewRegion()
				tobjs[i] = Alloc[crossNode](tregions[i])
				unpinTargets[i] = Pin(tobjs[i])
				baseline[i] = tregions[i].RC()
			}

			r := a.NewRegion()
			unpin := Pin(Alloc[crossNode](r)) // blocks the first Owner.Delete
			own := r.Acquire()
			for j := 0; j < parked; j++ {
				h := AllocOwned[crossNode](own)
				if err := SetRefOwned(own, h, &h.Value.Other, tobjs[j%targets]); err != nil {
					t.Fatal(err)
				}
			}
			for i, tr := range tregions {
				if got, want := tr.RC(), baseline[i]+parked/targets; got != want {
					t.Fatalf("target %d rc = %d after the owned stores, want %d", i, got, want)
				}
			}

			// stopPins runs at the latest when the subtest returns, so a
			// failed assert cannot leave the goroutine pinning into the
			// tests that follow.
			stop := make(chan struct{})
			var wg sync.WaitGroup
			stopPins := sync.OnceFunc(func() { close(stop); wg.Wait() })
			defer stopPins()
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					select {
					case <-stop:
						return
					default:
					}
					for _, o := range tobjs {
						unpinT, err := TryPin(o)
						if err != nil {
							t.Error(err)
							return
						}
						runtime.Gosched()
						unpinT()
					}
				}
			}()

			// Step 1: the pin on r blocks the delete; the owned stores'
			// slots stay in the registry.
			if err := own.Delete(); !errors.Is(err, ErrRegionInUse) {
				t.Fatalf("Owner.Delete under a pin: %v, want ErrRegionInUse", err)
			}
			if !r.Owned() || own.Region() != r {
				t.Fatal("failed Owner.Delete ended ownership")
			}
			if n := len(r.slots.snapshot()); n != parked {
				t.Fatalf("registry lists %d slots after the failed delete, want %d", n, parked)
			}
			// Step 2: unpin, then delete for real.
			unpin()
			if tc.release {
				if err := own.Release(); err != nil {
					t.Fatal(err)
				}
				if err := r.Delete(); err != nil {
					t.Fatal(err)
				}
			} else if err := own.Delete(); err != nil {
				t.Fatal(err)
			}
			stopPins()

			for i, tr := range tregions {
				if got := tr.RC(); got != baseline[i] {
					t.Errorf("target %d rc = %d after the delete, want its baseline %d", i, got, baseline[i])
				}
			}
			if rep := a.Audit(); !rep.OK {
				t.Fatalf("audit: %s", rep)
			}
			for i, tr := range tregions {
				unpinTargets[i]()
				if err := tr.Delete(); err != nil {
					t.Fatalf("target %d: %v", i, err)
				}
			}
			if rep := a.Audit(); !rep.OK {
				t.Fatalf("audit after the targets' deletes: %s", rep)
			}
		})
	}
}

// A request region's counted stores allocate nothing: its 13 slots (the
// BenchmarkRegionRequest shape, 4 into another region and 9 inside the
// request) fit in the registry's inline block. Measured over 128
// regions: 4.82 allocations per region when the registry was 8 shards,
// each allocating a block on its first registration.
func TestRequestSetRefsDoNotAllocate(t *testing.T) {
	const nodes, cross, local = 11, 4, 9
	a := NewArena()
	srv := a.NewRegion()
	conf := Alloc[crossNode](srv)
	holders := make([][nodes]*Obj[crossNode], unscanRegions)
	regions := make([]*Region, unscanRegions)
	for i := range regions {
		regions[i] = a.NewRegion()
		for k := range holders[i] {
			holders[i][k] = Alloc[crossNode](regions[i])
		}
	}
	per := mallocsPerCall(len(regions), func(i int) {
		ns := &holders[i]
		for k := 0; k < cross; k++ {
			MustSetRef(ns[k], &ns[k].Value.Other, conf)
		}
		for k := 0; k < local; k++ {
			h := ns[(cross+k)%nodes]
			MustSetRef(h, &h.Value.Up, ns[k])
		}
	})
	t.Logf("%.2f allocations per region of %d SetRefs", per, cross+local)
	if per >= 0.5 {
		t.Errorf("registering %d counted slots allocated %.2f times per region, want 0", cross+local, per)
	}
	for _, r := range regions {
		if err := r.Delete(); err != nil {
			t.Fatal(err)
		}
	}
	if got := srv.RC(); got != 0 {
		t.Fatalf("server rc = %d after the deletes, want 0", got)
	}
}

// A dead region's registry holds nothing: its slice is nil and every
// inline entry is cleared, whichever way it died and whether or not the
// slice had grown past the inline block (leaving stale copies of the
// first entries there). A dead region stays reachable from its
// chunk-mates' Obj.region once the chunk is reused, so an entry left
// behind would keep its slot's chunk, and the dead regions that chunk
// names, alive.
func TestDeadRegionRegistryRetainsNothing(t *testing.T) {
	for _, n := range []int{slotInline / 2, slotInline, pastInline} {
		for _, tc := range []struct {
			name string
			kill func(t *testing.T, r *Region, target *Obj[crossNode])
		}{
			{"delete", func(t *testing.T, r *Region, target *Obj[crossNode]) {
				if err := r.Delete(); err != nil {
					t.Fatal(err)
				}
			}},
			{"deferred-drain", func(t *testing.T, r *Region, target *Obj[crossNode]) {
				unpin := Pin(Alloc[crossNode](r))
				r.DeleteDeferred()
				if r.Stats().Reclaimed {
					t.Fatal("pinned region reclaimed at DeleteDeferred")
				}
				unpin()
			}},
			{"owner-delete", func(t *testing.T, r *Region, target *Obj[crossNode]) {
				o := r.Acquire()
				h := AllocOwned[crossNode](o)
				if err := SetRefOwned(o, h, &h.Value.Other, target); err != nil {
					t.Fatal(err)
				}
				if err := o.Delete(); err != nil {
					t.Fatal(err)
				}
			}},
		} {
			a := NewArena()
			targetRegion := a.NewRegion()
			target := Alloc[crossNode](targetRegion)
			r := a.NewRegion()
			for i := 0; i < n; i++ {
				h := Alloc[crossNode](r)
				MustSetRef(h, &h.Value.Other, target)
			}
			tc.kill(t, r, target)
			if !r.Stats().Reclaimed {
				t.Fatalf("%s, %d slots: region not reclaimed", tc.name, n)
			}
			if r.slots.list != nil {
				t.Errorf("%s, %d slots: registry slice still holds %d entries", tc.name, n, len(r.slots.list))
			}
			for i, s := range r.slots.inline {
				if s != nil {
					t.Errorf("%s, %d slots: inline entry %d still set", tc.name, n, i)
				}
			}
			if got := targetRegion.RC(); got != 0 {
				t.Errorf("%s, %d slots: target rc = %d, want 0", tc.name, n, got)
			}
		}
	}
}

// A counted slot toggled between nil and an external target is
// registered each time it fills, on the shared and the owned path
// alike, so its holder's registry must compact rather than grow: 10,000
// round trips on each path leave at most 2*slotInline entries, the
// audit counts the slot once, and the unscan releases it once.
func TestRegistryStaysBounded(t *testing.T) {
	const rounds = 10000
	a := NewArena()
	tr := a.NewRegion()
	target := Alloc[crossNode](tr)
	hr := a.NewRegion()
	h := Alloc[crossNode](hr)
	for i := 0; i < rounds; i++ {
		MustSetRef(h, &h.Value.Other, target)
		MustSetRef(h, &h.Value.Other, nil)
	}
	MustSetRef(h, &h.Value.Other, target)
	if n := len(hr.slots.list); n > 2*slotInline {
		t.Fatalf("shared path: registry holds %d entries after %d toggles, want <= %d", n, rounds, 2*slotInline)
	}
	o := hr.Acquire()
	for i := 0; i < rounds; i++ {
		if err := SetRefOwned(o, h, &h.Value.Other, nil); err != nil {
			t.Fatal(err)
		}
		if err := SetRefOwned(o, h, &h.Value.Other, target); err != nil {
			t.Fatal(err)
		}
	}
	if n := len(hr.slots.list); n > 2*slotInline {
		t.Fatalf("owned path: registry holds %d entries after %d toggles, want <= %d", n, rounds, 2*slotInline)
	}
	if err := o.Release(); err != nil {
		t.Fatal(err)
	}
	if n := len(hr.slots.list); n > 2*slotInline {
		t.Fatalf("after Release: registry holds %d entries, want <= %d", n, 2*slotInline)
	}
	// One more round trip lists the slot again; the counting scans
	// must still see it once.
	MustSetRef(h, &h.Value.Other, nil)
	MustSetRef(h, &h.Value.Other, target)
	if n := len(hr.slots.snapshot()); n != 1 {
		t.Fatalf("snapshot lists %d slots, want 1", n)
	}
	if rep := a.Audit(); !rep.OK {
		t.Fatalf("audit: %s", rep)
	}
	if got := tr.RC(); got != 1 {
		t.Fatalf("target rc = %d, want 1", got)
	}
	if err := hr.Delete(); err != nil {
		t.Fatal(err)
	}
	if got := tr.RC(); got != 0 {
		t.Fatalf("target rc = %d after the holder's delete, want 0", got)
	}
}

// The registry's inline entries keep Region under 512 B, the size past
// which Go puts a malloc header on every pointer-holding object.
func TestRegionBelowMallocHeader(t *testing.T) {
	if got := unsafe.Sizeof(Region{}); got > 512 {
		t.Fatalf("Region is %d B, want <= 512", got)
	}
}

// Region fits the 416 B size class: one request region is one
// allocation, and the next class up is 448 B. acquirePCN fills the hole
// after state, and the count gate's noRecycle the ledger's padding.
func TestRegionInSizeClass416(t *testing.T) {
	if got := unsafe.Sizeof(Region{}); got > 416 {
		t.Fatalf("Region is %d B, want <= 416", got)
	}
}

// A registry entry is the slot's word, one machine word: 1,440 counted
// slots from one region's objects leave a list of at most 1.3 × 1,440
// words, growth slack included.
func TestRegistryBytesPerSlot(t *testing.T) {
	const slots = 1440
	a := NewArena()
	target := Alloc[crossNode](a.NewRegion())
	r := a.NewRegion()
	for i := 0; i < slots; i++ {
		h := Alloc[crossNode](r)
		MustSetRef(h, &h.Value.Other, target)
	}
	list := r.slots.list
	if len(list) != slots {
		t.Fatalf("registry lists %d slots, want %d", len(list), slots)
	}
	word := unsafe.Sizeof(uintptr(0))
	if got, limit := uintptr(cap(list))*unsafe.Sizeof(list[0]), uintptr(1.3*slots)*word; got > limit {
		t.Fatalf("registry holds %d B for %d slots, want <= %d B", got, slots, limit)
	}
}
