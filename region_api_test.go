package rcgo

import (
	"errors"
	"math/rand"
	"testing"
)

type listNode struct {
	Next Ref[listNode] // same-region link
	Data int
}

type crossNode struct {
	Other Ref[crossNode] // counted link
	Up    Ref[crossNode] // parent link
}

// crossStores is every shared store flavour over crossNode, in
// StoreFlavour order, for tables that hold all four to one rule.
var crossStores = []struct {
	flavour StoreFlavour
	set     func(*Obj[crossNode], *Ref[crossNode], *Obj[crossNode]) error
}{
	{FlavourSame, SetSame[crossNode, crossNode]},
	{FlavourTrad, SetTrad[crossNode, crossNode]},
	{FlavourParent, SetParent[crossNode, crossNode]},
	{FlavourRef, SetRef[crossNode, crossNode]},
}

// slotFor picks n's slot for a store of flavour f: the counted link for
// SetRef, the annotated one otherwise (a slot keeps one flavour).
func slotFor(n *Obj[crossNode], f StoreFlavour) *Ref[crossNode] {
	if f == FlavourRef {
		return &n.Value.Other
	}
	return &n.Value.Up
}

func TestArenaBasics(t *testing.T) {
	a := NewArena()
	r := a.NewRegion()
	n := Alloc[listNode](r)
	n.Value.Data = 42
	if n.Region() != r {
		t.Fatal("Region() wrong")
	}
	if *&n.Use().Data != 42 {
		t.Fatal("Use() wrong")
	}
	if a.LiveObjects() != 1 || r.Objects() != 1 {
		t.Fatal("object accounting wrong")
	}
	if err := r.Delete(); err != nil {
		t.Fatal(err)
	}
	if a.LiveObjects() != 0 {
		t.Fatal("live objects after delete")
	}
}

func TestUseAfterDeletePanics(t *testing.T) {
	a := NewArena()
	r := a.NewRegion()
	n := Alloc[listNode](r)
	if err := r.Delete(); err != nil {
		t.Fatal(err)
	}
	defer func() {
		if recover() == nil {
			t.Error("Use after delete did not panic")
		}
	}()
	n.Use()
}

func TestSetRefCounts(t *testing.T) {
	a := NewArena()
	r1 := a.NewRegion()
	r2 := a.NewRegion()
	x := Alloc[crossNode](r1)
	y := Alloc[crossNode](r2)
	if err := SetRef(x, &x.Value.Other, y); err != nil {
		t.Fatal(err)
	}
	if r2.RC() != 1 {
		t.Fatalf("r2.RC = %d, want 1", r2.RC())
	}
	if err := r2.Delete(); !errors.Is(err, ErrRegionInUse) {
		t.Fatalf("Delete of referenced region: %v", err)
	}
	if err := SetRef(x, &x.Value.Other, nil); err != nil {
		t.Fatal(err)
	}
	if r2.RC() != 0 {
		t.Fatalf("r2.RC after clearing = %d", r2.RC())
	}
	if err := r2.Delete(); err != nil {
		t.Fatal(err)
	}
	if err := r1.Delete(); err != nil {
		t.Fatal(err)
	}
}

func TestSetRefInternalNotCounted(t *testing.T) {
	a := NewArena()
	r := a.NewRegion()
	x := Alloc[crossNode](r)
	y := Alloc[crossNode](r)
	MustSetRef(x, &x.Value.Other, y)
	MustSetRef(y, &y.Value.Other, x) // internal cycle: never counted
	if r.RC() != 0 {
		t.Fatalf("internal refs counted: RC = %d", r.RC())
	}
	if err := r.Delete(); err != nil {
		t.Fatal(err)
	}
}

func TestSetSame(t *testing.T) {
	a := NewArena()
	r1 := a.NewRegion()
	r2 := a.NewRegion()
	x := Alloc[listNode](r1)
	y := Alloc[listNode](r1)
	z := Alloc[listNode](r2)
	if err := SetSame(x, &x.Value.Next, y); err != nil {
		t.Fatal(err)
	}
	if err := SetSame(x, &x.Value.Next, nil); err != nil {
		t.Fatal(err)
	}
	if err := SetSame(x, &x.Value.Next, z); !errors.Is(err, ErrBadRef) {
		t.Fatalf("cross-region sameregion store: %v", err)
	}
	if r1.RC() != 0 && r2.RC() != 0 {
		t.Error("sameregion stores touched counts")
	}
}

func TestSetParent(t *testing.T) {
	a := NewArena()
	top := a.NewRegion()
	sub := top.NewSubregion()
	sib := a.NewRegion()
	parent := Alloc[crossNode](top)
	child := Alloc[crossNode](sub)
	other := Alloc[crossNode](sib)
	if err := SetParent(child, &child.Value.Up, parent); err != nil {
		t.Fatal(err)
	}
	if err := SetParent(child, &child.Value.Up, child); err != nil {
		t.Fatal(err) // same region is an ancestor-or-self
	}
	if err := SetParent(child, &child.Value.Up, other); !errors.Is(err, ErrBadRef) {
		t.Fatalf("sibling parentptr store: %v", err)
	}
	if err := SetParent(parent, &parent.Value.Up, child); !errors.Is(err, ErrBadRef) {
		t.Fatalf("downward parentptr store: %v", err)
	}
}

func TestSubregionOrder(t *testing.T) {
	a := NewArena()
	top := a.NewRegion()
	sub := top.NewSubregion()
	if err := top.Delete(); !errors.Is(err, ErrRegionInUse) {
		t.Fatalf("parent deleted before child: %v", err)
	}
	if err := sub.Delete(); err != nil {
		t.Fatal(err)
	}
	if err := top.Delete(); err != nil {
		t.Fatal(err)
	}
}

func TestPinProtectsLocals(t *testing.T) {
	a := NewArena()
	r := a.NewRegion()
	n := Alloc[listNode](r)
	unpin := Pin(n)
	if err := r.Delete(); !errors.Is(err, ErrRegionInUse) {
		t.Fatalf("pinned region deleted: %v", err)
	}
	unpin()
	unpin() // idempotent
	if err := r.Delete(); err != nil {
		t.Fatal(err)
	}
	if Pin[listNode](nil) == nil {
		t.Error("Pin(nil) should return a no-op unpin")
	}
}

func TestDeleteDeferred(t *testing.T) {
	a := NewArena()
	r1 := a.NewRegion()
	r2 := a.NewRegion()
	x := Alloc[crossNode](r1)
	y := Alloc[crossNode](r2)
	MustSetRef(x, &x.Value.Other, y)
	r2.DeleteDeferred()
	if a.LiveObjects() != 2 {
		t.Fatal("deferred delete reclaimed referenced region")
	}
	MustSetRef(x, &x.Value.Other, nil) // last reference: reclaim
	if a.LiveObjects() != 1 {
		t.Fatalf("deferred reclaim did not run: %d live", a.LiveObjects())
	}
	if err := r1.Delete(); err != nil {
		t.Fatal(err)
	}
}

func TestDeferredCascade(t *testing.T) {
	a := NewArena()
	top := a.NewRegion()
	sub := top.NewSubregion()
	Alloc[listNode](top)
	Alloc[listNode](sub)
	top.DeleteDeferred()
	if a.LiveObjects() != 2 {
		t.Fatal("parent reclaimed before child")
	}
	if err := sub.Delete(); err != nil {
		t.Fatal(err)
	}
	if a.LiveObjects() != 0 {
		t.Fatal("cascade did not reclaim deferred parent")
	}
}

// Property: the arena's counts match a shadow model under random
// operation sequences.
func TestQuickArenaInvariant(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	a := NewArena()
	var regions []*Region
	type slotRec struct {
		holder *Obj[crossNode]
	}
	var objs []*Obj[crossNode]
	_ = slotRec{}
	for i := 0; i < 4000; i++ {
		switch {
		case len(regions) == 0 || rng.Intn(6) == 0:
			regions = append(regions, a.NewRegion())
		case rng.Intn(4) == 0 && len(regions) > 0:
			r := regions[rng.Intn(len(regions))]
			if !r.Deleted() {
				regions = append(regions, r.NewSubregion())
			}
		case rng.Intn(3) == 0 && len(objs) > 1:
			h := objs[rng.Intn(len(objs))]
			v := objs[rng.Intn(len(objs))]
			if !h.Region().Deleted() && !v.Region().Deleted() {
				MustSetRef(h, &h.Value.Other, v)
			}
		case rng.Intn(5) == 0 && len(regions) > 0:
			r := regions[rng.Intn(len(regions))]
			if !r.Deleted() {
				_ = r.Delete() // may legitimately fail
			}
		default:
			r := regions[rng.Intn(len(regions))]
			if !r.Deleted() {
				objs = append(objs, Alloc[crossNode](r))
			}
		}
		// Invariant: every live region's rc equals the number of
		// external references from live holders.
		want := map[*Region]int64{}
		for _, o := range objs {
			if o.Region().Deleted() {
				continue
			}
			if tgt := o.Value.Other.Get(); tgt != nil && tgt.Region() != o.Region() {
				want[tgt.Region()]++
			}
		}
		for _, r := range regions {
			if !r.Deleted() && r.RC() != want[r] {
				t.Fatalf("step %d: region %d rc=%d, shadow=%d", i, r.id, r.RC(), want[r])
			}
		}
	}
}

// mustPanicErr runs f, which must panic with an error matching want.
func mustPanicErr(t *testing.T, want error, f func()) {
	t.Helper()
	defer func() {
		r := recover()
		if r == nil {
			t.Fatalf("no panic, want %v", want)
		}
		err, ok := r.(error)
		if !ok || !errors.Is(err, want) {
			t.Fatalf("panicked with %v, want %v", r, want)
		}
	}()
	f()
}

func TestDeletedRegionGuards(t *testing.T) {
	a := NewArena()
	r := a.NewRegion()
	live := a.NewRegion()
	h := Alloc[crossNode](live)
	x := Alloc[crossNode](r)
	if err := r.Delete(); err != nil {
		t.Fatal(err)
	}
	if err := r.Delete(); !errors.Is(err, ErrRegionDeleted) {
		t.Fatalf("double delete: %v", err)
	}
	if _, err := TryAlloc[crossNode](r); !errors.Is(err, ErrRegionDeleted) {
		t.Fatalf("TryAlloc in deleted region: %v", err)
	}
	if _, err := r.TryNewSubregion(); !errors.Is(err, ErrRegionDeleted) {
		t.Fatalf("TryNewSubregion of deleted region: %v", err)
	}
	if _, err := TryPin(x); !errors.Is(err, ErrRegionDeleted) {
		t.Fatalf("TryPin into deleted region: %v", err)
	}
	// Stores targeting the deleted region are rejected...
	if err := SetRef(h, &h.Value.Other, x); !errors.Is(err, ErrRegionDeleted) {
		t.Fatalf("counted store to deleted region: %v", err)
	}
	// ...and so are stores held by it, nil stores of every flavour too.
	if err := SetRef(x, &x.Value.Other, h); !errors.Is(err, ErrRegionDeleted) {
		t.Fatalf("counted store from deleted region: %v", err)
	}
	for _, st := range crossStores {
		if err := st.set(x, slotFor(x, st.flavour), nil); !errors.Is(err, ErrRegionDeleted) {
			t.Fatalf("nil %v from deleted region: %v, want ErrRegionDeleted", st.flavour, err)
		}
	}
	if live.RC() != 0 {
		t.Fatalf("rejected store leaked a count: %d", live.RC())
	}
	mustPanicErr(t, ErrRegionDeleted, func() { Alloc[crossNode](r) })
	mustPanicErr(t, ErrRegionDeleted, func() { r.NewSubregion() })
	mustPanicErr(t, ErrRegionDeleted, func() { Pin(x) })
	mustPanicErr(t, ErrRegionDeleted, func() { MustSetRef(h, &h.Value.Other, x) })
}

// A DeleteDeferred zombie region rejects new inbound references instead
// of having its reclaim postponed indefinitely (the pre-redesign API
// silently incremented the zombie's rc).
func TestZombieRejectsNewReferences(t *testing.T) {
	a := NewArena()
	rz := a.NewRegion()
	live := a.NewRegion()
	h := Alloc[crossNode](live)
	z := Alloc[crossNode](rz)
	MustSetRef(h, &h.Value.Other, z) // keeps rz alive
	rz.DeleteDeferred()
	if !rz.Deferred() || rz.Objects() != 1 {
		t.Fatal("region should be a zombie with its object intact")
	}
	h2 := Alloc[crossNode](live)
	if err := SetRef(h2, &h2.Value.Other, z); !errors.Is(err, ErrRegionDeleted) {
		t.Fatalf("counted store to zombie region: %v", err)
	}
	if _, err := TryPin(z); !errors.Is(err, ErrRegionDeleted) {
		t.Fatalf("pin of zombie region: %v", err)
	}
	if _, err := TryAlloc[crossNode](rz); !errors.Is(err, ErrRegionDeleted) {
		t.Fatalf("alloc in zombie region: %v", err)
	}
	MustSetRef(h, &h.Value.Other, nil) // last reference: reclaim
	if rz.Objects() != 0 || !rz.Stats().Reclaimed {
		t.Fatal("zombie did not reclaim after last release")
	}
}

// Nil stores from a zombie holder stay allowed: they are how a
// cross-region cycle between deferred-deleted regions is broken.
func TestZombieNilStoreBreaksCycle(t *testing.T) {
	a := NewArena()
	r1 := a.NewRegion()
	r2 := a.NewRegion()
	p := Alloc[crossNode](r1)
	q := Alloc[crossNode](r2)
	MustSetRef(p, &p.Value.Other, q)
	MustSetRef(q, &q.Value.Other, p)
	r1.DeleteDeferred()
	r2.DeleteDeferred()
	if a.LiveObjects() != 2 {
		t.Fatal("cycle reclaimed early")
	}
	// A non-nil store from the zombie is still rejected.
	if err := SetRef(q, &q.Value.Other, q); !errors.Is(err, ErrRegionDeleted) {
		t.Fatalf("non-nil store from zombie holder: %v", err)
	}
	// A nil store of every flavour is legal; the counted one (last)
	// drops the reference that holds the cycle.
	for _, st := range crossStores {
		if err := st.set(q, slotFor(q, st.flavour), nil); err != nil {
			t.Fatalf("nil %v from zombie holder: %v", st.flavour, err)
		}
	}
	if a.LiveObjects() != 0 || !r1.Stats().Reclaimed || !r2.Stats().Reclaimed {
		t.Fatalf("cycle not reclaimed: %d live", a.LiveObjects())
	}
}

func TestMustStoreVariants(t *testing.T) {
	a := NewArena()
	r1 := a.NewRegion()
	r2 := a.NewRegion()
	x := Alloc[listNode](r1)
	y := Alloc[listNode](r1)
	z := Alloc[listNode](r2)
	MustSetSame(x, &x.Value.Next, y)
	if x.Value.Next.Get() != y {
		t.Fatal("MustSetSame did not store")
	}
	mustPanicErr(t, ErrBadRef, func() { MustSetSame(x, &x.Value.Next, z) })

	top := a.NewRegion()
	sub := top.NewSubregion()
	parent := Alloc[crossNode](top)
	child := Alloc[crossNode](sub)
	MustSetParent(child, &child.Value.Up, parent)
	mustPanicErr(t, ErrBadRef, func() { MustSetParent(parent, &parent.Value.Up, child) })

	g := Alloc[crossNode](a.Traditional())
	h := Alloc[crossNode](r2)
	MustSetTrad(h, &h.Value.Other, g)
	mustPanicErr(t, ErrBadRef, func() { MustSetTrad(h, &h.Value.Other, child) })
}

func TestStatsSnapshot(t *testing.T) {
	a := NewArena()
	r := a.NewRegion()
	sub := r.NewSubregion()
	o := Alloc[crossNode](r)
	Alloc[crossNode](r)
	unpin := Pin(o)
	h := Alloc[crossNode](a.NewRegion())
	MustSetRef(h, &h.Value.Other, o)
	st := r.Stats()
	if st.Objects != 2 || st.RC != 2 || st.Pins != 1 || st.Subregions != 1 ||
		st.Deleted || st.Deferred || st.Reclaimed {
		t.Fatalf("stats snapshot wrong: %+v", st)
	}
	unpin()
	MustSetRef(h, &h.Value.Other, nil)
	if err := sub.Delete(); err != nil {
		t.Fatal(err)
	}
	r.DeleteDeferred()
	st = r.Stats()
	if !st.Deleted || !st.Reclaimed || st.Objects != 0 {
		t.Fatalf("post-delete stats wrong: %+v", st)
	}
	as := a.Stats()
	if as.LiveObjects != a.LiveObjects() || as.RegionsCreated < 4 {
		t.Fatalf("arena stats wrong: %+v", as)
	}
}

func TestDeferredTraditionalIsNoop(t *testing.T) {
	a := NewArena()
	a.Traditional().DeleteDeferred()
	if a.Traditional().Deleted() {
		t.Fatal("DeleteDeferred deleted the traditional region")
	}
}

func TestTraditionalRegion(t *testing.T) {
	a := NewArena()
	trad := a.Traditional()
	if trad == nil || trad.Deleted() {
		t.Fatal("no traditional region")
	}
	if err := trad.Delete(); err == nil {
		t.Fatal("traditional region deleted")
	}
	r := a.NewRegion()
	holder := Alloc[crossNode](r)
	global := Alloc[crossNode](trad)
	regional := Alloc[crossNode](r)
	if err := SetTrad(holder, &holder.Value.Other, global); err != nil {
		t.Fatal(err)
	}
	if err := SetTrad(holder, &holder.Value.Other, nil); err != nil {
		t.Fatal(err)
	}
	if err := SetTrad(holder, &holder.Value.Other, regional); !errors.Is(err, ErrBadRef) {
		t.Fatalf("regional value accepted by traditional slot: %v", err)
	}
	// Traditional stores never count, so r deletes freely even while a
	// slot references the traditional region.
	if err := SetTrad(holder, &holder.Value.Other, global); err != nil {
		t.Fatal(err)
	}
	if err := r.Delete(); err != nil {
		t.Fatal(err)
	}
}
