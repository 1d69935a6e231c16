package rcgo

import (
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"unsafe"
)

// The store core. The paper's four pointer kinds form one lattice
// (Figure 3): a counted store does the reference-count update of
// Figure 3(a), and each annotated kind does one Figure 3(b) check.
//
//	SetRef     unannotated pointer: full reference-count update
//	SetSame    sameregion pointer: checked, never counted
//	SetTrad    traditional pointer: checked, never counted
//	SetParent  parentptr pointer: checked, never counted
//
// Each flavour has an owned twin (Set*Owned, region_owner.go) and a
// MustSet* variant that panics instead of returning the error. All
// eight Set* and Set*Owned functions are thin wrappers over one core,
// store, built from one annotation predicate (legal), one holder-state
// rule for shared stores (checkHolder), one token rule for owned ones
// (holds) and one rejection formatter (storeError).
//
// Annotated stores write no shared memory: they read immutable region
// identity/ancestry and the region state word, then write the holder's
// own slot. SetRef updates the target region's atomic count and
// serializes on the holder region's registry lock. Arena metrics
// (region_metrics.go) and the annotation advisor (region_advisor.go)
// sit behind the region's one instrument gate: disarmed, both cost a
// store one pointer load and branch.

// slotInline is how many counted slots a region registers before its
// registry spills to the heap: a request region holds about 13, so
// sixteen inline entries register them all without allocating.
const slotInline = 16

// slotRegistry is a region's registry of counted (SetRef) slots: one
// mutex and one slice that starts in the inline array and grows on the
// heap past slotInline entries. An entry is the slot's word itself
// (&Ref.target), one machine word: the unscan and the scans reach the
// target's region through its header (objHeader) with no per-type
// dispatch.
//
// A counted store registers its slot when it fills a nil slot, so every
// non-nil counted slot is listed, and a slot that goes non-nil, nil and
// non-nil again is listed twice. Duplicates are harmless where slots
// are released (the second swap finds nil) and deduped where they are
// counted (snapshot); add's compaction drops them. Owned stores
// (SetRefOwned) register here too, so the registry lists every counted
// slot the region holds.
type slotRegistry struct {
	mu     sync.Mutex
	list   []*unsafe.Pointer
	inline [slotInline]*unsafe.Pointer
}

// add registers one counted slot. Caller holds g.mu. A full list is
// first compacted: the entries whose slot is now nil go, and so do
// earlier entries of w itself, which is being listed again. If that
// frees fewer than half the entries the list also grows as append would
// have grown the full list (2× while small, about 1.25× past 256
// entries), so each compaction's scan is paid for by a constant
// fraction of a list of appends.
func (g *slotRegistry) add(w *unsafe.Pointer) {
	if g.list == nil {
		g.list = g.inline[:0]
	}
	if n := len(g.list); n == cap(g.list) {
		keep := g.list[:0]
		for _, e := range g.list {
			if e != w && atomic.LoadPointer(e) != nil {
				keep = append(keep, e)
			}
		}
		clear(g.list[len(keep):])
		if len(keep) > n/2 {
			keep = slices.Grow(keep, n+1-len(keep))
		}
		g.list = keep
	}
	g.list = append(g.list, w)
}

// snapshot copies the registered slots under the lock, each slot once,
// for the scans that read them while stores go on (the auditor, the
// blocked-deleters report).
func (g *slotRegistry) snapshot() []*unsafe.Pointer {
	g.mu.Lock()
	defer g.mu.Unlock()
	seen := make(map[*unsafe.Pointer]struct{}, len(g.list))
	out := make([]*unsafe.Pointer, 0, len(g.list))
	for _, w := range g.list {
		if _, dup := seen[w]; !dup {
			seen[w] = struct{}{}
			out = append(out, w)
		}
	}
	return out
}

// releaseSlot drops one registered slot's reference at its holder's
// unscan: it swaps the word to nil and releases the target's region
// unless that is the holder's own. A slot listed twice is released
// twice; the second swap finds nil.
func releaseSlot(w *unsafe.Pointer, owner *Region) {
	if t := atomic.SwapPointer(w, nil); t != nil {
		if tr := (*objHeader)(t).region; tr != owner {
			tr.decRC()
		}
	}
}

// slotTarget reports the region a registered slot currently points
// into (nil for a null slot), for the scans that count slots: the
// auditor and the blocked-deleters report.
func slotTarget(w *unsafe.Pointer) *Region {
	if t := atomic.LoadPointer(w); t != nil {
		return (*objHeader)(t).region
	}
	return nil
}

// Ref is a counted or annotated slot referencing an Obj: one machine
// word, like the paper's pointers. Refs that live inside region objects
// must be updated through the holder's Set methods. A given slot should
// be used with one store flavour only (counted SetRef, or checked
// SetSame/SetTrad/SetParent), like a C field with a fixed annotation.
// The zero Ref is a valid null slot.
type Ref[T any] struct {
	_ noCopy
	// target is nil or an *Obj[T], accessed only through sync/atomic.
	// Untyped so that a registry entry, &target, is the same one-word
	// type for every T.
	target unsafe.Pointer
}

// noCopy makes go vet's copylocks check report a copied Ref: a copy
// bypasses the store core, so it is an uncounted, unchecked reference.
type noCopy struct{}

func (*noCopy) Lock()   {}
func (*noCopy) Unlock() {}

// Get returns the referenced object (nil if the Ref is null).
func (r *Ref[T]) Get() *Obj[T] { return (*Obj[T])(atomic.LoadPointer(&r.target)) }

// swap stores o into the slot and returns the object it displaced.
func (r *Ref[T]) swap(o *Obj[T]) *Obj[T] {
	return (*Obj[T])(atomic.SwapPointer(&r.target, unsafe.Pointer(o)))
}

// SetRef performs holder.slot = target with the full reference-count
// update of the paper's Figure 3(a): counts change only when the store
// creates or destroys an external reference. It returns ErrRegionDeleted
// if the holder's or the target's region has been deleted or
// deferred-deleted — a counted store can never resurrect a zombie region
// or postpone its reclaim — and ErrRegionOwned if either is exclusively
// owned.
func SetRef[T any, H any](holder *Obj[H], slot *Ref[T], target *Obj[T]) error {
	return store(nil, holder, slot, target, FlavourRef)
}

// MustSetRef is SetRef panicking on error.
func MustSetRef[T any, H any](holder *Obj[H], slot *Ref[T], target *Obj[T]) {
	if err := SetRef(holder, slot, target); err != nil {
		panic(err)
	}
}

// SetSame performs holder.slot = target for a sameregion slot: the target
// must be nil or in the holder's region. Never touches a count or any
// shared cache line.
func SetSame[T any, H any](holder *Obj[H], slot *Ref[T], target *Obj[T]) error {
	return store(nil, holder, slot, target, FlavourSame)
}

// MustSetSame is SetSame panicking on error.
func MustSetSame[T any, H any](holder *Obj[H], slot *Ref[T], target *Obj[T]) {
	if err := SetSame(holder, slot, target); err != nil {
		panic(err)
	}
}

// SetTrad performs holder.slot = target for a traditional slot: the
// target must be nil or in the arena's traditional region. Never touches
// a count (the traditional region is immortal) or any shared cache line.
func SetTrad[T any, H any](holder *Obj[H], slot *Ref[T], target *Obj[T]) error {
	return store(nil, holder, slot, target, FlavourTrad)
}

// MustSetTrad is SetTrad panicking on error.
func MustSetTrad[T any, H any](holder *Obj[H], slot *Ref[T], target *Obj[T]) {
	if err := SetTrad(holder, slot, target); err != nil {
		panic(err)
	}
}

// SetParent performs holder.slot = target for a parentptr slot: the
// target must be nil or in an ancestor (or the same) region of the
// holder's, and that region must not be deleted. Never touches a count
// (an ancestor always outlives the holder) or any shared cache line.
func SetParent[T any, H any](holder *Obj[H], slot *Ref[T], target *Obj[T]) error {
	return store(nil, holder, slot, target, FlavourParent)
}

// MustSetParent is SetParent panicking on error.
func MustSetParent[T any, H any](holder *Obj[H], slot *Ref[T], target *Obj[T]) {
	if err := SetParent(holder, slot, target); err != nil {
		panic(err)
	}
}

// store performs holder.slot = target as flavour f, through token o (nil
// for a shared store). The public Set* functions must call it directly:
// the advisor's call-site capture (observe) counts their frame.
func store[T any, H any](o *Owner, holder *Obj[H], slot *Ref[T], target *Obj[T], f StoreFlavour) error {
	if o != nil && !holds(o, holder) {
		return tokenError(o, holder, f)
	}
	hr := holder.region
	var tr *Region
	if target != nil {
		tr = target.region
	}
	in := hr.instr
	c := in.counters(unsafe.Pointer(slot)) // used by shared stores only

	var old *Obj[T]
	if f != FlavourRef {
		// Figure 3(b): every annotated store runs, and counts, one check.
		tally(o, c, f)
		if tr != nil && !legal(f, hr, tr) {
			if o != nil {
				o.m.checkFailures++
			} else if c != nil {
				c.checkFailures.Add(1)
			}
			return storeError(ErrBadRef, f, o, hr, tr)
		}
		if o == nil {
			if err := hr.checkHolder(f, tr == nil); err != nil {
				return err
			}
		}
		// An ancestor that is merely owned remains a legal parentptr
		// target: the link creates no reference and mutates nothing there.
		if f == FlavourParent && tr != nil {
			if ts := tr.settled(); ts != stateAlive && ts != stateOwned {
				return storeError(ErrRegionDeleted, f, o, hr, tr)
			}
		}
	} else {
		// Figure 3(a). Count the new external reference before publishing
		// it, so the holder region's delete-time unscan — which may run
		// the instant the slot is visible in the registry — never releases
		// an uncounted reference. incRC's error carries ErrRegionDeleted or
		// ErrRegionOwned for the target, or ErrInjected under fault
		// injection; callers tell them apart with errors.Is.
		external := tr != nil && tr != hr
		if external {
			if err := tr.incRC(); err != nil {
				return storeError(err, f, o, hr, tr)
			}
		}
		// A store that fills a nil slot registers it in the holder's
		// registry. An owned store swaps outside the lock (no shared store
		// can race the owner's) and takes it only to register.
		if o != nil {
			old = slot.swap(target)
			if target != nil && old == nil {
				g := &hr.slots
				g.mu.Lock()
				g.add(&slot.target)
				g.mu.Unlock()
			}
		} else {
			// The failpoint sits in the count-vs-registry window: the
			// reference is counted but the slot not yet registered; an
			// injected error unwinds the store exactly like a holder-state
			// rejection.
			g := &hr.slots
			err := fpSlotInsert.Eval()
			if err != nil {
				err = storeError(err, f, nil, hr, nil)
			} else {
				// The holder state is read under the registry lock: that is
				// what fences shared stores against Acquire's barrier — a
				// store that gets here after the barrier passed observes
				// stateOwned and fails.
				g.mu.Lock()
				if err = hr.checkHolder(f, target == nil); err != nil {
					g.mu.Unlock()
				}
			}
			if err != nil {
				if external {
					tr.decRC()
				}
				return err
			}
			old = slot.swap(target)
			if target != nil && old == nil {
				g.add(&slot.target)
			}
			g.mu.Unlock()
		}
		tally(o, c, f)
	}
	if tr != nil && in != nil && in.advisor != nil {
		in.advisor.observe(hr, tr, f)
	}
	if f != FlavourRef {
		atomic.StorePointer(&slot.target, unsafe.Pointer(target))
	} else if old != nil && old.region != hr {
		// Release the displaced reference outside the registry lock: the drop
		// can reclaim a deferred-deleted region, which takes its own locks.
		old.region.decRC()
	}
	return nil
}

// tally counts one store of flavour f: on the token for an owned store
// (merged at Release), on the slot's metric shard c for a shared one.
func tally(o *Owner, c *counterShard, f StoreFlavour) {
	if o != nil {
		o.m.stores[f]++
	} else if c != nil {
		c.stores[f].Add(1)
	}
}

// legal is the annotation predicate of the paper's Figure 3(b): whether
// a slot of flavour f held in region hr may point into region tr.
// FlavourRef admits every target.
func legal(f StoreFlavour, hr, tr *Region) bool {
	switch f {
	case FlavourSame:
		return tr == hr
	case FlavourTrad:
		return tr == hr.arena.trad
	case FlavourParent:
		return tr.isAncestorOf(hr)
	}
	return true
}

// checkHolder is the holder-state rule of every shared store: the
// holder's region must be alive (ErrRegionOwned while owned,
// ErrRegionDeleted once deleted or deferred), except that a nil store
// from a zombie holder is legal, so cycles among deferred-deleted
// regions can still be broken by hand (DESIGN.md §8).
func (hr *Region) checkHolder(f StoreFlavour, nilStore bool) error {
	if hr.state.Load() == stateAlive {
		return nil
	}
	return hr.holderError(f, nilStore)
}

// holderError is checkHolder's slow path, kept out of line so the
// alive check inlines into the store core.
func (hr *Region) holderError(f StoreFlavour, nilStore bool) error {
	switch hr.settled() {
	case stateAlive:
		return nil
	case stateOwned:
		return storeError(ErrRegionOwned, f, nil, hr, nil)
	case stateZombie:
		if nilStore {
			return nil
		}
	}
	return storeError(ErrRegionDeleted, f, nil, hr, nil)
}

// storeError is the store core's one rejection formatter: "<cause>:
// <public function> [of region T ][into region H]", naming the target's
// region when the rejection concerns it. It wraps cause, so callers
// match the sentinel (or an incRC or failpoint error) with errors.Is.
func storeError(cause error, f StoreFlavour, o *Owner, hr, tr *Region) error {
	fn := f.String()
	if o != nil {
		fn += "Owned"
	}
	switch {
	case hr == nil:
		return fmt.Errorf("%w: %s", cause, fn)
	case tr != nil:
		return fmt.Errorf("%w: %s of region %d into region %d", cause, fn, tr.id, hr.id)
	}
	return fmt.Errorf("%w: %s into region %d", cause, fn, hr.id)
}

// isAncestorOf walks the (immutable) parent chain.
func (r *Region) isAncestorOf(s *Region) bool {
	for ; s != nil; s = s.parent {
		if s == r {
			return true
		}
	}
	return false
}
