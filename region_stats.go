package rcgo

// Snapshot-consistent statistics for the concurrent Go-native runtime.
// The scalar accessors (RC, Pins, …) are lock-free; the Stats methods
// take the lifecycle lock so the state word cannot change mid-snapshot
// and re-read the reference count until it is stable, so a snapshot
// never pairs a pre-delete count with a post-delete state.

// RegionStats is a consistent snapshot of one region's counters.
type RegionStats struct {
	// ID is the region's arena-unique id.
	ID int64
	// RC is the external reference count, including pins.
	RC int64
	// Pins is the pin subset of RC.
	Pins int64
	// Objects is the number of live objects in the region (0 once
	// reclaimed).
	Objects int64
	// Subregions is the number of live child regions.
	Subregions int64
	// Deferred reports a DeleteDeferred region awaiting reclaim.
	Deferred bool
	// Deleted reports a region that is deleted (deferred or reclaimed).
	Deleted bool
	// Reclaimed reports that the region's storage has been released.
	Reclaimed bool
	// Owned reports a region that is exclusively owned through an Owner
	// token (region_owner.go). Its Objects field excludes the token's
	// unflushed owner-local allocations, which become visible at Release.
	Owned bool
}

// statsRCRetries bounds the Stats re-read loop. Holding mu freezes the
// state word, so the retries only chase a stable rc reading for a nicer
// point-in-time pairing of rc with the other counters; on an alive
// region rc is inherently concurrent and any single read is a valid
// linearized value. An unbounded loop would let a hot mutator (a tight
// pin/unpin or counted-store loop) livelock a stats reader — the bound
// guarantees Stats returns after at most a handful of reads
// (TestStatsNoLivelockUnderHotRC).
const statsRCRetries = 3

// Stats returns a consistent snapshot of the region's counters: the
// state flags can never be paired with a reference count from the other
// side of a delete, because all state transitions hold mu. A reclaimed
// region's Objects field is 0.
func (r *Region) Stats() RegionStats {
	r.mu.Lock()
	defer r.mu.Unlock()
	for attempt := 0; ; attempt++ {
		rc := r.rc.Load()
		st := RegionStats{
			ID:         r.id,
			RC:         rc,
			Pins:       r.pins.Load(),
			Objects:    r.objs.Load(),
			Subregions: r.children.Load(),
		}
		switch r.state.Load() { // stable: transitions hold mu
		case stateZombie:
			st.Deferred, st.Deleted = true, true
		case stateDead:
			st.Deleted, st.Reclaimed = true, true
			st.Objects = 0
		case stateOwned:
			st.Owned = true
		}
		if r.rc.Load() == rc || attempt >= statsRCRetries {
			return st
		}
	}
}

// RC returns the current external reference count (including pins).
func (r *Region) RC() int64 { return r.rc.Load() }

// Pins returns the number of live pins on the region.
func (r *Region) Pins() int64 { return r.pins.Load() }

// Objects returns the number of live objects in the region, 0 once it
// is reclaimed. Lock-free; concurrent allocations make it a momentary
// approximation, quiescence makes it exact (like every other counter).
// An owned region's unflushed owner-local allocations are not included;
// they land at Release.
func (r *Region) Objects() int64 {
	if r.settled() == stateDead {
		return 0
	}
	return r.objs.Load()
}

// Deleted reports whether the region has been deleted (explicitly, or
// deferred and awaiting reclaim). An exclusively owned region is not
// deleted.
func (r *Region) Deleted() bool {
	s := r.settled()
	return s == stateZombie || s == stateDead
}

// Deferred reports whether the region is deferred-deleted and awaiting
// reclaim.
func (r *Region) Deferred() bool { return r.settled() == stateZombie }

// ArenaStats is a snapshot of arena-wide counters, aggregated across
// the fabric shards (region_fabric.go). LiveObjects sums the registered
// regions' object counters (Arena.LiveObjects); every population field
// is the sum of the per-shard slices, each of which is maintained at the same program
// points the pre-fabric arena-wide counter was — so the aggregate keeps
// the exact-at-quiesce contract, while a concurrent snapshot reads the
// shards at slightly different instants (like every other live read).
type ArenaStats struct {
	// LiveObjects is the number of live objects across all regions.
	LiveObjects int64 `json:"live_objects"`
	// RegionsCreated is the total number of regions ever created
	// (including the traditional region), summed over the shards' id
	// sequences.
	RegionsCreated int64 `json:"regions_created"`
	// LiveRegions is the number of regions currently alive (including
	// the traditional region). Updated at the same point as every
	// lifecycle state transition, so once the arena quiesces
	// LiveRegions + DeferredRegions + reclaimed == RegionsCreated.
	LiveRegions int64 `json:"live_regions"`
	// DeferredRegions is the number of deferred-deleted (zombie)
	// regions still awaiting reclaim.
	DeferredRegions int64 `json:"deferred_regions"`
	// OwnedRegions is the number of regions currently held through an
	// Owner token (region_owner.go). Owned regions also count in
	// LiveRegions — ownership is a mode of being alive.
	OwnedRegions int64 `json:"owned_regions"`
	// Shards is the arena's fabric width (Arena.Shards): a constant,
	// carried here so monitoring snapshots are self-describing.
	Shards int `json:"shards"`
	// SlabPages / SlabBytes are the backing store's in-use pages and
	// bytes (region_slab.go) — payload memory currently carved out for
	// live regions' object chunks, returned at reclaim. Zero without a
	// backing store; exact at quiesce like every other counter (the
	// auditor's slab-pages-total rule cross-checks it against the
	// per-region page lists).
	SlabPages int64 `json:"slab_pages,omitempty"`
	SlabBytes int64 `json:"slab_bytes,omitempty"`
}

// Stats returns a snapshot of the arena-wide counters.
func (a *Arena) Stats() ArenaStats {
	st := ArenaStats{LiveObjects: a.LiveObjects(), Shards: len(a.shards)}
	for i := range a.shards {
		sh := &a.shards[i]
		st.RegionsCreated += sh.nextSeq.Load()
		st.LiveRegions += sh.liveRegions.Load()
		st.DeferredRegions += sh.deferredRegions.Load()
		st.OwnedRegions += sh.ownedRegions.Load()
	}
	if a.backing != nil {
		ss := a.backing.Stats()
		st.SlabPages = ss.InUsePages
		st.SlabBytes = ss.InUseBytes
	}
	return st
}

// LiveRegions returns the number of regions currently alive, including
// the traditional region.
func (a *Arena) LiveRegions() int64 {
	var n int64
	for i := range a.shards {
		n += a.shards[i].liveRegions.Load()
	}
	return n
}

// DeferredRegions returns the number of zombie regions awaiting
// deferred reclaim.
func (a *Arena) DeferredRegions() int64 {
	var n int64
	for i := range a.shards {
		n += a.shards[i].deferredRegions.Load()
	}
	return n
}

// OwnedRegions returns the number of regions currently held through an
// Owner token (region_owner.go).
func (a *Arena) OwnedRegions() int64 {
	var n int64
	for i := range a.shards {
		n += a.shards[i].ownedRegions.Load()
	}
	return n
}

// AcquireWaiters returns the number of AcquireContext contenders
// currently parked on wait queues across the arena (region_owner.go).
// Zero at quiesce: every waiter eventually receives a hand-off, is
// failed by its region's death, or removes itself on cancellation.
func (a *Arena) AcquireWaiters() int64 {
	var n int64
	for i := range a.shards {
		n += a.shards[i].acquireWaiters.Load()
	}
	return n
}

// LiveObjects returns the number of live objects across the arena: the
// object counters of the registered regions, summed under one registry
// lock at a time. The registry holds exactly the live and zombie
// regions, and a region that died but is not yet unregistered counts 0,
// so the sum is exact at quiesce, like every other counter.
func (a *Arena) LiveObjects() int64 {
	var n int64
	for i := range a.shards {
		for j := range a.shards[i].registry {
			sh := &a.shards[i].registry[j]
			sh.mu.Lock()
			for _, r := range sh.m {
				if r.state.Load() != stateDead {
					n += r.objs.Load()
				}
			}
			sh.mu.Unlock()
		}
	}
	return n
}
