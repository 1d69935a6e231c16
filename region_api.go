package rcgo

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"
	"unsafe"
)

// This file is the Go-native layer of the library: reference-counted
// regions for Go programs, with the paper's safety guarantee — deleting a
// region fails while external references to its objects remain — and the
// paper's cost-saving reference classes (same-region, traditional and
// parent references are never counted).
//
// Objects are allocated into a Region and addressed through Ref values.
// A Ref stored inside a region object must be written through the holder
// object's Set* methods (region_store.go) so the runtime can maintain
// counts, mirroring the RC compiler's instrumentation of pointer
// assignments. References held in plain Go variables (locals) are the
// analogue of the paper's local variables: they are not counted;
// Pin/Unpin protects them across code that may delete regions.
//
// The runtime is safe for concurrent use by multiple goroutines. The
// concurrency design (see DESIGN.md §"Concurrent Go-native runtime"):
//
//   - Every counter (rc, pins, objs, children, the arena's live-object
//     total) is an atomic. External-reference creation uses an
//     increment-then-validate protocol against a per-region state machine
//     (alive → dying → dead, or alive → zombie → dead), so a reference
//     can never be created on a region that a concurrent Delete has
//     reclaimed, and a Delete can never succeed while a reference is
//     being created.
//   - Lifecycle decisions (Delete, DeleteDeferred, the zombie drain,
//     Alloc and NewSubregion admission) serialize on a small per-region
//     mutex. Store fast paths never take it.
//   - Counted slots register in one mutex-guarded registry per region
//     (region_store.go) whose first 16 entries are inline in the
//     Region, so a request region's SetRefs allocate nothing.
//   - Annotated stores (SetSame, SetTrad, SetParent) and Obj.Use are
//     entirely lock-free and write no shared memory: they read immutable
//     region identity/ancestry plus the region state word, then write
//     only the holder's own slot. They scale linearly with GOMAXPROCS
//     (BenchmarkParallelSetSame).
//
// Concurrent Set* calls on the *same* slot are linearized by the runtime
// (the slot value is atomic and counted stores serialize on the holder
// region's registry lock), but as in any Go program, higher-level
// invariants across multiple slots are the caller's responsibility.

// Region lifecycle states. All transitions happen under Region.mu; reads
// are lock-free. stateDying is a transient window during which Delete or
// DeleteDeferred holds mu and is deciding: observers wait it out
// (settled) rather than treating it as deleted, because the delete may
// still fail with ErrRegionInUse. stateOwned (region_owner.go) is a
// settled state like zombie: shared-path operations fail fast with
// ErrRegionOwned rather than waiting, because ownership lasts as long
// as the token holder wants it to.
const (
	stateAlive  int32 = iota
	stateDying        // transient: a delete holds mu and is deciding
	stateZombie       // DeleteDeferred: reclaim when references drain
	stateDead         // reclaimed
	stateOwned        // exclusively owned via an Owner token (region_owner.go)
)

// Arena is a reference-counted region heap for Go values, created by
// NewArena (region_fabric.go) and internally sharded: regions hash
// across the fabric's shards, each of which owns an id-sequence
// segment, a registry segment, and its slice of every arena-wide
// total. All methods are safe for concurrent use, and every reader
// (Stats, Audit, EachRegion, the debug inspector) aggregates across
// shards so the fabric is invisible to callers.
type Arena struct {
	// shards is the fabric (region_fabric.go); immutable after
	// construction. shardMask = len(shards)-1 (the count is a power of
	// two).
	shards    []arenaShard
	shardMask uint64

	// instr holds the cumulative op counters (region_metrics.go), the
	// annotation advisor (region_advisor.go) and the lifecycle tracer
	// (region_trace.go), gated per region by Region.instr. NewArena sets
	// all three for the arena's life; each is nil when off, and together
	// they cost the fast paths one load + branch.
	instr instruments

	// recordAcquireSites is set, never cleared, by NewOwnerWatchdog:
	// from then on every acquire records its call site for stale-owner
	// reports and the /owners inspector. Without a watchdog the
	// runtime.Callers walk is skipped.
	recordAcquireSites atomic.Bool

	// backing is the off-heap page store behind slab-backed object
	// chunks (region_slab.go); nil — the default — means every chunk is
	// an ordinary GC-heap allocation. Immutable after construction
	// (WithOffHeapSlabs / WithBackingStore), touched only on the chunk
	// refill edge and at reclaim's page return, never per object.
	backing BackingStore

	trad *Region
}

// Region is one region: objects allocated into it are freed together by
// Delete, which fails while external references remain. All methods are
// safe for concurrent use.
type Region struct {
	arena *Arena
	// shard is the fabric shard the region was assigned to at creation
	// (immutable): the shard whose id sequence minted r.id and whose
	// counters carry this region's share of the arena totals.
	shard  *arenaShard
	parent *Region // immutable after creation
	id     int64
	// instr is the one instrument gate: it points at arena.instr when
	// the arena was built with metrics, the advisor or a tracer, so the
	// fast paths and the lifecycle note gate all three on a load from
	// this (already hot, read-only) cache line instead of a dependent
	// load through the arena. nil = none armed.
	// Written once in newRegion, before the region is published.
	instr *instruments

	// mu serializes lifecycle decisions. The counters stay atomic so the
	// reference fast paths (incRC/decRC) and stat reads never block on it.
	mu       sync.Mutex
	state    atomic.Int32
	rc       atomic.Int64 // external counted references, including pins
	pins     atomic.Int64 // the pin subset of rc, for stats
	children atomic.Int64
	objs     atomic.Int64

	// owner is the region's exclusive-ownership token while stateOwned
	// (region_owner.go); nil otherwise. Set and cleared under mu at the
	// same program points as the alive ⇄ owned transitions, read
	// atomically by the auditor's owner-linkage check.
	owner atomic.Pointer[Owner]

	// slots is the registry of counted (SetRef) slots held by this
	// region's objects, its first slotInline entries stored in place;
	// deletion drains it to release outbound references, the analogue
	// of the runtime's delete-time unscan.
	slots slotRegistry

	// slabPages tracks the off-heap store pages this region's slab
	// chunks are carved from (region_slab.go): carve appends, reclaim
	// closes the list and returns every page to the store after the
	// writer gate drains. Unused (and empty) without a backing store.
	slabPages slabPageList

	// chunkPark parks this region's partially-used allocation chunks
	// between allocations (region_alloccache.go): a strong-reference
	// level-one cache in front of the per-type sync.Pools, shared in
	// place through each chunk's atomic cursor. The slot is a function
	// of the object size (chunkParkSlot), so a region allocating a few
	// types keeps one chunk of each parked. Per-region (it used to be
	// arena-wide) so concurrent single-type regions never displace each
	// other's chunks; reclaim returns parked chunks to their pools.
	chunkPark [chunkParkSlots]atomic.Pointer[chunkBox]

	// waitq is the FIFO queue of parked AcquireContext contenders
	// (region_owner.go); guarded by mu, and non-empty only while the
	// region is stateOwned — hand-off pops the head, cancellation
	// splices out the quitter, Owner.Delete fails the whole queue.
	// acquirePC/acquirePCN (also mu-guarded) record where the current
	// token was minted, when the arena records acquire sites, for the
	// OwnerWatchdog's stale-owner reports and the /owners inspector.
	waitq      []*acquireWaiter
	acquirePC  [acquirePCDepth]uintptr
	acquirePCN int
	// since (mu-guarded) is when the region entered its current owned or
	// zombie state — a region is never both — set by the acquire or
	// hand-off that minted the current token, or by DeleteDeferred's
	// zombie transition. The watchdogs age regions by it.
	since time.Time
	// contendedWaits counts waiters ever parked on this region
	// (cumulative, monotone), read lock-free by the /owners
	// top-contended table.
	contendedWaits atomic.Int64
}

// ErrRegionInUse is returned by Delete while external references or
// subregions remain.
var ErrRegionInUse = errors.New("rcgo: region has external references or subregions")

// ErrRegionDeleted is returned when an operation targets a region that
// has been deleted or marked for deferred deletion: allocation in it,
// creating a subregion of it, pinning it, deleting it again, or a Set*
// store whose holder or target lives in it. A deferred-deleted (zombie)
// region rejects new references instead of silently having its reclaim
// postponed.
var ErrRegionDeleted = errors.New("rcgo: region already deleted")

// ErrBadRef is returned (or panicked, from the MustSet* operations) when
// a checked store violates its annotation.
var ErrBadRef = errors.New("rcgo: reference violates its region annotation")

// Traditional returns the arena's distinguished traditional region — the
// analogue of the paper's stack/globals/malloc-heap region. Objects with
// indefinite lifetime live here; it can never be deleted, and SetTrad
// verifies that a traditional slot only ever references it.
func (a *Arena) Traditional() *Region { return a.trad }

// NewRegion creates a new top-level region.
func (a *Arena) NewRegion() *Region { return a.newRegion(nil) }

// ID returns the region's arena-unique id — the same id the tracer,
// the hierarchy inspector and the blocked-deleters report use, so a
// region found in a debug report can be correlated with the handle.
//
// Ids are shard-encoded: the low bits carry the fabric shard the region
// was assigned to at creation (recoverable with Arena.RegionShard), the
// high bits a per-shard sequence. The encoding makes an id globally
// unique within its arena and stable for the region's whole life —
// regions never migrate between shards — but ids are NOT dense or
// globally creation-ordered: two regions created back to back on
// different shards can have ids far apart, in either order.
func (r *Region) ID() int64 { return r.id }

// newRegion creates and publishes a region below parent (nil for
// top-level). The region is assigned to a fabric shard by hashing its
// own address (region_fabric.go), takes its id from that shard's
// sequence, and counts toward that shard's totals for life.
// Registration happens after the parent pointer is set so the debug
// inspector never observes a half-built region.
func (a *Arena) newRegion(parent *Region) *Region {
	r := &Region{arena: a, parent: parent}
	if a.instr != (instruments{}) {
		r.instr = &a.instr
	}
	idx := a.shardIndexFor(unsafe.Pointer(r))
	sh := &a.shards[idx]
	r.shard = sh
	r.id = sh.nextSeq.Add(1)<<shardIDBits | int64(idx)
	sh.liveRegions.Add(1)
	a.register(r)
	r.note(TraceRegionCreated, 1)
	return r
}

// NewSubregion creates a region below r; it must be deleted before r.
// It panics if r has been deleted; use TryNewSubregion where a
// concurrent delete may race.
func (r *Region) NewSubregion() *Region {
	s, err := r.TryNewSubregion()
	if err != nil {
		panic(err)
	}
	return s
}

// TryNewSubregion creates a region below r, or returns ErrRegionDeleted
// if r has been deleted (ErrRegionOwned if it is exclusively owned —
// the owner alone decides the region's lifetime obligations).
func (r *Region) TryNewSubregion() (*Region, error) {
	r.mu.Lock()
	switch r.state.Load() {
	case stateAlive:
	case stateOwned:
		r.mu.Unlock()
		return nil, fmt.Errorf("%w: NewSubregion of region %d", ErrRegionOwned, r.id)
	default:
		r.mu.Unlock()
		return nil, fmt.Errorf("%w: NewSubregion of region %d", ErrRegionDeleted, r.id)
	}
	// Registered before mu is released, so a racing Delete of r sees the
	// child and fails with ErrRegionInUse.
	r.children.Add(1)
	r.mu.Unlock()
	return r.arena.newRegion(r), nil
}

// Obj is a region-allocated object holding a value of type T. The zero
// Obj is not valid; use Alloc.
type Obj[T any] struct {
	Value  T
	region *Region
}

// Alloc allocates a zero T in region r. It panics if r has been deleted;
// use TryAlloc where a concurrent delete may race.
func Alloc[T any](r *Region) *Obj[T] {
	o, err := TryAlloc[T](r)
	if err != nil {
		panic(err)
	}
	return o
}

// TryAlloc allocates a zero T in region r, or returns ErrRegionDeleted
// if r has been deleted.
//
// Fast path (region_alloccache.go): the object comes out of a pooled
// per-type chunk, and admission is the same increment-then-validate
// protocol incRC uses, on the region's own object counter — count the
// object, then check the region state. If the check observes stateAlive
// the allocation is admitted (that load is its linearization point: a
// delete committing afterwards simply owns the object, exactly as if it
// had raced a mutex-admitted path); any other settled state withdraws
// the count and fails. No lock is taken and no arena-shared cache line
// is touched.
func TryAlloc[T any](r *Region) (*Obj[T], error) {
	if err := fpAllocAdmission.Eval(); err != nil {
		return nil, fmt.Errorf("%w: allocation in region %d", err, r.id)
	}
	o, err := newChunkedObj[T](r)
	if err != nil {
		return nil, err
	}
	for {
		r.objs.Add(1)
		switch r.state.Load() {
		case stateAlive:
			if c := r.counters(); c != nil {
				c.allocs.Add(1)
			}
			return o, nil
		case stateDying:
			// A delete holds mu and is deciding; it may still fail, so
			// withdraw the provisional count and re-decide once settled.
			r.objs.Add(-1)
			runtime.Gosched()
		case stateOwned:
			r.objs.Add(-1)
			return nil, fmt.Errorf("%w: allocation in region %d", ErrRegionOwned, r.id)
		default:
			r.objs.Add(-1)
			return nil, fmt.Errorf("%w: allocation in region %d", ErrRegionDeleted, r.id)
		}
	}
}

// Region returns the region holding the object.
func (o *Obj[T]) Region() *Region { return o.region }

// Use returns a checked pointer to the object's value, panicking if the
// object's region has been reclaimed. This is the dynamic analogue of the
// dangling-pointer accesses that region safety prevents: with correct use
// of the counted/checked stores it can never fire. A deferred-deleted
// region's objects remain usable while existing references keep it from
// reclaim (the paper's GC-like third deletion policy) — only *new*
// references to it are rejected.
func (o *Obj[T]) Use() *T {
	if o.region.settled() == stateDead {
		panic(fmt.Sprintf("rcgo: use of object in deleted region %d", o.region.id))
	}
	return &o.Value
}

// settled returns the region's state, waiting out the transient dying
// window during which a concurrent delete holds mu and is deciding (the
// delete may still fail, so dying must not be reported as deleted).
func (r *Region) settled() int32 {
	for {
		s := r.state.Load()
		if s != stateDying {
			return s
		}
		runtime.Gosched()
	}
}

// incRC creates one external reference to r, failing if r has been
// deleted or deferred-deleted. The increment-then-validate protocol
// makes it linearizable against Delete: the increment is published
// first, then the state is checked — so either a concurrent Delete sees
// the reference and fails with ErrRegionInUse, or it has already
// committed and this call observes that and rolls back.
func (r *Region) incRC() error {
	for {
		r.rc.Add(1)
		// Failpoint inside the increment-then-validate window: an
		// injected error is a reference creation failing mid-protocol and
		// must withdraw its increment (and re-offer a drain the transient
		// increment may have suppressed), exactly like the zombie path.
		if err := fpIncRCValidate.Eval(); err != nil {
			r.rc.Add(-1)
			r.maybeDrain()
			return fmt.Errorf("%w: new reference to region %d", err, r.id)
		}
		switch r.state.Load() {
		case stateAlive:
			if c := r.counters(); c != nil {
				c.rcIncrements.Add(1)
			}
			return nil
		case stateDying:
			// A delete is deciding; our increment may have spoiled it
			// (fine: it fails ErrRegionInUse) or arrived after its rc
			// read (then it commits). Either way, withdraw and re-decide
			// once the state settles.
			r.rc.Add(-1)
			runtime.Gosched()
		case stateOwned:
			// New references to an owned region are the owner's business;
			// the transient increment may make an Owner.Delete fail with
			// ErrRegionInUse, which its callers retry exactly like the
			// dying race above. Pre-existing references stay free to
			// decRC while owned.
			r.rc.Add(-1)
			return fmt.Errorf("%w: new reference to region %d", ErrRegionOwned, r.id)
		default: // zombie or dead: no new references
			r.rc.Add(-1)
			r.maybeDrain()
			return fmt.Errorf("%w: new reference to region %d", ErrRegionDeleted, r.id)
		}
	}
}

// decRC releases one external reference, reclaiming a drained
// deferred-deleted region. Every decRC pairs a committed incRC, so the
// increment/decrement counters converge once references drain.
func (r *Region) decRC() {
	if c := r.counters(); c != nil {
		c.rcDecrements.Add(1)
	}
	if r.rc.Add(-1) == 0 {
		r.maybeDrain()
	}
}

// maybeDrain reclaims a zombie region whose references and subregions
// have drained. The zombie→dead transition is made exactly once, under
// mu, after re-validating the counts.
func (r *Region) maybeDrain() { r.drain(false) }

// drain is maybeDrain's implementation; it reports whether this call
// made the zombie→dead transition. force bypasses the zombie.drain
// failpoint: the recovery paths (Arena.SweepZombies, the watchdog) must
// be able to heal a drain the failpoint itself suppressed.
func (r *Region) drain(force bool) bool {
	if r.state.Load() != stateZombie {
		return false
	}
	// Failpoint on the drain edge: an injected error drops this drain
	// attempt on the floor — a lost wakeup, the stuck-zombie condition
	// the watchdog exists to detect and heal.
	if !force {
		if err := fpZombieDrain.Eval(); err != nil {
			return false
		}
	}
	r.mu.Lock()
	if r.state.Load() == stateZombie && r.rc.Load() == 0 && r.children.Load() == 0 {
		r.state.Store(stateDead)
		r.shard.deferredRegions.Add(-1)
		r.mu.Unlock()
		r.reclaim(nil)
		return true
	}
	r.mu.Unlock()
	return false
}

// Pin registers a local (Go-variable) reference to an object's region for
// the duration of code that may delete regions, mirroring the paper's
// handling of live local variables at deletes-calls. Returns an Unpin
// function (idempotent, safe to call from any goroutine). Pin panics if
// the region has already been deleted; use TryPin where a concurrent
// delete may race.
func Pin[T any](o *Obj[T]) (unpin func()) {
	unpin, err := TryPin(o)
	if err != nil {
		panic(err)
	}
	return unpin
}

// TryPin is Pin returning ErrRegionDeleted instead of panicking when the
// object's region has been deleted.
func TryPin[T any](o *Obj[T]) (unpin func(), err error) {
	if o == nil {
		return func() {}, nil
	}
	r := o.region
	if err := r.incRC(); err != nil {
		return nil, err
	}
	r.pins.Add(1)
	if c := r.counters(); c != nil {
		c.pinOps.Add(1)
	}
	var done atomic.Bool
	return func() {
		if done.Swap(true) {
			return
		}
		r.pins.Add(-1)
		r.decRC()
	}, nil
}

// Delete deletes the region and all its objects. It returns
// ErrRegionInUse while external references or subregions remain, and
// ErrRegionDeleted if the region was already deleted. Exactly one of any
// set of concurrent Delete calls can succeed.
func (r *Region) Delete() error {
	if r == r.arena.trad {
		return errors.New("rcgo: cannot delete the traditional region")
	}
	r.mu.Lock()
	switch r.state.Load() {
	case stateAlive:
	case stateOwned:
		// Only the token may delete an owned region (Owner.Delete).
		r.mu.Unlock()
		return fmt.Errorf("%w: delete of region %d", ErrRegionOwned, r.id)
	default:
		r.mu.Unlock()
		return fmt.Errorf("%w: double delete of region %d", ErrRegionDeleted, r.id)
	}
	if n := r.children.Load(); n > 0 {
		r.mu.Unlock()
		r.note(TraceDeleteBlocked, 1)
		return fmt.Errorf("%w (subregions=%d)", ErrRegionInUse, n)
	}
	// Close the gate: once dying is visible, incRC withdraws and waits,
	// so an rc of zero observed below cannot grow behind our back.
	r.state.Store(stateDying)
	// Failpoint inside the dying window: an injected error aborts the
	// delete with the gate restored (no decision was made); a delay or
	// yield holds the window open against racing incRCs.
	if err := fpDeleteDying.Eval(); err != nil {
		r.state.Store(stateAlive)
		r.mu.Unlock()
		return fmt.Errorf("%w: delete of region %d", err, r.id)
	}
	if n := r.rc.Load(); n != 0 {
		r.state.Store(stateAlive)
		r.mu.Unlock()
		r.note(TraceDeleteBlocked, 1)
		return fmt.Errorf("%w (rc=%d)", ErrRegionInUse, n)
	}
	r.state.Store(stateDead)
	r.shard.liveRegions.Add(-1)
	r.mu.Unlock()
	r.note(TraceRegionDeleted, 1)
	r.reclaim(nil)
	return nil
}

// DeleteDeferred marks the region for implicit deletion when it becomes
// unreferenced (the paper's third safety option, with semantics close to
// garbage collection). A deferred-deleted region immediately rejects new
// allocations, subregions, pins and inbound references (so its reclaim
// cannot be postponed indefinitely); clearing its outbound counted slots
// with nil stores remains allowed, which is how cross-region cycles are
// broken. No-op on the traditional region, one already deleted, or one
// that is exclusively owned (the owner decides its end through the
// token — Owner.Release then DeleteDeferred, or Owner.Delete).
func (r *Region) DeleteDeferred() {
	if r == r.arena.trad {
		return
	}
	r.mu.Lock()
	if r.state.Load() != stateAlive {
		r.mu.Unlock()
		return
	}
	r.state.Store(stateDying)
	drained := r.rc.Load() == 0 && r.children.Load() == 0
	// Same dying-window failpoint as Delete, but DeleteDeferred has no
	// error return: only the perturbing actions (delay/yield/hook) apply.
	// It sits between the count read and the state store below, the
	// window in which a release can drop the last reference unseen.
	fpDeleteDying.Perturb()
	if drained {
		r.state.Store(stateDead)
		r.shard.liveRegions.Add(-1)
		r.mu.Unlock()
		r.note(TraceRegionDeleted, 1)
		r.reclaim(nil)
		return
	}
	r.state.Store(stateZombie)
	r.since = time.Now()
	r.shard.liveRegions.Add(-1)
	r.shard.deferredRegions.Add(1)
	r.mu.Unlock()
	r.note(TraceRegionDeferred, 1)
	// A decRC or child delete that took the last count to zero after the
	// read above found the region dying, not zombie, and did not drain
	// it; re-offer the drain now that stateZombie is published.
	r.maybeDrain()
}

// reclaim frees the region's bookkeeping. The caller has already made
// the (exactly-once) transition to stateDead, so no new objects, slots
// or references can appear; concurrent stores that raced past the state
// check finished under the registry lock before the drain takes it.
// parked are the counted slots of the deleting owner's token (nil on
// every shared path): the unscan releases them with the registry's.
func (r *Region) reclaim(parked []releaser) {
	// The region's objects need no accounting here: a dead region reads
	// 0 objects whatever its counter holds (Region.Objects), and the
	// arena total sums only the regions still registered.
	//
	// Return parked allocation chunks to their per-type pools: the park
	// is a strong reference, and a dead region must not retain chunk
	// capacity other regions could reuse. A chunk an allocator raced out
	// of the park is already on its way back to the pool or exhausted.
	for i := range r.chunkPark {
		if b := r.chunkPark[i].Swap(nil); b != nil {
			b.c.release()
		}
	}
	// Return the region's slab pages to the backing store
	// (region_slab.go): the paper's reclaim-at-delete, for real — each
	// page is handed back for immediate reuse once its chunk's writer
	// gate drains, and no GC cycle is involved.
	r.releaseSlabPages()
	// The delete-time unscan: release the outbound counted references so
	// the targets' counts drop (and deferred deletions may cascade), the
	// registry's slice swapped out under its lock and released in place.
	// Releases run outside the lock: a release can reclaim its target,
	// which takes that region's locks in turn. Then the slots an owner
	// parked on its token (Owner.Delete), which never entered the
	// registry.
	g := &r.slots
	g.mu.Lock()
	slots := g.list
	g.list = nil
	g.mu.Unlock()
	for _, s := range slots {
		s.release(r)
	}
	for _, s := range parked {
		s.release(r)
	}
	// Clear the inline array. The released slice is either a prefix of
	// it or a heap array nothing references any more, and once the slice
	// has grown onto the heap the array still holds stale copies of the
	// first entries. A dead region stays reachable from its chunk-mates'
	// Obj.region after the chunk is reused, and an entry left here would
	// keep its slot's chunk — and the dead regions that chunk names —
	// alive.
	clear(g.inline[:])
	r.arena.unregister(r.id)
	r.note(TraceRegionReclaimed, 1)
	if p := r.parent; p != nil {
		p.children.Add(-1)
		p.maybeDrain()
	}
}
