package rcgo

import (
	"sync/atomic"
	"unsafe"
)

// Arena-wide cumulative operation counters for the concurrent Go-native
// runtime, mirroring internal/region.Stats — the dynamic counts the
// paper's Table 2 reports (reference-count updates versus cheap
// annotated checks), kept online instead of per offline run.
//
// Design (DESIGN.md §"Observability"):
//
//   - Counters are sharded atomics: each op picks a shard by hashing a
//     pointer it already holds (the slot address on store paths, the
//     region on lifecycle paths), so concurrent goroutines working on
//     different slots rarely share a counter cache line and the shards
//     scale like the slot registry does.
//   - Lifecycle counters are one array per shard indexed by TraceKind
//     (counterShard.events), filled only by Region.note
//     (region_trace.go): a lifecycle counter is the count of its event
//     kind. AcquireTimeouts/AcquireCancels split one kind by cause and
//     keep fields of their own, as does the AcquireWaitNanos sum.
//   - Counting is gated by a single pointer, cached on every Region
//     (first cache line, next to the identity fields the store paths
//     read anyway) and owned by the arena; the advisor and the tracer
//     share it. The annotated-store fast paths (SetSame/SetTrad/
//     SetParent) are the paper's whole cost argument — check-only, no
//     shared-memory writes — and on modern x86 even an uncontended
//     LOCK-prefixed add costs a store-buffer drain comparable to the
//     entire store; an extra dependent load
//     through the arena is measurable too, which is why the gate lives
//     on the region. Disabled (the default), instrumentation is one
//     already-hot pointer load and a never-taken branch, measured
//     within noise of the uninstrumented runtime (EXPERIMENTS.md
//     §"Observability overhead"); enabled, the full sharded-atomic cost
//     is paid and documented there.
//   - Metrics are chosen at NewArena (WithMetrics) and fixed for the
//     arena's life: counters are cumulative from birth and never reset,
//     so deltas taken by a monitoring scraper are always non-negative
//     and the identities documented on ArenaCounters hold at quiesce.
//
// Counters are exact, not sampled: every counted operation increments
// exactly one shard exactly once (verified under -race by
// region_trace_test.go).

// metricShards is the number of counter shards. Shards are padded to
// cache-line multiples so two shards never share a line.
const metricShards = 64

// counterShard is one shard of every counter: 26 counters * 8 bytes =
// 208 bytes, padded to 256 so shards start on separate cache lines.
type counterShard struct {
	allocs atomic.Int64
	// stores is indexed by StoreFlavour: completed SetRef stores, and
	// every SetSame/SetTrad/SetParent check.
	stores           [flavourCount]atomic.Int64
	rcIncrements     atomic.Int64
	rcDecrements     atomic.Int64
	checkFailures    atomic.Int64
	pinOps           atomic.Int64
	ownerFlushes     atomic.Int64
	acquireTimeouts  atomic.Int64
	acquireCancels   atomic.Int64
	acquireWaitNanos atomic.Int64
	// events is indexed by TraceKind: Region.note (region_trace.go)
	// counts every lifecycle transition here, so each lifecycle counter
	// of ArenaCounters is the count of its event kind.
	events [traceKinds]atomic.Int64
	_      [48]byte
}

// arenaMetrics is the sharded counter block, allocated by NewArena when
// metrics are on (64 shards * 256 B = 16 KiB per arena).
type arenaMetrics struct {
	shards [metricShards]counterShard
}

// shard picks the counter shard for a pointer the caller already holds,
// with the same Fibonacci hash the slot registry uses.
func (m *arenaMetrics) shard(p unsafe.Pointer) *counterShard {
	h := uintptr(p) * 0x9E3779B97F4A7C15 >> 32
	return &m.shards[h%metricShards]
}

// instruments holds the op counters, the annotation advisor
// (region_advisor.go) and the lifecycle tracer (region_trace.go), each
// nil when off. NewArena sets all three for the arena's life; every
// region gates them on one pointer, Region.instr.
type instruments struct {
	metrics *arenaMetrics
	advisor *arenaAdvisor
	tracer  Tracer
}

// counters returns the metric shard for pointer p, or nil while metrics
// are off (in is nil when no instrument is on).
func (in *instruments) counters(p unsafe.Pointer) *counterShard {
	if in != nil && in.metrics != nil {
		return in.metrics.shard(p)
	}
	return nil
}

// MetricsEnabled reports whether the arena was built WithMetrics.
func (a *Arena) MetricsEnabled() bool { return a.instr.metrics != nil }

// counters returns the counter shard for an operation on r, or nil
// when metrics are disabled.
func (r *Region) counters() *counterShard {
	return r.instr.counters(unsafe.Pointer(r))
}

// ArenaCounters is a snapshot of the arena's cumulative operation
// counters (zero when the arena was built without WithMetrics). It is
// the online analogue of internal/region.Stats: the paper's Table 2
// compares RCIncrements + RCDecrements (the expensive protocol) against
// SameChecks + TradChecks + ParentChecks (the cheap annotated checks).
type ArenaCounters struct {
	// Allocs counts successful object allocations across all regions.
	Allocs int64 `json:"allocs"`
	// CountedStores counts completed SetRef stores (the paper's
	// Figure 3(a) full-update protocol).
	CountedStores int64 `json:"counted_stores"`
	// RCIncrements / RCDecrements count committed reference-count
	// updates, from counted stores, pins, and delete-time unscans.
	RCIncrements int64 `json:"rc_increments"`
	RCDecrements int64 `json:"rc_decrements"`
	// SameChecks / TradChecks / ParentChecks count annotated stores by
	// flavour (each SetSame/SetTrad/SetParent call runs one check).
	SameChecks   int64 `json:"same_checks"`
	TradChecks   int64 `json:"trad_checks"`
	ParentChecks int64 `json:"parent_checks"`
	// CheckFailures counts annotated stores rejected with ErrBadRef.
	CheckFailures int64 `json:"check_failures"`
	// Deletes counts regions deleted on the spot: successful Deletes and
	// Owner.Deletes, and DeleteDeferred calls that found the region
	// already unreferenced (each is one deleted event).
	Deletes int64 `json:"deletes"`
	// DeletesBlocked counts explicit Deletes that failed with
	// ErrRegionInUse (live references or subregions).
	DeletesBlocked int64 `json:"deletes_blocked"`
	// DeferredDeletes counts DeleteDeferred calls that left a still
	// referenced region a zombie, to reclaim when its references drain
	// (each is one deferred event).
	DeferredDeletes int64 `json:"deferred_deletes"`
	// Reclaims counts regions whose storage was released; every dead
	// region is reclaimed exactly once, so at quiesce
	// Reclaims == Deletes + DeferredDeletes.
	Reclaims int64 `json:"reclaims"`
	// PinOps counts successful Pin/TryPin calls.
	PinOps int64 `json:"pin_ops"`
	// Acquires / Releases count successful exclusive-ownership
	// transitions (region_owner.go), whether uncontended or delivered by
	// hand-off. An Owner.Delete counts as one release and one delete; a
	// forced revocation (OwnerRevocations) retires a token without a
	// release, so at quiesce Acquires == Releases + OwnerRevocations.
	Acquires int64 `json:"acquires"`
	Releases int64 `json:"releases"`
	// OwnerFlushes counts Release-time merges of owner-local metric
	// deltas that carried at least one nonzero counter.
	OwnerFlushes int64 `json:"owner_flushes"`
	// AcquireWaits counts AcquireContext calls that found the region
	// owned and parked on its wait queue; AcquireTimeouts and
	// AcquireCancels count the parked waits that ended with
	// context.DeadlineExceeded and context.Canceled respectively (the
	// remainder received a hand-off). AcquireWaitNanos accrues the wall
	// time parked waiters spent waiting, however the wait ended —
	// AcquireWaitNanos/AcquireWaits is the mean queueing delay.
	AcquireWaits     int64 `json:"acquire_waits"`
	AcquireTimeouts  int64 `json:"acquire_timeouts"`
	AcquireCancels   int64 `json:"acquire_cancels"`
	AcquireWaitNanos int64 `json:"acquire_wait_ns"`
	// OwnerRevocations counts stale tokens forcibly retired by the
	// OwnerWatchdog's escape hatch (region_watchdog.go).
	OwnerRevocations int64 `json:"owner_revocations"`
	// SlabRefills counts object chunks carved from the off-heap
	// backing store (region_slab.go); SlabReleases counts pages
	// returned to it at region reclaim. At quiesce with every
	// slab-backed region reclaimed, SlabRefills == SlabReleases — a
	// shortfall is a leaked page (the chaos slab phase's judge).
	SlabRefills  int64 `json:"slab_refills"`
	SlabReleases int64 `json:"slab_releases"`
}

// Counters returns a snapshot of the cumulative counters by summing the
// shards. Each shard is read atomically; the sum is a consistent total
// once the arena quiesces and a monotonic approximation while ops are in
// flight.
func (a *Arena) Counters() ArenaCounters {
	m := a.instr.metrics
	if m == nil {
		return ArenaCounters{}
	}
	var c ArenaCounters
	for i := range m.shards {
		s := &m.shards[i]
		c.Allocs += s.allocs.Load()
		c.CountedStores += s.stores[FlavourRef].Load()
		c.RCIncrements += s.rcIncrements.Load()
		c.RCDecrements += s.rcDecrements.Load()
		c.SameChecks += s.stores[FlavourSame].Load()
		c.TradChecks += s.stores[FlavourTrad].Load()
		c.ParentChecks += s.stores[FlavourParent].Load()
		c.CheckFailures += s.checkFailures.Load()
		c.PinOps += s.pinOps.Load()
		c.OwnerFlushes += s.ownerFlushes.Load()
		c.AcquireTimeouts += s.acquireTimeouts.Load()
		c.AcquireCancels += s.acquireCancels.Load()
		c.AcquireWaitNanos += s.acquireWaitNanos.Load()
		ev := &s.events
		c.Deletes += ev[TraceRegionDeleted].Load()
		c.DeletesBlocked += ev[TraceDeleteBlocked].Load()
		c.DeferredDeletes += ev[TraceRegionDeferred].Load()
		c.Reclaims += ev[TraceRegionReclaimed].Load()
		c.Acquires += ev[TraceRegionAcquired].Load()
		c.Releases += ev[TraceRegionReleased].Load()
		c.AcquireWaits += ev[TraceAcquireBlocked].Load()
		c.OwnerRevocations += ev[TraceOwnerRevoked].Load()
		c.SlabRefills += ev[TraceSlabMapped].Load()
		c.SlabReleases += ev[TraceSlabReleased].Load()
	}
	return c
}
