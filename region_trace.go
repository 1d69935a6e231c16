package rcgo

import (
	"fmt"
	"sort"
	"sync/atomic"
	"unsafe"
)

// Region lifecycle events for the concurrent Go-native runtime.
//
// Every lifecycle transition — the paper's dynamic behaviour that
// Table 2 measures offline — goes through one point, Region.note. It
// counts the transition in the metric shards' per-kind event array
// (region_metrics.go), so each lifecycle counter of ArenaCounters is
// the count of its event kind, and hands a Tracer the region's
// identity, its parent, and the reference count at the instant of the
// event. Both instruments sit behind the one gate every region caches,
// Region.instr: disarmed, a transition pays the call, one load and one
// branch; the store fast paths never note. The tracer is installed at
// NewArena (WithTracer) and fixed for the arena's life. The one
// store-path kind, TraceStoreUpgradeable, fires at most once per
// advisor call-site entry and only while the annotation advisor
// (region_advisor.go) is armed.
//
// Events are noted after the region's lifecycle mutex is released, so
// a Tracer implementation may safely call back into the runtime (Stats,
// Hierarchy, ...). The price is ordering: two goroutines' events for
// one region can reach the tracer in the opposite order of their
// transitions — an uncontended Owner.Release traces its released event
// after unlocking, so a TryAcquire racing into that gap can trace
// acquired first. The trace stream is a log, not the region's state;
// read the state from the region (Stats, Owners, the watchdogs).

// TraceKind identifies a region lifecycle event.
type TraceKind int32

const (
	// TraceRegionCreated: a region was created (NewRegion/NewSubregion).
	TraceRegionCreated TraceKind = iota
	// TraceRegionDeleted: an explicit Delete (or Owner.Delete)
	// succeeded, or a DeleteDeferred found the region already
	// unreferenced and deleted it on the spot. A TraceRegionReclaimed
	// event always follows.
	TraceRegionDeleted
	// TraceRegionDeferred: DeleteDeferred marked a still-referenced
	// region as a zombie; it reclaims when its references drain.
	TraceRegionDeferred
	// TraceRegionReclaimed: the region's storage was released. Emitted
	// exactly once per dead region, whether it died explicitly or by
	// zombie drain.
	TraceRegionReclaimed
	// TraceDeleteBlocked: an explicit Delete failed with ErrRegionInUse;
	// the event's RC names the count that blocked it (0 when subregions
	// blocked it instead).
	TraceDeleteBlocked
	// TraceStoreUpgradeable: the annotation advisor (region_advisor.go)
	// observed a store call site's first downgrade-worthy store — a
	// store whose flavour lattice classification admits a cheaper
	// flavour than the one used. Emitted once per profiled call site
	// (not per store), with the holder region's identity; the advisor
	// report names the site and the recommended flavour. Only emitted
	// while the advisor is armed.
	TraceStoreUpgradeable
	// TraceRegionAcquired: a goroutine took exclusive ownership of the
	// region (Region.TryAcquire, region_owner.go).
	TraceRegionAcquired
	// TraceRegionReleased: an Owner token returned the region to the
	// shared state (Owner.Release), or Owner.Delete consumed it — the
	// latter emits released followed by deleted and reclaimed.
	TraceRegionReleased
	// TraceAcquireBlocked: an AcquireContext contender found the region
	// owned and parked on its wait queue (region_owner.go). Emitted by
	// the waiter after parking; a later acquired event from the same
	// goroutine means the hand-off reached it.
	TraceAcquireBlocked
	// TraceAcquireAborted: a parked AcquireContext gave up — its context
	// was cancelled or its deadline expired — and left the queue (or
	// disposed of a token that arrived too late).
	TraceAcquireAborted
	// TraceOwnerRevoked: the OwnerWatchdog's forced release condemned a
	// stale Owner token (ErrOwnerRevoked) and moved the region on to the
	// next waiter or back to the shared state.
	TraceOwnerRevoked
	// TraceSlabMapped: the allocation fast path carved an object chunk
	// from the arena's off-heap backing store for this region
	// (region_slab.go). One event per page, not per object.
	TraceSlabMapped
	// TraceSlabReleased: reclaim returned the region's slab pages to
	// the backing store. One event per region, emitted before the
	// reclaimed event; its count (SlabReleases) grows by the page count.
	TraceSlabReleased
)

// traceKinds is the number of event kinds: the length of the name table
// and of each metric shard's per-kind event counters.
const traceKinds = TraceSlabReleased + 1

// traceKindNames names each kind, in TraceKind order.
var traceKindNames = [traceKinds]string{
	"created", "deleted", "deferred", "reclaimed", "delete-blocked",
	"store-upgradeable", "acquired", "released", "acquire-blocked",
	"acquire-aborted", "owner-revoked", "slab-mapped", "slab-released",
}

// String names the event kind.
func (k TraceKind) String() string {
	if k >= 0 && k < traceKinds {
		return traceKindNames[k]
	}
	return fmt.Sprintf("TraceKind(%d)", int32(k))
}

// MarshalText renders the kind as its name in JSON output.
func (k TraceKind) MarshalText() ([]byte, error) { return []byte(k.String()), nil }

// UnmarshalText parses the name MarshalText produces, so traced events
// round-trip through JSON (the /trace endpoint's clients decode into
// the same types).
func (k *TraceKind) UnmarshalText(b []byte) error {
	for i, name := range traceKindNames {
		if name == string(b) {
			*k = TraceKind(i)
			return nil
		}
	}
	return fmt.Errorf("unknown trace kind %q", b)
}

// TraceEvent is one region lifecycle event.
type TraceEvent struct {
	// Seq is a tracer-assigned sequence number (RingTracer fills it;
	// other implementations may leave it zero).
	Seq uint64 `json:"seq"`
	// Kind is the lifecycle transition.
	Kind TraceKind `json:"kind"`
	// Region is the id of the region the event is about.
	Region int64 `json:"region"`
	// Parent is the id of the region's parent, 0 for top-level regions.
	Parent int64 `json:"parent,omitempty"`
	// RC is the region's external reference count at event time.
	RC int64 `json:"rc"`
	// Subregions is the region's live child count at event time.
	Subregions int64 `json:"subregions,omitempty"`
}

// Tracer observes region lifecycle events. Implementations must be safe
// for concurrent use: events are delivered from whatever goroutine
// performed the transition, with no ordering guarantee across
// goroutines (see the file comment).
type Tracer interface {
	Trace(ev TraceEvent)
}

// note records one lifecycle transition of r on the one instrument
// gate: n more events of kind in the metric shards when metrics are on
// (n is 1 but for a slab release, which counts its pages), and one
// TraceEvent to the tracer when one is set. Disarmed, it costs the load
// of r.instr and a branch. Callers must not hold r.mu: tracers may call
// back into the runtime.
func (r *Region) note(kind TraceKind, n int64) {
	in := r.instr
	if in == nil {
		return
	}
	if in.metrics != nil {
		in.metrics.shard(unsafe.Pointer(r)).events[kind].Add(n)
	}
	if in.tracer == nil {
		return
	}
	var parent int64
	if r.parent != nil {
		parent = r.parent.id
	}
	in.tracer.Trace(TraceEvent{
		Kind:       kind,
		Region:     r.id,
		Parent:     parent,
		RC:         r.rc.Load(),
		Subregions: r.children.Load(),
	})
}

// RingTracer is a lock-free, fixed-capacity ring buffer of the most
// recent lifecycle events. Writers never block and never take a lock: a
// single atomic fetch-add claims a slot, and the event is published with
// an atomic pointer store, so the tracer is safe on the delete path of
// any number of goroutines. When the ring wraps, the oldest events are
// overwritten.
//
// Total counts every event ever traced (monotonic, never wraps), so a
// reader can detect overwrites: Total() - len(Events()) events have been
// dropped from the window.
type RingTracer struct {
	mask  uint64
	pos   atomic.Uint64
	slots []atomic.Pointer[TraceEvent]
}

// NewRingTracer creates a ring holding the last capacity events
// (rounded up to a power of two, minimum 16).
func NewRingTracer(capacity int) *RingTracer {
	n := 16
	for n < capacity {
		n <<= 1
	}
	return &RingTracer{mask: uint64(n - 1), slots: make([]atomic.Pointer[TraceEvent], n)}
}

// Trace implements Tracer.
func (t *RingTracer) Trace(ev TraceEvent) {
	i := t.pos.Add(1) - 1
	ev.Seq = i
	t.slots[i&t.mask].Store(&ev)
}

// Total returns the number of events ever traced, including any that
// have been overwritten.
func (t *RingTracer) Total() uint64 { return t.pos.Load() }

// Dropped returns the number of events overwritten by ring wrap-around
// — events traced but no longer in the window. A chaos or audit run
// that needs every lifecycle event checks Dropped() == 0 (or sizes the
// ring up) before trusting Events() to be complete.
func (t *RingTracer) Dropped() uint64 {
	total := t.pos.Load()
	if c := uint64(len(t.slots)); total > c {
		return total - c
	}
	return 0
}

// TraceStats is a snapshot of a RingTracer's occupancy: how many events
// were ever traced, how many the window can hold, and how many have
// been dropped to wrap-around. Exposed by the DebugHandler and
// PublishExpvar JSON so monitoring can detect lost lifecycle events.
type TraceStats struct {
	// Capacity is the ring size (power of two).
	Capacity int `json:"capacity"`
	// Total counts every event ever traced (monotonic).
	Total uint64 `json:"total"`
	// Buffered is the number of events currently in the window.
	Buffered int `json:"buffered"`
	// Dropped is Total minus Buffered: events lost to wrap-around.
	Dropped uint64 `json:"dropped"`
}

// TraceStats returns the ring's occupancy snapshot.
func (t *RingTracer) TraceStats() TraceStats {
	total := t.pos.Load()
	buffered := total
	if c := uint64(len(t.slots)); buffered > c {
		buffered = c
	}
	return TraceStats{
		Capacity: len(t.slots),
		Total:    total,
		Buffered: int(buffered),
		Dropped:  total - buffered,
	}
}

// traceStats returns the installed tracer's ring statistics, if it
// exposes any.
func (a *Arena) traceStats() (TraceStats, bool) {
	if ts, ok := a.instr.tracer.(interface{ TraceStats() TraceStats }); ok {
		return ts.TraceStats(), true
	}
	return TraceStats{}, false
}

// traceEvents returns the installed tracer's buffered events — a
// RingTracer's, or anything else with an Events method — for the debug
// inspector's /trace endpoint.
func (a *Arena) traceEvents() ([]TraceEvent, bool) {
	if ev, ok := a.instr.tracer.(interface{ Events() []TraceEvent }); ok {
		return ev.Events(), true
	}
	return nil, false
}

// Events returns the buffered events in sequence order, oldest first.
// The snapshot is taken without stopping writers: under concurrent
// tracing it is a consistent set of recently published events, not an
// atomic cut; once tracing quiesces it is exact.
func (t *RingTracer) Events() []TraceEvent {
	out := make([]TraceEvent, 0, len(t.slots))
	for i := range t.slots {
		if ev := t.slots[i].Load(); ev != nil {
			out = append(out, *ev)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Seq < out[j].Seq })
	return out
}
