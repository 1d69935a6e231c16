package rcgo

import (
	"runtime"
	"sync"
	"sync/atomic"
	"unsafe"
)

// The sharding fabric inside an Arena (DESIGN.md §12).
//
// One arena used to funnel every region through a single id counter
// and one 16-way registry — shared cache lines that every region
// creation and deletion bounced between cores. The fabric splits the
// arena into N internal shards (default derived from GOMAXPROCS at
// construction): a region is assigned to one shard for life at
// creation, and what the region touches on the arena's behalf — its id
// sequence and its registry entry — lives on that shard's cache lines.
// Regions created by different goroutines land on different shards
// (assignment hashes the region's own address, which the Go allocator
// hands out from the creating P's spans), so concurrent region churn
// stops sharing lines.
//
// The fabric still looks like exactly one arena to callers:
//
//   - The registry is the one record of the region population. A
//     region's state lives in its own state word and wait queue, so
//     ArenaStats, LiveRegions, DeferredRegions, OwnedRegions,
//     AcquireWaiters and LiveObjects count the registered regions
//     (region_stats.go) and keep no copy that could drift; the sum is
//     exact at quiesce. RegionsCreated sums the shards' id sequences.
//   - EachRegion walks the shards in ascending shard-index order (see
//     its doc comment for the consistency contract).
//   - Region IDs are shard-encoded but globally unique and stable (see
//     Region.ID), so traces, debug reports and audits from different
//     shards can never collide.
//
// Cross-shard region relationships are unrestricted: a parent on shard A
// may have children on shard B. Parent/child bookkeeping (the children
// counter, cascaded zombie drains) lives on the regions themselves, not
// on the shards, so deletion order and population audits are unaffected
// by where the regions hash.

// shardIDBits is the width of the shard index inside a region id:
// id = seq<<shardIDBits | shardIndex. 8 bits bounds an arena at
// maxArenaShards shards and leaves 55 bits of per-shard sequence.
const shardIDBits = 8

// maxArenaShards caps WithShards: the shard index must fit in
// shardIDBits.
const maxArenaShards = 1 << shardIDBits

// registrySubShards is the number of id→region registry sub-shards per
// fabric shard, so create/reclaim of regions that hash to one fabric
// shard still rarely share a registry lock.
const registrySubShards = 4

// arenaShard is one shard of the fabric: an id sequence segment and a
// registry segment. nextSeq is padded to a cache line of its own, so
// the struct is two lines and one shard's sequence never shares a line
// with a neighbouring shard's registry locks (TestArenaShardCacheLines).
type arenaShard struct {
	// nextSeq is the shard's region id sequence; region ids are
	// seq<<shardIDBits | shardIndex, so sequences on different shards can
	// never mint the same id.
	nextSeq atomic.Int64
	_       [56]byte // pad the sequence to a line of its own

	// registry is the shard's segment of the id→region index behind
	// EachRegion, the population counts and the debug inspector:
	// regions register at creation and unregister at reclaim, so it
	// holds exactly the live and zombie regions assigned to this shard
	// (and, briefly, one that died and is not yet unregistered).
	registry [registrySubShards]regionShard
}

type regionShard struct {
	mu sync.Mutex
	m  map[int64]*Region
}

// Option configures an Arena at construction. Options are applied in
// order by NewArena; later options win where they overlap.
type Option func(*arenaConfig)

type arenaConfig struct {
	shards  int
	metrics bool
	advisor bool
	tracer  Tracer
	backing BackingStore
}

// WithShards fixes the number of internal fabric shards. n is clamped
// to [1, 256] and rounded up to the next power of two (the shard pick
// is a mask). WithShards(1) reproduces the pre-fabric single-arena
// behaviour — every region on one shard — and is the baseline side of
// the fabric A/B benchmarks (cmd/rcbench -ab fabric). The default,
// without this option, derives the count from GOMAXPROCS at
// construction time.
func WithShards(n int) Option {
	return func(c *arenaConfig) { c.shards = n }
}

// WithMetrics enables the arena's cumulative operation counters from
// birth: no operation can predate the gate, so counters cover the
// arena's whole life. Without it, Counters reports zero and the debug
// inspector's /counters omits the counters.
func WithMetrics() Option {
	return func(c *arenaConfig) { c.metrics = true }
}

// WithTracer installs t as the arena's lifecycle tracer for its whole
// life; the traditional region's creation is the first event delivered.
// A nil t leaves the arena untraced.
func WithTracer(t Tracer) Option {
	return func(c *arenaConfig) { c.tracer = t }
}

// defaultShardCount derives the fabric width from GOMAXPROCS at
// construction: the next power of two at or above it, within
// [1, maxArenaShards].
func defaultShardCount() int {
	return clampShards(runtime.GOMAXPROCS(0))
}

func clampShards(n int) int {
	if n < 1 {
		n = 1
	}
	if n > maxArenaShards {
		n = maxArenaShards
	}
	p := 1
	for p < n {
		p <<= 1
	}
	return p
}

// NewArena creates an empty arena, configured by the given options:
//
//	a := rcgo.NewArena(
//		rcgo.WithShards(8),          // fabric width (default: GOMAXPROCS-derived)
//		rcgo.WithMetrics(),          // cumulative op counters
//		rcgo.WithAdvisor(),          // annotation advisor
//		rcgo.WithTracer(tracer),     // lifecycle tracer
//		rcgo.WithOffHeapSlabs(),     // off-heap slab backing store (region_slab.go)
//	)
//
// Every option is fixed for the arena's life: there are no setters, so
// each instrument sees every operation from the traditional region's
// creation on. nil options are ignored.
func NewArena(opts ...Option) *Arena {
	var cfg arenaConfig
	for _, opt := range opts {
		if opt != nil {
			opt(&cfg)
		}
	}
	n := defaultShardCount()
	if cfg.shards != 0 {
		n = clampShards(cfg.shards)
	}
	a := &Arena{
		shards:    make([]arenaShard, n),
		shardMask: uint64(n - 1),
		backing:   cfg.backing,
	}
	a.instr.tracer = cfg.tracer
	if cfg.metrics {
		a.instr.metrics = &arenaMetrics{}
	}
	if cfg.advisor {
		a.instr.advisor = &arenaAdvisor{}
	}
	a.trad = a.NewRegion()
	return a
}

// Shards returns the number of internal fabric shards the arena was
// constructed with. Purely introspective: the fabric is invisible to
// every other API except the shard index encoded in region ids.
func (a *Arena) Shards() int { return len(a.shards) }

// shardIndexFor assigns a shard to a new region by Fibonacci-hashing
// the region's own address: goroutine-correlated (the Go allocator
// hands a goroutine addresses from its P's spans), so concurrent
// creators spread across shards without any shared assignment state.
func (a *Arena) shardIndexFor(p unsafe.Pointer) uint64 {
	h := uintptr(p) * 0x9E3779B97F4A7C15 >> 32
	return uint64(h) & a.shardMask
}

// shardOfID decodes the shard index a region id encodes. Valid for any
// id the arena minted; foreign values map to some shard and simply miss
// in its registry.
func (a *Arena) shardOfID(id int64) *arenaShard {
	return &a.shards[uint64(id)&a.shardMask]
}

// RegionShard returns the fabric shard index encoded in a region id
// (the inverse of the encoding documented on Region.ID). It does not
// check that a region with that id exists.
func (a *Arena) RegionShard(id int64) int {
	return int(uint64(id) & a.shardMask)
}

// registryShard returns the registry sub-shard responsible for id: the
// id's fabric shard, then a sub-shard picked by the sequence part so
// consecutive creations on one shard spread over its locks.
func (a *Arena) registryShard(id int64) *regionShard {
	sh := a.shardOfID(id)
	return &sh.registry[(uint64(id)>>shardIDBits)%registrySubShards]
}

func (a *Arena) register(r *Region) {
	sh := a.registryShard(r.id)
	sh.mu.Lock()
	if sh.m == nil {
		sh.m = make(map[int64]*Region)
	}
	sh.m[r.id] = r
	sh.mu.Unlock()
}

func (a *Arena) unregister(id int64) {
	sh := a.registryShard(id)
	sh.mu.Lock()
	delete(sh.m, id)
	sh.mu.Unlock()
}

// findRegion returns the registered region with the given id, or nil.
func (a *Arena) findRegion(id int64) *Region {
	sh := a.registryShard(id)
	sh.mu.Lock()
	r := sh.m[id]
	sh.mu.Unlock()
	return r
}

// EachRegion calls f for every region that is live or awaiting deferred
// reclaim (zombie), including the traditional region.
//
// Ordering and consistency across the fabric: regions are visited
// grouped by fabric shard in ascending shard-index order (all of shard
// 0's regions, then shard 1's, …); within one shard the order is
// unspecified. The snapshot is taken one registry sub-shard at a time,
// never holding more than one lock: regions created or reclaimed while
// the walk runs may or may not be visited (a region that migrates
// states mid-walk is visited at most once — assignment to a shard is
// permanent), and f is never called with a region whose storage was
// released before the walk began. The walk is not an atomic cut across
// shards; quiesce the arena first if an exact population is required.
func (a *Arena) EachRegion(f func(r *Region)) {
	for i := range a.shards {
		for j := range a.shards[i].registry {
			sh := &a.shards[i].registry[j]
			sh.mu.Lock()
			regions := make([]*Region, 0, len(sh.m))
			for _, r := range sh.m {
				regions = append(regions, r)
			}
			sh.mu.Unlock()
			for _, r := range regions {
				f(r)
			}
		}
	}
}
