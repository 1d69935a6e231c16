package rcgo

import (
	"fmt"
	"sort"
	"strings"
)

// Whole-arena invariant auditing. Audit cross-checks every piece of
// bookkeeping the runtime maintains redundantly — per-region atomic
// counters, the per-region slot registries, the parent/child population,
// and the arena-wide totals — and reports every inconsistency as a
// structured violation. The paper's safety argument reduces to "a
// region is reclaimed only when its external reference count is zero";
// the auditor checks that the reference counts themselves are telling
// the truth.
//
// Audit is exact on a quiesced arena (no operations in flight): the
// chaos harness (cmd/rcchaos, chaos_test.go) requires a clean report
// after every quiesce point, with failpoints having fired on every
// lifecycle edge. On a live arena the scan is safe (locks are taken one
// at a time, like the debug inspector) but counters are read at
// slightly different instants, so in-flight operations can surface
// as transient rc-accounting or total mismatches; a live report is
// advisory, a quiesced report is ground truth.
//
// Exclusive ownership (region_owner.go) narrows the contract in one
// place: while a region is owned, counted slots its owner registered
// through the token are parked on the token and invisible to the
// inbound scan, though each one's external target already carries the
// committed rc unit — so the auditor suppresses the rc-accounting rule
// entirely while any region is owned (sampled at scan start and again
// at check time), and the rule becomes exact again once every token is
// released (the chaos ownership phase audits after quiesce, when
// Acquires == Releases). Everything else stays exact.

// Audit rule names, one per invariant class. Enumerated in DESIGN.md
// §"Failure model".
const (
	// AuditNegativeCounter: a region counter (rc, pins, objects,
	// subregions) is negative — an unbalanced increment/decrement pair.
	AuditNegativeCounter = "negative-counter"
	// AuditPinsExceedRC: pins > rc; every pin is part of rc, so the pin
	// subset can never exceed the whole.
	AuditPinsExceedRC = "pins-exceed-rc"
	// AuditDeadInRegistry: a reclaimed region is still in the id
	// registry; reclaim must unregister exactly once.
	AuditDeadInRegistry = "dead-in-registry"
	// AuditRCAccounting: rc != pins + registered external slots pointing
	// at the region; some reference exists that neither the pin counter
	// nor any slot registry accounts for (or vice versa).
	AuditRCAccounting = "rc-accounting"
	// AuditChildrenCount: a region's subregion counter disagrees with
	// the number of registered regions naming it as parent.
	AuditChildrenCount = "children-count"
	// AuditParentDead: a region's parent has been reclaimed while the
	// child remains — deletion order must be children-first.
	AuditParentDead = "parent-dead"
	// AuditSlotIntoDead: a registered counted slot points into a
	// reclaimed region — a dangling reference, the exact failure the
	// paper's safety property forbids.
	AuditSlotIntoDead = "slot-into-dead"
	// AuditZombieReclaimable: a zombie region has rc 0 and no
	// subregions but was not reclaimed — a lost drain wakeup (the
	// zombie.drain failpoint induces this; SweepZombies heals it).
	AuditZombieReclaimable = "zombie-reclaimable"
	// AuditLiveRegionsTotal / AuditDeferredRegionsTotal: a fabric
	// shard's slice of an arena-wide total disagrees with the sum over
	// the regions assigned to that shard (region_fabric.go). Checked per
	// shard, so a region accounted on the wrong shard is a violation
	// even when the arena-wide sum happens to balance.
	AuditLiveRegionsTotal     = "live-regions-total"
	AuditDeferredRegionsTotal = "deferred-regions-total"
	// AuditOwnedState: a region's owned flag and its owner token pointer
	// disagree — stateOwned with no Owner installed, or an Owner
	// installed on a region that is not owned (region_owner.go). Both
	// sides change together under the lifecycle mutex, so a quiesced
	// disagreement means a broken acquire/release transition; on a live
	// arena a transition between the two reads makes this advisory.
	AuditOwnedState = "owned-state"
	// AuditOwnedRegionsTotal: a fabric shard's ownedRegions counter
	// disagrees with the registered stateOwned regions assigned to it,
	// same per-shard discipline as the other total rules.
	AuditOwnedRegionsTotal = "owned-regions-total"
	// AuditWaitersOnUnowned: a region that is not exclusively owned has
	// AcquireContext waiters parked on its queue (region_owner.go).
	// Waiters are appended only while stateOwned and the hand-off never
	// leaves the queue non-empty when returning the region to the shared
	// state, so a stable disagreement means a broken park/hand-off
	// transition; on a live arena a transition between the two samples
	// makes this advisory.
	AuditWaitersOnUnowned = "waiters-on-unowned"
	// AuditAcquireWaitersTotal: a fabric shard's acquireWaiters gauge
	// disagrees with the summed wait-queue lengths of the regions
	// assigned to it, same per-shard discipline as the other total
	// rules. Exact at quiesce (every parked waiter is counted on its
	// region's shard at park and uncounted at pop/splice/queue-failure).
	AuditAcquireWaitersTotal = "acquire-waiters-total"
	// AuditSlabPagesTotal: the backing store's in-use page count
	// disagrees with the pages tracked by the registered regions' slab
	// page lists (region_slab.go). At quiesce every carved page is on
	// exactly one live region's list and every reclaimed region's pages
	// are back in the store, so a surplus on the store side is a leaked
	// page — the exact failure the chaos slab phase judges. On a live
	// arena an in-flight carve or reclaim makes this advisory, like the
	// other totals.
	AuditSlabPagesTotal = "slab-pages-total"
	// AuditSlabStoreAccounting: the backing store's own partition is
	// inconsistent — carved pages != in-use + free. This invariant
	// holds under the store mutex at all times, so even a live-arena
	// violation means corrupt store bookkeeping, never in-flight skew.
	AuditSlabStoreAccounting = "slab-store-accounting"
)

// AuditViolation is one detected invariant breach.
type AuditViolation struct {
	// Rule is the Audit* rule name.
	Rule string `json:"rule"`
	// Region is the region the violation is about (0 for arena-wide
	// totals).
	Region int64 `json:"region,omitempty"`
	// Got and Want are the disagreeing values, where the rule has a
	// numeric shape.
	Got  int64 `json:"got"`
	Want int64 `json:"want"`
	// Detail is a human-readable description.
	Detail string `json:"detail"`
}

func (v AuditViolation) String() string {
	if v.Region != 0 {
		return fmt.Sprintf("%s: region %d: %s", v.Rule, v.Region, v.Detail)
	}
	return fmt.Sprintf("%s: %s", v.Rule, v.Detail)
}

// AuditReport is the result of one Audit pass.
type AuditReport struct {
	// RegionsScanned and SlotsScanned size the scan: every registered
	// region, and every registered counted slot of every one of them.
	RegionsScanned int `json:"regions_scanned"`
	SlotsScanned   int `json:"slots_scanned"`
	// Violations is every invariant breach found, sorted by rule then
	// region; empty (and OK true) on a healthy arena.
	Violations []AuditViolation `json:"violations"`
	// OK is len(Violations) == 0.
	OK bool `json:"ok"`
}

// String renders the report for logs: one line when clean, one line per
// violation otherwise.
func (rep AuditReport) String() string {
	if rep.OK {
		return fmt.Sprintf("audit: ok (%d regions, %d slots)",
			rep.RegionsScanned, rep.SlotsScanned)
	}
	var b strings.Builder
	fmt.Fprintf(&b, "audit: %d violation(s) over %d regions, %d slots\n",
		len(rep.Violations), rep.RegionsScanned, rep.SlotsScanned)
	for _, v := range rep.Violations {
		fmt.Fprintf(&b, "  %s\n", v)
	}
	return strings.TrimRight(b.String(), "\n")
}

// Audit scans the whole arena and cross-checks its redundant
// bookkeeping (see the file comment for the exactness contract). The
// scan never blocks the runtime: it takes the fabric's registry locks
// and each region's slot-registry lock one at a time, exactly like the
// debug inspector.
func (a *Arena) Audit() AuditReport {
	var rep AuditReport
	add := func(rule string, region int64, got, want int64, format string, args ...any) {
		rep.Violations = append(rep.Violations, AuditViolation{
			Rule: rule, Region: region, Got: got, Want: want,
			Detail: fmt.Sprintf(format, args...),
		})
	}

	var regions []*Region
	a.EachRegion(func(r *Region) { regions = append(regions, r) })
	rep.RegionsScanned = len(regions)

	// While any region is owned, counted slots parked on its Owner token
	// are invisible to the inbound scan below even though their targets'
	// rc units are committed, so the rc-accounting rule would report
	// structural undercounts that are not violations. Sample here and
	// again at check time; either sample nonzero suppresses the rule
	// (see the file comment — every other rule stays exact).
	ownedSomewhere := a.OwnedRegions() != 0

	// Pass 1: the slot registries. inbound[target] counts registered
	// external counted slots pointing at target; each such slot holds
	// exactly one committed rc unit on its target.
	inbound := make(map[*Region]int64, len(regions))
	for _, holder := range regions {
		slots := holder.slots.snapshot()
		rep.SlotsScanned += len(slots)
		for _, s := range slots {
			t := s.targetRegion()
			if t == nil || t == holder {
				continue
			}
			inbound[t]++
			// Re-read after classifying so a slot cleared or a target
			// reclaimed mid-scan does not report a spurious dangle.
			if t.Stats().Reclaimed && s.targetRegion() == t {
				add(AuditSlotIntoDead, holder.id, t.id, 0,
					"registered counted slot points into reclaimed region %d", t.id)
			}
		}
	}

	// Pass 2: per-region counters and state legality, plus the
	// parent/child population. The per-region sums are indexed by the
	// fabric shard each region is assigned to (decoded from its id), so
	// pass 3 can hold every shard to its own slice of the totals.
	childCount := make(map[*Region]int64, len(regions))
	liveByShard := make([]int64, len(a.shards))
	deferredByShard := make([]int64, len(a.shards))
	ownedByShard := make([]int64, len(a.shards))
	waitersByShard := make([]int64, len(a.shards))
	for _, r := range regions {
		ownerBefore := r.owner.Load() != nil
		waitersBefore := r.waiterCount()
		st := r.Stats()
		if st.Reclaimed {
			if a.findRegion(r.id) != nil {
				add(AuditDeadInRegistry, r.id, 0, 0, "reclaimed region still registered")
			}
			// Reclaimed and unregistered: it died between the walk and
			// this read — not part of the population being audited.
			continue
		}
		shard := int(uint64(r.id) & a.shardMask)
		if st.Deferred {
			deferredByShard[shard]++
		} else {
			liveByShard[shard]++
		}
		if st.Owned {
			ownedByShard[shard]++
		}
		// Owner linkage: the owned flag and the token pointer transition
		// together under mu. Sample the pointer on both sides of the
		// Stats snapshot so only a disagreement stable across the window
		// is reported (a concurrent acquire or release between the reads
		// is not a violation).
		ownerAfter := r.owner.Load() != nil
		if st.Owned && !ownerBefore && !ownerAfter {
			add(AuditOwnedState, r.id, 1, 0, "region is stateOwned with no Owner token installed")
		}
		if !st.Owned && ownerBefore && ownerAfter {
			add(AuditOwnedState, r.id, 0, 1, "Owner token installed on a region that is not owned")
		}
		// Queue linkage: waiters may exist only while the region is owned.
		// Double-sampled around the Stats snapshot like the owner pointer,
		// so a hand-off or a Release draining the queue between the reads
		// is not a violation.
		waitersAfter := r.waiterCount()
		waitersByShard[shard] += int64(waitersAfter)
		if !st.Owned && waitersBefore > 0 && waitersAfter > 0 {
			add(AuditWaitersOnUnowned, r.id, int64(waitersAfter), 0,
				"%d AcquireContext waiters parked on a region that is not owned", waitersAfter)
		}
		for name, v := range map[string]int64{
			"rc": st.RC, "pins": st.Pins, "objects": st.Objects, "subregions": st.Subregions,
		} {
			if v < 0 {
				add(AuditNegativeCounter, r.id, v, 0, "%s = %d", name, v)
			}
		}
		if st.Pins > st.RC {
			add(AuditPinsExceedRC, r.id, st.Pins, st.RC, "pins %d > rc %d", st.Pins, st.RC)
		}
		if want := st.Pins + inbound[r]; st.RC != want &&
			!ownedSomewhere && a.OwnedRegions() == 0 {
			add(AuditRCAccounting, r.id, st.RC, want,
				"rc %d != pins %d + inbound slots %d", st.RC, st.Pins, inbound[r])
		}
		if st.Deferred && st.RC == 0 && st.Subregions == 0 {
			add(AuditZombieReclaimable, r.id, st.RC, 0,
				"zombie with rc 0 and no subregions was not reclaimed")
		}
		if p := r.parent; p != nil {
			childCount[p]++
			if p.Stats().Reclaimed {
				add(AuditParentDead, r.id, p.id, 0,
					"parent region %d reclaimed before this child", p.id)
			}
		}
	}
	for _, r := range regions {
		st := r.Stats()
		if st.Reclaimed {
			continue
		}
		if got := childCount[r]; st.Subregions != got {
			add(AuditChildrenCount, r.id, st.Subregions, got,
				"subregions counter %d != %d registered children", st.Subregions, got)
		}
	}

	// Pass 3: fabric totals against the per-region sums, shard by
	// shard. Each fabric shard's counters must cover exactly the regions
	// whose ids encode that shard — a region accounted on the wrong
	// shard shows up as a paired mismatch here, not as silent drift that
	// happens to cancel in an arena-wide sum.
	for i := range a.shards {
		sh := &a.shards[i]
		if got, want := sh.liveRegions.Load(), liveByShard[i]; got != want {
			add(AuditLiveRegionsTotal, 0, got, want,
				"shard %d LiveRegions %d != %d alive registered regions", i, got, want)
		}
		if got, want := sh.deferredRegions.Load(), deferredByShard[i]; got != want {
			add(AuditDeferredRegionsTotal, 0, got, want,
				"shard %d DeferredRegions %d != %d zombie registered regions", i, got, want)
		}
		if got, want := sh.ownedRegions.Load(), ownedByShard[i]; got != want {
			add(AuditOwnedRegionsTotal, 0, got, want,
				"shard %d OwnedRegions %d != %d owned registered regions", i, got, want)
		}
		if got, want := sh.acquireWaiters.Load(), waitersByShard[i]; got != want {
			add(AuditAcquireWaitersTotal, 0, got, want,
				"shard %d AcquireWaiters %d != %d summed wait-queue lengths", i, got, want)
		}
	}

	// Pass 4: the backing store (region_slab.go), when attached. The
	// store's in-use pages must be exactly the pages the registered
	// regions track — anything more is a page no reclaim will ever
	// return — and the store's own carved = in-use + free partition
	// must balance.
	if a.backing != nil {
		var tracked int64
		for _, r := range regions {
			tracked += r.slabPageCount()
		}
		ss := a.backing.Stats()
		if ss.InUsePages != tracked {
			add(AuditSlabPagesTotal, 0, ss.InUsePages, tracked,
				"backing store has %d pages in use, registered regions track %d", ss.InUsePages, tracked)
		}
		if ss.CarvedPages != ss.InUsePages+ss.FreePages {
			add(AuditSlabStoreAccounting, 0, ss.CarvedPages, ss.InUsePages+ss.FreePages,
				"store carved %d pages != %d in use + %d free", ss.CarvedPages, ss.InUsePages, ss.FreePages)
		}
	}

	sort.Slice(rep.Violations, func(i, j int) bool {
		if rep.Violations[i].Rule != rep.Violations[j].Rule {
			return rep.Violations[i].Rule < rep.Violations[j].Rule
		}
		return rep.Violations[i].Region < rep.Violations[j].Region
	})
	rep.OK = len(rep.Violations) == 0
	return rep
}
