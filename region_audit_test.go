package rcgo

import (
	"sync"
	"testing"

	"rcgo/internal/failpoint"
)

type auditNode struct {
	Next Ref[auditNode]
}

// A healthy arena with every structure populated — a region tree,
// objects, counted cross-region references, pins and a live zombie —
// audits clean.
func TestAuditCleanArena(t *testing.T) {
	a := NewArena()
	r := a.NewRegion()
	sub := r.NewSubregion()
	target := a.NewRegion()

	holder := Alloc[auditNode](r)
	to := Alloc[auditNode](target)
	if err := SetRef(holder, &holder.Value.Next, to); err != nil {
		t.Fatal(err)
	}
	unpin := Pin(Alloc[auditNode](sub))
	zombie := a.NewRegion()
	zUnpin := Pin(Alloc[auditNode](zombie))
	zombie.DeleteDeferred()

	rep := a.Audit()
	if !rep.OK {
		t.Fatalf("audit of healthy arena: %s", rep)
	}
	if rep.RegionsScanned < 5 { // trad + r + sub + target + zombie
		t.Errorf("RegionsScanned = %d, want >= 5", rep.RegionsScanned)
	}
	if rep.SlotsScanned == 0 {
		t.Error("SlotsScanned = 0, want the counted slot scanned")
	}

	unpin()
	zUnpin()
	if rep := a.Audit(); !rep.OK {
		t.Fatalf("audit after teardown: %s", rep)
	}
}

// Each corruption test damages one piece of bookkeeping directly (the
// auditor exists to catch runtime bugs, so the tests play the bug) and
// requires the matching rule to fire.
func TestAuditDetectsCorruption(t *testing.T) {
	violated := func(t *testing.T, a *Arena, rule string) AuditViolation {
		t.Helper()
		rep := a.Audit()
		if rep.OK {
			t.Fatalf("audit clean, want %s violation", rule)
		}
		for _, v := range rep.Violations {
			if v.Rule == rule {
				return v
			}
		}
		t.Fatalf("no %s violation in: %s", rule, rep)
		return AuditViolation{}
	}

	t.Run(AuditNegativeCounter, func(t *testing.T) {
		a := NewArena()
		r := a.NewRegion()
		r.pins.Add(-1)
		violated(t, a, AuditNegativeCounter)
	})
	t.Run(AuditPinsExceedRC, func(t *testing.T) {
		a := NewArena()
		r := a.NewRegion()
		r.pins.Add(1)
		v := violated(t, a, AuditPinsExceedRC)
		if v.Region != r.ID() {
			t.Errorf("violation names region %d, want %d", v.Region, r.ID())
		}
	})
	t.Run(AuditRCAccounting, func(t *testing.T) {
		a := NewArena()
		r := a.NewRegion()
		r.rc.Add(1) // a reference no pin or slot accounts for
		v := violated(t, a, AuditRCAccounting)
		if v.Got != 1 || v.Want != 0 {
			t.Errorf("got/want = %d/%d, want 1/0", v.Got, v.Want)
		}
	})
	t.Run(AuditChildrenCount, func(t *testing.T) {
		a := NewArena()
		r := a.NewRegion()
		r.children.Add(1)
		violated(t, a, AuditChildrenCount)
	})
	t.Run(AuditParentDead, func(t *testing.T) {
		a := NewArena()
		r := a.NewRegion()
		_ = r.NewSubregion()
		// Reclaim the parent out from under the child.
		r.state.Store(stateDead)
		a.unregister(r.id)
		violated(t, a, AuditParentDead)
	})
	t.Run(AuditDeadInRegistry, func(t *testing.T) {
		a := NewArena()
		r := a.NewRegion()
		r.state.Store(stateDead) // reclaimed but never unregistered
		violated(t, a, AuditDeadInRegistry)
	})
	t.Run(AuditSlotIntoDead, func(t *testing.T) {
		a := NewArena()
		holder := Alloc[auditNode](a.NewRegion())
		target := a.NewRegion()
		to := Alloc[auditNode](target)
		if err := SetRef(holder, &holder.Value.Next, to); err != nil {
			t.Fatal(err)
		}
		target.state.Store(stateDead) // dangling registered slot
		violated(t, a, AuditSlotIntoDead)
	})
	t.Run(AuditLiveRegionsTotal, func(t *testing.T) {
		a := NewArena()
		a.shards[0].liveRegions.Add(1)
		violated(t, a, AuditLiveRegionsTotal)
	})
	t.Run(AuditDeferredRegionsTotal, func(t *testing.T) {
		a := NewArena()
		a.shards[0].deferredRegions.Add(1)
		violated(t, a, AuditDeferredRegionsTotal)
	})
	t.Run(AuditAcquireWaitersTotal, func(t *testing.T) {
		a := NewArena()
		a.shards[0].acquireWaiters.Add(1) // gauge with no parked waiter behind it
		violated(t, a, AuditAcquireWaitersTotal)
	})
	t.Run(AuditWaitersOnUnowned, func(t *testing.T) {
		a := NewArena()
		r := a.NewRegion()
		// A waiter parked on a region that is not owned can never be
		// woken: plant one directly to simulate the lost hand-off.
		r.mu.Lock()
		r.waitq = append(r.waitq, &acquireWaiter{ready: make(chan handoff, 1)})
		r.mu.Unlock()
		r.shard.acquireWaiters.Add(1) // keep the gauge consistent
		v := violated(t, a, AuditWaitersOnUnowned)
		if v.Region != r.ID() {
			t.Errorf("violation names region %d, want %d", v.Region, r.ID())
		}
	})
}

// A drain suppressed by the zombie.drain failpoint leaves a fully
// drained zombie behind: the audit reports it, and SweepZombies heals
// it back to a clean report.
func TestAuditZombieReclaimableAndSweep(t *testing.T) {
	defer failpoint.DisableAll()
	a := NewArena()
	r := a.NewRegion()
	unpin := Pin(Alloc[auditNode](r))
	r.DeleteDeferred()

	if err := failpoint.Enable("rcgo/zombie.drain", failpoint.Rule{Action: failpoint.ActionError}); err != nil {
		t.Fatal(err)
	}
	unpin() // the drain this would trigger is dropped on the floor
	failpoint.DisableAll()

	rep := a.Audit()
	found := false
	for _, v := range rep.Violations {
		if v.Rule == AuditZombieReclaimable && v.Region == r.ID() {
			found = true
		}
	}
	if !found {
		t.Fatalf("no zombie-reclaimable violation for region %d in: %s", r.ID(), rep)
	}

	if n := a.SweepZombies(); n != 1 {
		t.Fatalf("SweepZombies = %d, want 1", n)
	}
	if rep := a.Audit(); !rep.OK {
		t.Fatalf("audit after sweep: %s", rep)
	}
	if got := a.Stats().DeferredRegions; got != 0 {
		t.Fatalf("DeferredRegions = %d, want 0", got)
	}
}

// Audit is safe to run concurrently with a mutating workload (the
// exactness contract only holds quiesced, but the scan itself must
// never crash, deadlock, or trip the race detector).
func TestAuditSafeUnderChurn(t *testing.T) {
	a := NewArena()
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(seed int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				r := a.NewRegion()
				o := Alloc[auditNode](r)
				if unpin, err := TryPin(o); err == nil {
					unpin()
				}
				if i%3 == seed%3 {
					r.DeleteDeferred()
				} else if err := r.Delete(); err != nil {
					t.Errorf("delete: %v", err)
					return
				}
			}
		}(w)
	}
	for i := 0; i < 50; i++ {
		a.Audit() // advisory under load; must simply survive
	}
	close(stop)
	wg.Wait()
	a.SweepZombies()
	if rep := a.Audit(); !rep.OK {
		t.Fatalf("quiesced audit after churn: %s", rep)
	}
}
