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

// Ownership opens no blind spot: the counted slots a token's stores
// fill are in its region's registry, so while the token is held the
// audit counts them, rc-accounting still catches a stray rc unit in
// another region, and the blocked-deleters report names the owned
// region as the holder of a zombie it pins.
func TestAuditExactWhileOwned(t *testing.T) {
	const owned = 3
	a := NewArena()
	target := a.NewRegion()
	to := Alloc[auditNode](target)
	zombie := a.NewRegion()
	zo := Alloc[auditNode](zombie)
	hr := a.NewRegion()
	own := hr.Acquire()
	defer func() {
		if hr.Owned() {
			own.Release()
		}
	}()
	for i := 0; i < owned; i++ {
		h := AllocOwned[auditNode](own)
		if err := SetRefOwned(own, h, &h.Value.Next, to); err != nil {
			t.Fatal(err)
		}
	}

	// (a) The token's slots are scanned and account for the target's rc.
	rep := a.Audit()
	if !rep.OK {
		t.Fatalf("audit while owned: %s", rep)
	}
	if rep.SlotsScanned != owned {
		t.Fatalf("SlotsScanned = %d while owned, want the token's %d", rep.SlotsScanned, owned)
	}

	// (b) A stray rc unit is reported while the token is still held.
	other := a.NewRegion()
	other.rc.Add(1)
	rep = a.Audit()
	found := false
	for _, v := range rep.Violations {
		found = found || v.Rule == AuditRCAccounting && v.Region == other.ID()
	}
	if !found {
		t.Fatalf("audit while owned missed the stray rc unit in region %d: %s", other.ID(), rep)
	}
	other.rc.Add(-1)

	// (c) An owned region that pins a zombie is named as its holder.
	h := AllocOwned[auditNode](own)
	if err := SetRefOwned(own, h, &h.Value.Next, zo); err != nil {
		t.Fatal(err)
	}
	zombie.DeleteDeferred()
	blocked := a.BlockedDeleters()
	if len(blocked) != 1 || blocked[0].ID != zombie.ID() ||
		len(blocked[0].Holders) != 1 || blocked[0].Holders[0] != (BlockedHolder{HolderRegion: hr.ID(), Slots: 1}) ||
		blocked[0].Unaccounted != 0 {
		t.Fatalf("BlockedDeleters = %+v, want zombie %d held by owned region %d through 1 slot",
			blocked, zombie.ID(), hr.ID())
	}
	if rep := a.Audit(); !rep.OK {
		t.Fatalf("audit with an owned holder of a zombie: %s", rep)
	}

	// The owner's delete releases every slot: the zombie drains and the
	// target's rc returns to 0.
	if err := own.Delete(); err != nil {
		t.Fatal(err)
	}
	if !zombie.Stats().Reclaimed {
		t.Fatal("zombie not reclaimed after its owned holder's delete")
	}
	if got := target.RC(); got != 0 {
		t.Fatalf("target rc = %d after the holder's delete, want 0", got)
	}
	if rep := a.Audit(); !rep.OK {
		t.Fatalf("audit after the delete: %s", rep)
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
	t.Run(AuditWaitersOnUnowned, func(t *testing.T) {
		a := NewArena()
		r := a.NewRegion()
		// A waiter parked on a region that is not owned can never be
		// woken: plant one directly to simulate the lost hand-off.
		r.mu.Lock()
		r.waitq = append(r.waitq, &acquireWaiter{ready: make(chan handoff, 1)})
		r.mu.Unlock()
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
