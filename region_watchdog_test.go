package rcgo

import (
	"context"
	"errors"
	"testing"
	"time"

	"rcgo/internal/failpoint"
)

func TestDeleteWithRetrySucceedsWhenReferencesDrain(t *testing.T) {
	a := NewArena()
	r := a.NewRegion()
	unpin := Pin(Alloc[auditNode](r))

	// The pin drops 30ms in; the retry loop must ride out the
	// ErrRegionInUse failures and then succeed.
	go func() {
		time.Sleep(30 * time.Millisecond)
		unpin()
	}()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := r.DeleteWithRetry(ctx, Backoff{}); err != nil {
		t.Fatalf("DeleteWithRetry: %v", err)
	}
	if got := a.Stats().LiveRegions; got != 1 { // the traditional region
		t.Fatalf("LiveRegions = %d, want 1", got)
	}
}

// The zero Backoff jitters half of each interval, as its doc says: the
// fourth sleep (1ms doubled three times) lands in [4ms, 8ms], and
// concurrent deleters do not retry in lockstep.
func TestBackoffZeroValueJitters(t *testing.T) {
	b := Backoff{}.withDefaults()
	if b.Jitter != 0.5 {
		t.Fatalf("zero Backoff jitter = %v, want 0.5", b.Jitter)
	}
	first := b.sleep(3)
	varied := false
	for i := 0; i < 200; i++ {
		d := b.sleep(3)
		if d < 4*time.Millisecond || d > 8*time.Millisecond {
			t.Fatalf("sleep(3) = %v, want within [4ms, 8ms]", d)
		}
		varied = varied || d != first
	}
	if !varied {
		t.Fatalf("200 sleep(3) draws all equal %v: no jitter", first)
	}
}

func TestDeleteWithRetryContextExpiry(t *testing.T) {
	a := NewArena()
	r := a.NewRegion()
	unpin := Pin(Alloc[auditNode](r))
	defer unpin()

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	err := r.DeleteWithRetry(ctx, Backoff{Initial: time.Millisecond})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want context.DeadlineExceeded", err)
	}
	if !errors.Is(err, ErrRegionInUse) {
		t.Fatalf("err = %v, want to also wrap the last ErrRegionInUse", err)
	}
	// The failed retries must not have corrupted anything.
	if st := r.Stats(); st.Deleted {
		t.Fatal("region deleted despite the live pin")
	}
}

func TestDeleteWithRetryTerminalErrorStopsEarly(t *testing.T) {
	a := NewArena()
	r := a.NewRegion()
	if err := r.Delete(); err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	err := r.DeleteWithRetry(context.Background(), Backoff{Initial: 50 * time.Millisecond})
	if !errors.Is(err, ErrRegionDeleted) {
		t.Fatalf("err = %v, want ErrRegionDeleted", err)
	}
	if d := time.Since(start); d > 25*time.Millisecond {
		t.Fatalf("terminal error took %v; must not have slept a retry interval", d)
	}
}

func TestDeleteWithRetryRetriesInjectedFailures(t *testing.T) {
	defer failpoint.DisableAll()
	a := NewArena()
	r := a.NewRegion()
	// A 1/2 rule injects failures on roughly half the attempts; the
	// retry loop must treat ErrInjected as transient and get through on
	// a non-firing evaluation.
	if err := failpoint.Enable("rcgo/delete.dying", failpoint.Rule{
		Action: failpoint.ActionError, Num: 1, Den: 2, Seed: 9,
	}); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := r.DeleteWithRetry(ctx, Backoff{Initial: time.Millisecond}); err != nil {
		t.Fatalf("DeleteWithRetry through injected failures: %v", err)
	}
}

// An aged, genuinely pinned zombie is flagged with its pinning holders
// named; once it is reclaimed the watchdog no longer sees it.
func TestWatchdogFlagsStuckZombie(t *testing.T) {
	a := NewArena()
	w := NewZombieWatchdog(a, time.Hour)
	var clock time.Time
	w.now = func() time.Time { return clock }

	holder := Alloc[auditNode](a.NewRegion())
	target := a.NewRegion()
	to := Alloc[auditNode](target)
	if err := SetRef(holder, &holder.Value.Next, to); err != nil {
		t.Fatal(err)
	}
	target.DeleteDeferred()
	clock = target.since // the clock starts when the region became a zombie

	if stuck := w.Check(); stuck != nil {
		t.Fatalf("zombie flagged before the threshold: %+v", stuck)
	}
	clock = clock.Add(2 * time.Hour)
	var delivered []StuckZombie
	w.OnStuck = func(sz StuckZombie) { delivered = append(delivered, sz) }
	stuck := w.Check()
	if len(stuck) != 1 || stuck[0].ID != target.ID() {
		t.Fatalf("Check = %+v, want exactly zombie %d", stuck, target.ID())
	}
	if stuck[0].RC != 1 || stuck[0].Age != 2*time.Hour {
		t.Errorf("flagged rc=%d age=%v, want rc=1 age=2h", stuck[0].RC, stuck[0].Age)
	}
	if len(stuck[0].Holders) != 1 || stuck[0].Holders[0].HolderRegion != holder.Region().ID() {
		t.Errorf("Holders = %+v, want the holder region %d named", stuck[0].Holders, holder.Region().ID())
	}
	if len(delivered) != 1 {
		t.Errorf("OnStuck delivered %d reports, want 1", len(delivered))
	}
	if w.Flagged() != 1 {
		t.Errorf("Flagged = %d, want 1", w.Flagged())
	}

	// Clearing the reference reclaims the zombie; the next Check is
	// quiet.
	if err := SetRef(holder, &holder.Value.Next, nil); err != nil {
		t.Fatal(err)
	}
	if stuck := w.Check(); stuck != nil {
		t.Fatalf("Check after reclaim = %+v, want none", stuck)
	}
}

// A zombie whose drain wakeup was lost (zombie.drain failpoint) is
// healed by the watchdog rather than flagged.
func TestWatchdogHealsLostDrain(t *testing.T) {
	defer failpoint.DisableAll()
	a := NewArena()
	w := NewZombieWatchdog(a, time.Hour)
	clock := time.Now()
	w.now = func() time.Time { return clock }

	r := a.NewRegion()
	unpin := Pin(Alloc[auditNode](r))
	r.DeleteDeferred()
	if err := failpoint.Enable("rcgo/zombie.drain", failpoint.Rule{Action: failpoint.ActionError}); err != nil {
		t.Fatal(err)
	}
	unpin() // drain suppressed: drained zombie stays behind
	failpoint.DisableAll()
	if got := a.Stats().DeferredRegions; got != 1 {
		t.Fatalf("DeferredRegions = %d, want the stuck zombie", got)
	}

	clock = clock.Add(2 * time.Hour)
	if stuck := w.Check(); stuck != nil {
		t.Fatalf("drained zombie was flagged, not healed: %+v", stuck)
	}
	if w.Healed() != 1 {
		t.Fatalf("Healed = %d, want 1", w.Healed())
	}
	if got := a.Stats().DeferredRegions; got != 0 {
		t.Fatalf("DeferredRegions after heal = %d, want 0", got)
	}
	if rep := a.Audit(); !rep.OK {
		t.Fatalf("audit after heal: %s", rep)
	}
}

func TestWatchdogStartStop(t *testing.T) {
	defer failpoint.DisableAll()
	a := NewArena()
	w := NewZombieWatchdog(a, time.Millisecond)

	r := a.NewRegion()
	unpin := Pin(Alloc[auditNode](r))
	r.DeleteDeferred()
	if err := failpoint.Enable("rcgo/zombie.drain", failpoint.Rule{Action: failpoint.ActionError}); err != nil {
		t.Fatal(err)
	}
	unpin()
	failpoint.DisableAll()

	w.Start(2 * time.Millisecond)
	deadline := time.After(5 * time.Second)
	for w.Healed() == 0 {
		select {
		case <-deadline:
			t.Fatal("background watchdog never healed the zombie")
		case <-time.After(2 * time.Millisecond):
		}
	}
	w.Stop()
	w.Stop() // idempotent
	if got := a.Stats().DeferredRegions; got != 0 {
		t.Fatalf("DeferredRegions = %d, want 0", got)
	}
}
