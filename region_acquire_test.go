package rcgo

import (
	"context"
	"errors"
	"math/rand"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"rcgo/internal/failpoint"
)

// Every shared-path refusal of an owned region must carry ErrRegionOwned
// through its wrap chain — holder- and target-side of all four store
// flavours, allocation, pinning, subregion creation, deletion, and a
// second acquisition (both entry points).
func TestRegionOwnedUnwrapChains(t *testing.T) {
	a := NewArena()
	r := a.NewRegion()
	obj := Alloc[crossNode](r)
	other := a.NewRegion()
	outside := Alloc[crossNode](other)
	trad := Alloc[crossNode](a.Traditional())
	parent := a.NewRegion()
	child := parent.NewSubregion()
	childObj := Alloc[crossNode](child)
	parentObj := Alloc[crossNode](parent)

	own, err := r.TryAcquire()
	if err != nil {
		t.Fatal(err)
	}
	childOwn, err := child.TryAcquire()
	if err != nil {
		t.Fatal(err)
	}

	for _, tc := range []struct {
		name string
		err  error
	}{
		{"second TryAcquire", func() error { _, err := r.TryAcquire(); return err }()},
		{"blocking AcquireContext refusal", func() error {
			ctx, cancel := context.WithCancel(context.Background())
			cancel()
			_, err := r.AcquireContext(ctx)
			return err
		}()},
		{"shared alloc", func() error { _, err := TryAlloc[crossNode](r); return err }()},
		{"TryPin", func() error { _, err := TryPin(obj); return err }()},
		{"TryNewSubregion", func() error { _, err := r.TryNewSubregion(); return err }()},
		{"shared Delete", r.Delete()},
		{"counted store, owned holder", SetRef(obj, &obj.Value.Other, outside)},
		{"counted store, owned target", SetRef(outside, &outside.Value.Other, obj)},
		{"sameregion store, owned holder", SetSame(obj, &obj.Value.Other, obj)},
		{"traditional store, owned holder", SetTrad(obj, &obj.Value.Other, trad)},
		{"parentptr store, owned holder", SetParent(childObj, &childObj.Value.Up, parentObj)},
	} {
		if tc.err == nil {
			t.Errorf("%s: succeeded, want ErrRegionOwned", tc.name)
			continue
		}
		if !errors.Is(tc.err, ErrRegionOwned) {
			t.Errorf("%s: %v does not unwrap to ErrRegionOwned", tc.name, tc.err)
		}
		if errors.Is(tc.err, ErrRegionDeleted) {
			t.Errorf("%s: %v also unwraps to ErrRegionDeleted — wrong class", tc.name, tc.err)
		}
	}

	if err := childOwn.Release(); err != nil {
		t.Fatal(err)
	}
	if err := own.Release(); err != nil {
		t.Fatal(err)
	}
}

// AcquireContext on a free region is the fast path: no parking, no wait
// metrics. An already-expired context refuses before touching the
// region, wrapping both the context cause and ErrRegionOwned.
func TestAcquireContextFastPath(t *testing.T) {
	a := NewArena(WithMetrics())
	r := a.NewRegion()

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := r.AcquireContext(ctx); !errors.Is(err, context.Canceled) || !errors.Is(err, ErrRegionOwned) {
		t.Fatalf("pre-cancelled acquire: %v, want both context.Canceled and ErrRegionOwned", err)
	}

	own, err := r.AcquireContext(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if !r.Owned() {
		t.Fatal("region not owned after AcquireContext")
	}
	if err := own.Release(); err != nil {
		t.Fatal(err)
	}
	c := a.Counters()
	if c.Acquires != 1 || c.Releases != 1 {
		t.Fatalf("counters = acquires %d releases %d, want 1/1", c.Acquires, c.Releases)
	}
	if c.AcquireWaits != 0 || c.AcquireTimeouts != 0 || c.AcquireCancels != 0 {
		t.Fatalf("fast path recorded waits: waits=%d timeouts=%d cancels=%d, want 0/0/0",
			c.AcquireWaits, c.AcquireTimeouts, c.AcquireCancels)
	}
	if err := r.Delete(); err != nil {
		t.Fatal(err)
	}
}

// waitForWaiters blocks until the region's parked-waiter count reaches
// n (the parking worker publishes it under r.mu, so polling is exact).
func waitForWaiters(t *testing.T, r *Region, n int) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for r.waiterCount() < n {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %d parked waiters (have %d)", n, r.waiterCount())
		}
		time.Sleep(100 * time.Microsecond)
	}
}

// Parked waiters are served strictly first-come-first-served: Release
// hands the token to the queue head, and each successor inherits
// directly without re-contending.
func TestAcquireContextFIFOHandOff(t *testing.T) {
	a := NewArena(WithMetrics())
	r := a.NewRegion()
	own, err := r.TryAcquire()
	if err != nil {
		t.Fatal(err)
	}

	const waiters = 4
	order := make(chan int, waiters)
	var wg sync.WaitGroup
	for i := 0; i < waiters; i++ {
		waitForWaiters(t, r, i) // park in a known order
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			tok, err := r.AcquireContext(context.Background())
			if err != nil {
				t.Errorf("waiter %d: %v", i, err)
				return
			}
			order <- i
			if err := tok.Release(); err != nil {
				t.Errorf("waiter %d release: %v", i, err)
			}
		}(i)
	}
	waitForWaiters(t, r, waiters)
	if err := own.Release(); err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	close(order)
	want := 0
	for got := range order {
		if got != want {
			t.Fatalf("hand-off order violated: got waiter %d in slot %d", got, want)
		}
		want++
	}

	c := a.Counters()
	if c.Acquires != waiters+1 || c.Releases != waiters+1 {
		t.Fatalf("counters = acquires %d releases %d, want %d/%d", c.Acquires, c.Releases, waiters+1, waiters+1)
	}
	if c.AcquireWaits != waiters {
		t.Fatalf("AcquireWaits = %d, want %d", c.AcquireWaits, waiters)
	}
	if c.AcquireWaitNanos <= 0 {
		t.Fatalf("AcquireWaitNanos = %d, want > 0", c.AcquireWaitNanos)
	}
	if got := a.AcquireWaiters(); got != 0 {
		t.Fatalf("leaked waiters on the shard gauge: %d", got)
	}
	if err := r.Delete(); err != nil {
		t.Fatal(err)
	}
	if rep := a.Audit(); !rep.OK {
		t.Fatalf("audit: %s", rep)
	}
}

// A deadline or cancellation removes the parked waiter without leaking
// its queue slot, and the error wraps both the context cause and
// ErrRegionOwned.
func TestAcquireContextDeadlineAndCancel(t *testing.T) {
	a := NewArena(WithMetrics())
	r := a.NewRegion()
	own, err := r.TryAcquire()
	if err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Millisecond)
	defer cancel()
	if _, err := r.AcquireContext(ctx); !errors.Is(err, context.DeadlineExceeded) || !errors.Is(err, ErrRegionOwned) {
		t.Fatalf("deadline acquire: %v, want both context.DeadlineExceeded and ErrRegionOwned", err)
	}

	cctx, ccancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, err := r.AcquireContext(cctx)
		done <- err
	}()
	waitForWaiters(t, r, 1)
	ccancel()
	if err := <-done; !errors.Is(err, context.Canceled) || !errors.Is(err, ErrRegionOwned) {
		t.Fatalf("cancelled acquire: %v, want both context.Canceled and ErrRegionOwned", err)
	}

	if got := r.waiterCount(); got != 0 {
		t.Fatalf("queue not empty after aborts: %d waiters", got)
	}
	if got := a.AcquireWaiters(); got != 0 {
		t.Fatalf("leaked waiters on the shard gauge: %d", got)
	}
	c := a.Counters()
	if c.AcquireTimeouts != 1 || c.AcquireCancels != 1 {
		t.Fatalf("abort counters = timeouts %d cancels %d, want 1/1", c.AcquireTimeouts, c.AcquireCancels)
	}
	// The holder is unaffected, and the region is reusable after release.
	if err := own.Release(); err != nil {
		t.Fatal(err)
	}
	own2, err := r.TryAcquire()
	if err != nil {
		t.Fatalf("region unusable after aborted waits: %v", err)
	}
	if err := own2.Release(); err != nil {
		t.Fatal(err)
	}
}

// Owner.Delete with parked waiters fails them all with ErrRegionDeleted
// — they can never be handed a token to a dead region.
func TestAcquireContextRegionDeletedMidWait(t *testing.T) {
	a := NewArena(WithMetrics())
	r := a.NewRegion()
	own, err := r.TryAcquire()
	if err != nil {
		t.Fatal(err)
	}
	const waiters = 3
	done := make(chan error, waiters)
	for i := 0; i < waiters; i++ {
		go func() {
			_, err := r.AcquireContext(context.Background())
			done <- err
		}()
	}
	waitForWaiters(t, r, waiters)
	if err := own.Delete(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < waiters; i++ {
		if err := <-done; !errors.Is(err, ErrRegionDeleted) {
			t.Fatalf("waiter on deleted region: %v, want ErrRegionDeleted", err)
		}
	}
	if got := a.AcquireWaiters(); got != 0 {
		t.Fatalf("leaked waiters on the shard gauge: %d", got)
	}
	c := a.Counters()
	if c.Acquires != 1 || c.Releases != 1 {
		t.Fatalf("counters = acquires %d releases %d, want 1/1 (failed waiters count nothing)",
			c.Acquires, c.Releases)
	}
	if got := a.LiveRegions(); got != 1 {
		t.Fatalf("LiveRegions = %d, want 1 (traditional)", got)
	}
	if rep := a.Audit(); !rep.OK {
		t.Fatalf("audit: %s", rep)
	}
}

// The cancel-during-wake race, determinized: an own.handoff hook cancels
// the waiter's context under r.mu, after the waiter can no longer
// remove itself but before the token is sent. The delivered token must
// be counted and immediately disposed — Acquires still equals Releases
// and nothing leaks.
func TestAcquireContextCancelWhileWoken(t *testing.T) {
	defer failpoint.DisableAll()
	a := NewArena(WithMetrics())
	r := a.NewRegion()
	own, err := r.TryAcquire()
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := make(chan error, 1)
	go func() {
		_, err := r.AcquireContext(ctx)
		done <- err
	}()
	waitForWaiters(t, r, 1)
	if err := failpoint.Enable("rcgo/own.handoff",
		failpoint.Rule{Action: failpoint.ActionHook, Hook: cancel}); err != nil {
		t.Fatal(err)
	}
	if err := own.Release(); err != nil {
		t.Fatal(err)
	}
	if err := <-done; !errors.Is(err, context.Canceled) || !errors.Is(err, ErrRegionOwned) {
		t.Fatalf("woken-then-cancelled acquire: %v, want both context.Canceled and ErrRegionOwned", err)
	}
	failpoint.DisableAll()

	if r.Owned() {
		t.Fatal("region still owned after the disposed hand-off")
	}
	if got := a.AcquireWaiters(); got != 0 {
		t.Fatalf("leaked waiters on the shard gauge: %d", got)
	}
	c := a.Counters()
	// The delivered-then-disposed token counts a full acquire/release
	// cycle: 2 acquires (holder + disposed successor), 2 releases.
	if c.Acquires != 2 || c.Releases != 2 {
		t.Fatalf("counters = acquires %d releases %d, want 2/2", c.Acquires, c.Releases)
	}
	if c.AcquireCancels != 1 {
		t.Fatalf("AcquireCancels = %d, want 1", c.AcquireCancels)
	}
	if err := r.Delete(); err != nil {
		t.Fatal(err)
	}
	if rep := a.Audit(); !rep.OK {
		t.Fatalf("audit: %s", rep)
	}
}

// An injected own.handoff refusal requeues the waiter at the tail and
// retries: with Den > Num the delivery always eventually lands, so the
// waiter still gets its token.
func TestAcquireContextHandoffFailpointRetries(t *testing.T) {
	defer failpoint.DisableAll()
	a := NewArena(WithMetrics())
	r := a.NewRegion()
	own, err := r.TryAcquire()
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() {
		tok, err := r.AcquireContext(context.Background())
		if err == nil {
			err = tok.Release()
		}
		done <- err
	}()
	waitForWaiters(t, r, 1)
	if err := failpoint.Enable("rcgo/own.handoff",
		failpoint.Rule{Action: failpoint.ActionError, Num: 1, Den: 2, Seed: 7}); err != nil {
		t.Fatal(err)
	}
	if err := own.Release(); err != nil {
		t.Fatal(err)
	}
	if err := <-done; err != nil {
		t.Fatalf("waiter never recovered from injected hand-off refusals: %v", err)
	}
	failpoint.DisableAll()
	if got := a.AcquireWaiters(); got != 0 {
		t.Fatalf("leaked waiters on the shard gauge: %d", got)
	}
	if err := r.Delete(); err != nil {
		t.Fatal(err)
	}
}

// revokeOwner is expect-guarded: it refuses after a legitimate release
// and refuses a stale expectation after re-acquisition, so a watchdog
// pass racing a normal Release can never tear the token from a fresh
// holder.
func TestRevokeOwnerExpectGuard(t *testing.T) {
	a := NewArena(WithMetrics())
	r := a.NewRegion()
	own, err := r.TryAcquire()
	if err != nil {
		t.Fatal(err)
	}
	if r.revokeOwner(nil) {
		t.Fatal("revoked with a nil expectation")
	}
	if err := own.Release(); err != nil {
		t.Fatal(err)
	}
	if r.revokeOwner(own) {
		t.Fatal("revoked an already-released token")
	}
	own2, err := r.TryAcquire()
	if err != nil {
		t.Fatal(err)
	}
	if r.revokeOwner(own) {
		t.Fatal("revoked the new holder through a stale expectation")
	}
	if !r.revokeOwner(own2) {
		t.Fatal("failed to revoke the current holder")
	}
	// The revoked token fails everything with ErrOwnerRevoked.
	if _, err := TryAllocOwned[crossNode](own2); !errors.Is(err, ErrOwnerRevoked) {
		t.Fatalf("alloc on revoked token: %v, want ErrOwnerRevoked", err)
	}
	if err := SetSameOwned[crossNode, crossNode](own2, nil, nil, nil); !errors.Is(err, ErrOwnerRevoked) {
		t.Fatalf("store on revoked token: %v, want ErrOwnerRevoked", err)
	}
	if err := own2.Release(); !errors.Is(err, ErrOwnerRevoked) {
		t.Fatalf("release of revoked token: %v, want ErrOwnerRevoked", err)
	}
	if err := own2.Delete(); !errors.Is(err, ErrOwnerRevoked) {
		t.Fatalf("delete of revoked token: %v, want ErrOwnerRevoked", err)
	}
	if r.Owned() {
		t.Fatal("region still owned after revocation with no waiters")
	}
	c := a.Counters()
	if c.OwnerRevocations != 1 {
		t.Fatalf("OwnerRevocations = %d, want 1", c.OwnerRevocations)
	}
	if c.Acquires != 2 || c.Releases+c.OwnerRevocations != 2 {
		t.Fatalf("imbalance: acquires %d, releases %d + revocations %d",
			c.Acquires, c.Releases, c.OwnerRevocations)
	}
	if err := r.Delete(); err != nil {
		t.Fatal(err)
	}
	if rep := a.Audit(); !rep.OK {
		t.Fatalf("audit: %s", rep)
	}
}

// The owner watchdog flags a stale holder with its acquire site and
// queue depth, and — once ForceReleaseAfter elapses — revokes the token
// and hands the region to the parked waiter.
func TestOwnerWatchdogFlagsAndRevokes(t *testing.T) {
	a := NewArena(WithMetrics())
	wd := NewOwnerWatchdog(a, time.Hour)
	wd.ForceReleaseAfter = 3 * time.Hour
	clock := time.Now()
	wd.now = func() time.Time { return clock }

	r := a.NewRegion()
	own, err := r.TryAcquire()
	if err != nil {
		t.Fatal(err)
	}
	got := make(chan error, 1)
	go func() {
		tok, err := r.AcquireContext(context.Background())
		if err == nil {
			err = tok.Release()
		}
		got <- err
	}()
	waitForWaiters(t, r, 1)

	if stale := wd.Check(); stale != nil {
		t.Fatalf("flagged before the threshold: %+v", stale)
	}
	clock = clock.Add(2 * time.Hour)
	var delivered []StaleOwner
	wd.OnStale = func(so StaleOwner) { delivered = append(delivered, so) }
	stale := wd.Check()
	if len(stale) != 1 || stale[0].ID != r.ID() {
		t.Fatalf("Check = %+v, want exactly region %d", stale, r.ID())
	}
	if stale[0].Revoked {
		t.Fatal("revoked before ForceReleaseAfter")
	}
	if stale[0].Age < 2*time.Hour-time.Minute {
		t.Errorf("flagged age = %v, want ~2h", stale[0].Age)
	}
	if stale[0].QueueDepth != 1 {
		t.Errorf("QueueDepth = %d, want 1", stale[0].QueueDepth)
	}
	if !strings.Contains(stale[0].AcquireSite, "region_acquire_test.go") {
		t.Errorf("AcquireSite = %q, want the acquiring test frame", stale[0].AcquireSite)
	}
	if len(delivered) != 1 || wd.Flagged() != 1 {
		t.Errorf("OnStale delivered %d, Flagged %d, want 1/1", len(delivered), wd.Flagged())
	}

	clock = clock.Add(2 * time.Hour) // age ~4h, past ForceReleaseAfter
	stale = wd.Check()
	if len(stale) != 1 || !stale[0].Revoked {
		t.Fatalf("Check past ForceReleaseAfter = %+v, want a revoked flag", stale)
	}
	if wd.Revoked() != 1 {
		t.Fatalf("Revoked = %d, want 1", wd.Revoked())
	}
	// The parked waiter inherits the region and releases cleanly.
	if err := <-got; err != nil {
		t.Fatalf("waiter after revocation hand-off: %v", err)
	}
	// The torn-out token is dead.
	if err := own.Release(); !errors.Is(err, ErrOwnerRevoked) {
		t.Fatalf("release of revoked token: %v, want ErrOwnerRevoked", err)
	}
	c := a.Counters()
	if c.OwnerRevocations != 1 {
		t.Fatalf("OwnerRevocations = %d, want 1", c.OwnerRevocations)
	}
	if c.Acquires != c.Releases+c.OwnerRevocations {
		t.Fatalf("imbalance: acquires %d, releases %d + revocations %d",
			c.Acquires, c.Releases, c.OwnerRevocations)
	}
	if err := r.Delete(); err != nil {
		t.Fatal(err)
	}
	if rep := a.Audit(); !rep.OK {
		t.Fatalf("audit: %s", rep)
	}
}

// A revoked token's counted slots are in its region's registry, so the
// revocation leaks no reference: the audit stays clean, a shared delete
// of the holder region returns the target's rc to its baseline, and the
// target then deletes.
func TestRevokedTokenCountedSlotsReleased(t *testing.T) {
	a := NewArena()
	target := a.NewRegion()
	to := Alloc[auditNode](target)
	baseline := target.RC()
	hr := a.NewRegion()
	own := hr.Acquire()
	h := AllocOwned[auditNode](own)
	if err := SetRefOwned(own, h, &h.Value.Next, to); err != nil {
		t.Fatal(err)
	}
	if got := target.RC(); got != baseline+1 {
		t.Fatalf("target rc = %d after the owned store, want %d", got, baseline+1)
	}

	wd := NewOwnerWatchdog(a, time.Hour)
	wd.ForceReleaseAfter = 2 * time.Hour
	clock := time.Now().Add(3 * time.Hour)
	wd.now = func() time.Time { return clock }
	if stale := wd.Check(); len(stale) != 1 || !stale[0].Revoked {
		t.Fatalf("Check = %+v, want region %d revoked", stale, hr.ID())
	}
	if hr.Owned() {
		t.Fatal("region still owned after the revocation")
	}
	if rep := a.Audit(); !rep.OK {
		t.Fatalf("audit after the revocation: %s", rep)
	}
	if err := hr.Delete(); err != nil {
		t.Fatal(err)
	}
	if got := target.RC(); got != baseline {
		t.Fatalf("target rc = %d after the holder's delete, want its baseline %d", got, baseline)
	}
	if err := target.Delete(); err != nil {
		t.Fatal(err)
	}
	if rep := a.Audit(); !rep.OK {
		t.Fatalf("audit after the deletes: %s", rep)
	}
}

// The watchdog follows releases: a legitimately released region is
// not flagged, a released-and-reacquired region starts a fresh clock,
// and Start/Stop run the revocation loop end to end.
func TestOwnerWatchdogFollowsReleases(t *testing.T) {
	a := NewArena()
	wd := NewOwnerWatchdog(a, time.Hour)
	clock := time.Now()
	wd.now = func() time.Time { return clock }

	r := a.NewRegion()
	own, err := r.TryAcquire()
	if err != nil {
		t.Fatal(err)
	}
	if err := own.Release(); err != nil {
		t.Fatal(err)
	}
	clock = clock.Add(2 * time.Hour)
	if stale := wd.Check(); stale != nil {
		t.Fatalf("flagged a released region: %+v", stale)
	}
	// Reacquired: the clock restarts at the new acquire.
	own2, err := r.TryAcquire()
	if err != nil {
		t.Fatal(err)
	}
	clock = r.since
	if stale := wd.Check(); stale != nil {
		t.Fatalf("flagged a fresh reacquisition: %+v", stale)
	}
	if err := own2.Release(); err != nil {
		t.Fatal(err)
	}
	if err := r.Delete(); err != nil {
		t.Fatal(err)
	}

	// Start/Stop: a wedged owner is revoked by the background loop.
	wd2 := NewOwnerWatchdog(a, time.Millisecond)
	wd2.ForceReleaseAfter = 2 * time.Millisecond
	r2 := a.NewRegion()
	if _, err := r2.TryAcquire(); err != nil { // wedged: token abandoned
		t.Fatal(err)
	}
	wd2.Start(time.Millisecond)
	deadline := time.After(10 * time.Second)
	for wd2.Revoked() == 0 {
		select {
		case <-deadline:
			t.Fatal("background watchdog never revoked the wedged owner")
		case <-time.After(time.Millisecond):
		}
	}
	wd2.Stop()
	wd2.Stop() // idempotent
	if r2.Owned() {
		t.Fatal("region still owned after background revocation")
	}
	if err := r2.Delete(); err != nil {
		t.Fatal(err)
	}
}

// A release racing a re-acquire never hides the new holder. An
// uncontended Release traces its released event after unlocking, so a
// TryAcquire spinning on another goroutine can take the region and
// trace acquired first. That order must not matter: the re-acquired
// token is flagged every round.
func TestOwnerWatchdogSeesHolderAfterReleaseRace(t *testing.T) {
	a := NewArena()
	wd := NewOwnerWatchdog(a, time.Hour)
	var skew time.Duration // jumps past the threshold only for Check
	wd.now = func() time.Time { return time.Now().Add(skew) }
	r := a.NewRegion()
	own := r.Acquire()
	for i := 0; i < 20000; i++ {
		spinning := make(chan struct{})
		next := make(chan *Owner, 1)
		go func() {
			for first := true; ; first = false {
				o, err := r.TryAcquire()
				if err == nil {
					next <- o
					return
				}
				if first {
					close(spinning)
				}
			}
		}()
		<-spinning
		if err := own.Release(); err != nil {
			t.Fatal(err)
		}
		own = <-next
		skew = 2 * time.Hour
		stale := wd.Check()
		skew = 0
		if len(stale) != 1 || stale[0].ID != r.ID() {
			t.Fatalf("round %d: Check = %+v, want the re-acquired region %d", i, stale, r.ID())
		}
	}
	if err := own.Release(); err != nil {
		t.Fatal(err)
	}
	if err := r.Delete(); err != nil {
		t.Fatal(err)
	}
}

// Mixed blocking and non-blocking contenders under the race detector:
// AcquireContext waiters, TryAcquire opportunists and short deadlines
// all storm one hub. At quiesce the token ledger balances exactly and
// no waiter slot leaks.
func TestMixedAcquireStress(t *testing.T) {
	const workers = 8
	iters := 150
	if testing.Short() {
		iters = 40
	}
	a := NewArena(WithMetrics())
	hub := a.NewRegion()
	var wg sync.WaitGroup
	var failures atomic.Int64
	fail := func(format string, args ...any) {
		failures.Add(1)
		t.Errorf(format, args...)
	}
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w) * 2654435761))
			for i := 0; i < iters; i++ {
				var tok *Owner
				var err error
				switch rng.Intn(3) {
				case 0:
					tok, err = hub.TryAcquire()
					if err != nil {
						if !errors.Is(err, ErrRegionOwned) {
							fail("TryAcquire: %v", err)
						}
						continue
					}
				case 1:
					tok, err = hub.AcquireContext(context.Background())
					if err != nil {
						fail("AcquireContext: %v", err)
						continue
					}
				default:
					ctx, cancel := context.WithTimeout(context.Background(),
						time.Duration(rng.Intn(200))*time.Microsecond)
					tok, err = hub.AcquireContext(ctx)
					cancel()
					if err != nil {
						if !errors.Is(err, ErrRegionOwned) ||
							(!errors.Is(err, context.DeadlineExceeded) && !errors.Is(err, context.Canceled)) {
							fail("deadline AcquireContext: %v", err)
						}
						continue
					}
				}
				if _, err := TryAllocOwned[crossNode](tok); err != nil {
					fail("owned alloc: %v", err)
				}
				if err := tok.Release(); err != nil {
					fail("release: %v", err)
				}
			}
		}(w)
	}
	wg.Wait()
	if failures.Load() > 0 {
		t.FailNow()
	}
	c := a.Counters()
	if c.Acquires == 0 || c.Acquires != c.Releases {
		t.Fatalf("token ledger imbalance: acquires %d releases %d", c.Acquires, c.Releases)
	}
	if got := a.AcquireWaiters(); got != 0 {
		t.Fatalf("leaked waiters on the shard gauge: %d", got)
	}
	if hub.Owned() {
		t.Fatal("hub still owned at quiesce")
	}
	if err := hub.Delete(); err != nil {
		t.Fatal(err)
	}
	if rep := a.Audit(); !rep.OK {
		t.Fatalf("audit: %s", rep)
	}
}
