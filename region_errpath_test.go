package rcgo

import (
	"errors"
	"testing"
	"time"

	"rcgo/internal/failpoint"
)

// Error-path coverage for the Try* operations against each non-alive
// lifecycle state: dead (Delete), zombie (DeleteDeferred with a live
// pin), and the transient dying window (held open with an ActionHook
// failpoint on rcgo/delete.dying).

func TestTryOpsOnDeletedRegion(t *testing.T) {
	a := NewArena()
	r := a.NewRegion()
	o := Alloc[int](r)
	if err := r.Delete(); err != nil {
		t.Fatalf("Delete: %v", err)
	}
	if _, err := TryAlloc[int](r); !errors.Is(err, ErrRegionDeleted) {
		t.Errorf("TryAlloc on dead region: %v, want ErrRegionDeleted", err)
	}
	if _, err := r.TryNewSubregion(); !errors.Is(err, ErrRegionDeleted) {
		t.Errorf("TryNewSubregion on dead region: %v, want ErrRegionDeleted", err)
	}
	if _, err := TryPin(o); !errors.Is(err, ErrRegionDeleted) {
		t.Errorf("TryPin on dead region: %v, want ErrRegionDeleted", err)
	}
	if err := r.Delete(); !errors.Is(err, ErrRegionDeleted) {
		t.Errorf("second Delete: %v, want ErrRegionDeleted", err)
	}
}

func TestTryOpsOnZombieRegion(t *testing.T) {
	a := NewArena()
	r := a.NewRegion()
	o := Alloc[int](r)
	unpin := Pin(o)
	r.DeleteDeferred() // pinned: becomes a zombie, not dead

	// New references, allocations, and subregions are all rejected while
	// the zombie awaits reclamation...
	if _, err := TryAlloc[int](r); !errors.Is(err, ErrRegionDeleted) {
		t.Errorf("TryAlloc on zombie: %v, want ErrRegionDeleted", err)
	}
	if _, err := r.TryNewSubregion(); !errors.Is(err, ErrRegionDeleted) {
		t.Errorf("TryNewSubregion on zombie: %v, want ErrRegionDeleted", err)
	}
	if _, err := TryPin(o); !errors.Is(err, ErrRegionDeleted) {
		t.Errorf("TryPin on zombie: %v, want ErrRegionDeleted", err)
	}
	if err := r.Delete(); !errors.Is(err, ErrRegionDeleted) {
		t.Errorf("Delete on zombie: %v, want ErrRegionDeleted", err)
	}
	// ...but the existing pinned reference keeps the objects usable
	// (the paper's GC-like third deletion policy).
	*o.Use() = 7
	if got := a.Stats().DeferredRegions; got != 1 {
		t.Fatalf("DeferredRegions = %d, want 1", got)
	}

	unpin()
	if got := a.Stats().DeferredRegions; got != 0 {
		t.Fatalf("DeferredRegions after unpin = %d, want 0", got)
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("Use of object in reclaimed zombie did not panic")
			}
		}()
		o.Use()
	}()
}

// A counted reference released inside DeleteDeferred's dying window,
// after the deleter read the count and before it published the zombie
// state, finds the region dying and cannot drain it; the deleter must
// re-offer the drain itself, or the region stays a zombie until a sweep.
func TestDeleteDeferredDrainsReleaseInDyingWindow(t *testing.T) {
	defer failpoint.Disable("rcgo/delete.dying")
	a := NewArena()
	holder := Alloc[auditNode](a.NewRegion())
	target := a.NewRegion()
	if err := SetRef(holder, &holder.Value.Next, Alloc[auditNode](target)); err != nil {
		t.Fatal(err)
	}
	if err := failpoint.Enable("rcgo/delete.dying", failpoint.Rule{
		Action: failpoint.ActionHook,
		Hook: func() {
			if err := SetRef(holder, &holder.Value.Next, nil); err != nil {
				t.Errorf("releasing the last reference: %v", err)
			}
		},
	}); err != nil {
		t.Fatal(err)
	}
	target.DeleteDeferred()
	failpoint.Disable("rcgo/delete.dying")
	if !target.Deleted() || target.Deferred() {
		t.Fatalf("region left as a zombie (deleted=%v deferred=%v); want reclaimed", target.Deleted(), target.Deferred())
	}
	if got := a.DeferredRegions(); got != 0 {
		t.Fatalf("DeferredRegions = %d, want 0", got)
	}
}

// Holds the dying window open with a hook on rcgo/delete.dying and
// checks both transient behaviours: TryPin spins (does not error) until
// the deleting goroutine decides, then observes the decision; and a
// delete that fails (subregion present) lets the waiting TryPin succeed.
func TestTryPinDuringDyingWindow(t *testing.T) {
	defer failpoint.Disable("rcgo/delete.dying")

	run := func(t *testing.T, held bool) (deleteErr, pinErr error) {
		a := NewArena()
		r := a.NewRegion()
		o := Alloc[int](r)
		var unpin func()
		if held {
			// An existing pin spoils the delete at its rc check, which
			// happens *inside* the dying window (subregions are checked
			// before it opens).
			unpin = Pin(Alloc[int](r))
		}
		entered := make(chan struct{})
		release := make(chan struct{})
		if err := failpoint.Enable("rcgo/delete.dying", failpoint.Rule{
			Action: failpoint.ActionHook,
			Hook:   func() { close(entered); <-release },
		}); err != nil {
			t.Fatal(err)
		}
		delDone := make(chan error, 1)
		go func() { delDone <- r.Delete() }()
		<-entered // the deleter is parked mid-decision, state is dying

		pinDone := make(chan error, 1)
		go func() { _, err := TryPin(o); pinDone <- err }()
		select {
		case err := <-pinDone:
			t.Fatalf("TryPin returned %v during the dying window; must wait for the decision", err)
		case <-time.After(20 * time.Millisecond):
		}

		failpoint.Disable("rcgo/delete.dying") // don't re-trigger on retries
		close(release)
		deleteErr, pinErr = <-delDone, <-pinDone
		if unpin != nil {
			unpin()
		}
		return deleteErr, pinErr
	}

	t.Run("delete-commits", func(t *testing.T) {
		// The spinning pinner's transient increment can land on the
		// delete's rc check and spoil it. That attempt is the other
		// linearizable outcome — the pin first, then a refused delete —
		// so repeat until the delete commits.
		const attempts = 20
		for i := 0; i < attempts; i++ {
			deleteErr, pinErr := run(t, false)
			switch {
			case deleteErr == nil:
				if !errors.Is(pinErr, ErrRegionDeleted) {
					t.Fatalf("TryPin after committed delete: %v, want ErrRegionDeleted", pinErr)
				}
				return
			case errors.Is(deleteErr, ErrRegionInUse):
				if pinErr != nil {
					t.Fatalf("TryPin after refused delete: %v, want success", pinErr)
				}
			default:
				t.Fatalf("Delete: %v, want success or ErrRegionInUse", deleteErr)
			}
		}
		t.Fatalf("Delete never committed in %d attempts", attempts)
	})
	t.Run("delete-fails", func(t *testing.T) {
		deleteErr, pinErr := run(t, true)
		if !errors.Is(deleteErr, ErrRegionInUse) {
			t.Fatalf("Delete with held pin: %v, want ErrRegionInUse", deleteErr)
		}
		if pinErr != nil {
			t.Fatalf("TryPin after failed delete: %v, want success", pinErr)
		}
	})
}

// The mutating operations also surface injected admission failures as
// ErrInjected-wrapped errors distinct from the lifecycle errors.
func TestTryOpsInjectedErrors(t *testing.T) {
	defer failpoint.DisableAll()
	a := NewArena()
	r := a.NewRegion()
	o := Alloc[int](r)

	if err := failpoint.Enable("rcgo/alloc.admission", failpoint.Rule{Action: failpoint.ActionError}); err != nil {
		t.Fatal(err)
	}
	if _, err := TryAlloc[int](r); !errors.Is(err, ErrInjected) {
		t.Errorf("TryAlloc under injection: %v, want ErrInjected", err)
	} else if errors.Is(err, ErrRegionDeleted) {
		t.Errorf("injected alloc error must not read as ErrRegionDeleted: %v", err)
	}
	failpoint.Disable("rcgo/alloc.admission")

	if err := failpoint.Enable("rcgo/incrc.validate", failpoint.Rule{Action: failpoint.ActionError}); err != nil {
		t.Fatal(err)
	}
	if _, err := TryPin(o); !errors.Is(err, ErrInjected) {
		t.Errorf("TryPin under injection: %v, want ErrInjected", err)
	}
	failpoint.Disable("rcgo/incrc.validate")

	// The failed pin left no residue: the region deletes cleanly.
	if err := r.Delete(); err != nil {
		t.Fatalf("Delete after injected pin: %v", err)
	}
	if got := a.Stats().LiveObjects; got != 0 {
		t.Fatalf("LiveObjects = %d, want 0", got)
	}
}
