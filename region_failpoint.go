package rcgo

import "rcgo/internal/failpoint"

// Failpoint sites on the hot lifecycle edges of the concurrent runtime
// (DESIGN.md §"Failure model"). Each site sits inside one of the race
// windows the delete state machine is built around, so chaos runs can
// provoke exactly the interleavings the protocol must survive:
//
//	rcgo/alloc.admission  TryAlloc, before the admission decision —
//	                      models a transient allocation failure and
//	                      perturbs the alloc-vs-delete race.
//	rcgo/incrc.validate   incRC, between publishing the increment and
//	                      validating the state — the heart of the
//	                      increment-then-validate protocol; an injected
//	                      error withdraws the increment (a reference
//	                      creation that fails mid-protocol), a yield
//	                      widens the window a concurrent Delete decides
//	                      in.
//	rcgo/delete.dying     Delete/DeleteDeferred, inside the dying
//	                      window (state stored, mu held, decision not
//	                      yet made) — an injected error aborts the
//	                      delete (restoring stateAlive), a delay holds
//	                      the window open so incRC's withdraw-and-retry
//	                      path runs.
//	rcgo/zombie.drain     maybeDrain, before taking the lifecycle lock —
//	                      an injected error skips this drain attempt (a
//	                      lost wakeup), which is exactly the stuck-
//	                      zombie condition Arena.SweepZombies and the
//	                      ZombieWatchdog exist to heal.
//	rcgo/slot.insert      SetRef, between counting the new reference
//	                      and registering the slot — an injected error
//	                      unwinds the store (decRC rollback), a yield
//	                      widens the count-vs-registry window the
//	                      delete-time unscan depends on.
//	rcgo/alloc.refill     the allocation fast path's GC-heap refill
//	                      edge (region_alloccache.go), evaluated on
//	                      every park miss before the pool is tried:
//	                      an injected error is a refused chunk refill
//	                      (a transient allocator failure surfaced
//	                      before the object is counted, so nothing
//	                      unwinds); a delay or yield stretches the
//	                      refill while other allocators and a
//	                      concurrent delete race past it.
//	rcgo/own.release      Owner.Release and Owner.Delete, at the head
//	                      of the flush window (mu held, nothing merged
//	                      yet) — an injected error is a transient
//	                      release failure observed before any flush, so
//	                      the region stays owned and the token stays
//	                      valid (callers retry); a delay or yield holds
//	                      the window open while owner-local deltas are
//	                      about to merge into the shared counters.
//	rcgo/own.handoff      handOffLocked, on each token-transfer attempt
//	                      from a finished owner to the wait-queue head
//	                      (mu held) — an injected error is a refused
//	                      hand-off: that waiter is requeued at the tail
//	                      and the next is tried, so delivery retries at
//	                      waiter granularity; a delay or yield widens
//	                      the wake/transfer window the cancellation
//	                      path races against.
//	rcgo/slab.map         newSlabChunkedObj, on the slab map/refill
//	                      window (region_slab.go) — an injected error
//	                      is a refused slab map surfaced before the
//	                      object is counted (a transient page-store
//	                      failure, so nothing unwinds); a delay or
//	                      yield widens the carve-vs-reclaim window
//	                      that the region's page-list closed flag and
//	                      the chunk writer gate decide. Only evaluated
//	                      when a backing store is attached and the
//	                      payload type is slab-eligible.
//
// Disarmed (the steady state), each site costs its edge one atomic
// pointer load and a never-taken branch — the same budget as the
// metrics gate. None of the sites is on the annotated-store fast path
// (SetSame/SetTrad/SetParent), keeping the paper's check-only cost
// story intact (EXPERIMENTS.md §"Failpoint overhead").
var (
	fpAllocAdmission = failpoint.New("rcgo/alloc.admission")
	fpIncRCValidate  = failpoint.New("rcgo/incrc.validate")
	fpDeleteDying    = failpoint.New("rcgo/delete.dying")
	fpZombieDrain    = failpoint.New("rcgo/zombie.drain")
	fpSlotInsert     = failpoint.New("rcgo/slot.insert")
	fpAllocRefill    = failpoint.New("rcgo/alloc.refill")
	fpOwnRelease     = failpoint.New("rcgo/own.release")
	fpOwnHandoff     = failpoint.New("rcgo/own.handoff")
	fpSlabMap        = failpoint.New("rcgo/slab.map")
)

// ErrInjected is failpoint.ErrInjected re-exported: every error a
// failpoint injects into a public operation wraps it, so callers (and
// the chaos reference model) can tell an induced failure from a real
// protocol outcome with errors.Is(err, ErrInjected). With no failpoint
// armed — the default — no operation ever returns it.
var ErrInjected = failpoint.ErrInjected
