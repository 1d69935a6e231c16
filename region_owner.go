package rcgo

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync/atomic"
	"time"
)

// Exclusive region ownership (DESIGN.md §14): the regions-as-locks idea
// of Gerakios et al. ported onto the concurrent runtime. A goroutine
// that holds a region's Owner token has exclusive mutation rights to
// it, and the owned operations (AllocOwned, SetRefOwned, SetSameOwned,
// SetTradOwned, SetParentOwned) exploit that exclusivity: bookkeeping
// that the shared paths maintain with atomics and shard locks is kept
// in plain owner-local fields on the token and flushed to the shared
// counters at Release. The common pipeline pattern — build a region on
// one goroutine, hand it through a channel, let the consumer delete it
// — pays near-zero synchronization per operation.
//
// The owned-state machine. Acquire transitions a region stateAlive →
// stateOwned under the lifecycle mutex; Release transitions it back.
// stateOwned is a settled state (unlike the transient stateDying):
// shared-path observers do not wait it out, they fail fast with
// ErrRegionOwned — allocation, subregion creation, pins, new inbound
// counted references, stores whose holder lives in the owned region,
// and Delete are all rejected while the region is owned. Two things
// remain possible from outside: releasing *pre-existing* references
// (decRC — unpin, clearing a counted slot in some other region that
// points here) and reading (Stats, Hierarchy, Audit — all atomic or
// mu-protected state only). A dying, zombie or dead region cannot be
// acquired, and an owned region cannot be deleted or deferred except
// through its token (Owner.Delete).
//
// Contended acquisition (DESIGN.md §15). TryAcquire is non-blocking by
// design — a contender gets ErrRegionOwned and decides its own retry
// policy — but a caller that *wants* the token needs acquisition that
// queues instead of spinning. AcquireContext parks the contender on a
// per-region FIFO wait queue (guarded by r.mu, like every lifecycle
// decision): Release pops the queue head and hands it a fresh token
// directly, without the region ever passing through stateAlive, so
// there is no thundering herd and no barn door for a third party to
// steal the region through. Cancellation and deadlines remove the
// parked waiter from the queue without leaking its slot; a region that
// dies while waiters are parked (Owner.Delete) fails them all with
// ErrRegionDeleted. A stalled owner is the OwnerWatchdog's business
// (region_watchdog.go): it can forcibly revoke the stale token
// (ErrOwnerRevoked) and push the queue forward.
//
// Why the owner may use plain (non-atomic) loads and stores. Four
// hazards have to be excluded:
//
//  1. In-flight shared stores at Acquire time. A shared SetRef that
//     passed its state check before the stateOwned transition may still
//     be mid-critical-section on the region's slot-registry lock.
//     Acquire therefore performs a barrier after the transition: it
//     locks and releases the registry lock once. Any store that read
//     stateAlive is inside its critical section and completes before
//     the barrier takes the lock; any store that takes the lock after
//     the barrier re-reads the state inside it (SetRef checks the
//     holder state under the registry mutex) and fails with
//     ErrRegionOwned. After Acquire returns, no shared-path store can
//     touch the region's slots, and the barrier's lock/unlock pair
//     gives the acquiring goroutine a happens-before edge over every
//     prior registration — so the owner's plain reads of slot
//     bookkeeping (Ref.registered) observe fully-written values.
//  2. Concurrent readers while owned. Stats/Audit/Hierarchy read only
//     atomics (or take mu, which the owner's fast paths never hold), so
//     the owner keeps its *new* state in plain fields those readers
//     never touch: object-count and metric deltas live on the token,
//     newly counted slots are parked on the token instead of the shared
//     registry. The one shared word the owner still writes per store is
//     the slot's atomic target pointer — debug scans (targetRegion) and
//     the delete-time unscan read it concurrently, and an atomic store
//     on x86/arm64 costs the same as a plain one, so nothing is lost.
//  3. Token transfer between goroutines. The token is not itself
//     synchronized: it must be used by one goroutine at a time, and
//     handing it to another goroutine must happen through a
//     synchronization edge — a channel send/receive, a mutex, a
//     sync.WaitGroup. That edge is the standard Go memory-model
//     happens-before that publishes the token's plain fields to the
//     receiver, exactly as for any other Go value. Release is the final
//     edge: every owner-local write precedes the flush, the flush
//     happens under r.mu, and any later shared-path operation that
//     observes stateAlive synchronizes with Release through that mutex
//     and the state atomic.
//  4. Waiter wake vs the flush window. A direct hand-off never returns
//     the region to stateAlive, so hazard 3's "later shared-path
//     operation observes stateAlive" edge never forms — the successor
//     needs its own publication edge over the old owner's plain writes
//     (the flushed counters, the slot registrations merged under the
//     registry lock, Ref.registered flags written plain). That
//     edge is the hand-off channel itself: the old owner flushes under
//     r.mu, releases the mutex, and only then sends the successor
//     token on the waiter's buffered channel, so every owner-local
//     write (and the flush that merged it) is sequenced before the
//     send, and the receive in AcquireContext happens-before every
//     owned operation the successor performs. The successor also skips
//     the Acquire barrier: the region never left stateOwned, so no
//     shared-path store can have slipped in for the barrier to wait
//     out — the hand-off inherits the old owner's barrier.
//
// Flush-at-Release exactness: Release (and Owner.Delete) merges the
// owner-local deltas into the shared counters under r.mu before the
// region returns to the shared state, so every counter keeps the
// runtime-wide exact-at-quiesce contract — an arena in which every
// token has been released accounts for every owned-path operation, and
// the chaos ownership phase judges Counters().Allocs against
// worker-counted successes exactly. While a token is outstanding its
// unflushed deltas are invisible to Stats/Audit (both the per-region
// and the fabric-shard side miss them equally, so totals stay
// consistent); the audit's rc-accounting rule is advisory while any
// region is owned, because counted slots created through a token are
// merged into the scanned registry only at Release. Owner.Delete never
// merges them: a successful delete hands the parked slots straight to
// the delete-time unscan (reclaim), which releases them after the
// registry's slots, and a delete that fails ErrRegionInUse leaves them
// parked on the still-valid token for a later Release or Delete. Either
// way each parked slot is released exactly once.
//
// The flush window carries the rcgo/own.release failpoint: an injected
// error is a transient release failure observed before anything is
// flushed — the region stays owned and the token stays valid, so the
// caller retries; perturbations (delay/yield) fire inside the window,
// under mu, stretching the interval the chaos phase races against.

// ErrRegionOwned is returned by shared-path operations that target a
// region while it is exclusively owned (Region.TryAcquire): allocation,
// subregion creation, pinning, deleting, creating an inbound counted
// reference, any Set* store whose holder lives in the owned region, and
// a second TryAcquire. The owner performs these through its token.
var ErrRegionOwned = errors.New("rcgo: region is exclusively owned")

// ErrNotOwner is returned by owned-path operations whose token has been
// released (or consumed by Owner.Delete), and by owned stores whose
// holder object does not live in the token's region.
var ErrNotOwner = errors.New("rcgo: operation requires the region's owner token")

// ErrOwnerRevoked is returned by every operation on an Owner token that
// the OwnerWatchdog's forced-release escape hatch has revoked
// (region_watchdog.go): the region has been handed onward — to the next
// parked waiter, or back to the shared state — and the stale token can
// never touch it again. Unflushed owner-local deltas on a revoked token
// are discarded, never merged (see revokeOwner).
var ErrOwnerRevoked = errors.New("rcgo: owner token was revoked")

// handoff is what a parked waiter receives when its turn comes: a fresh
// Owner token, or the error that ended the wait (the region died while
// the waiter was parked).
type handoff struct {
	o   *Owner
	err error
}

// acquirePCDepth is how many frames of the acquiring call stack are
// recorded per token, for the owner watchdog's stale-owner reports and
// the /owners inspector.
const acquirePCDepth = 3

// acquireWaiter is one parked AcquireContext contender on a region's
// FIFO wait queue (Region.waitq, guarded by r.mu). ready is buffered
// with capacity 1 so the hand-off side — Release, Owner.Delete's
// fail-the-queue sweep, the watchdog's revocation — never blocks on a
// waiter, even one that has already given up and is about to take
// delivery only to dispose of the token.
type acquireWaiter struct {
	ready chan handoff
	// pcs/npc record the waiter's own call stack at park time, so a
	// token minted by hand-off is attributed to the goroutine that
	// actually holds it, not to the releaser.
	pcs [acquirePCDepth]uintptr
	npc int
}

// ownerCounters are the owner-local metric deltas, mirrored from
// counterShard and flushed into one shard at Release. Plain fields:
// only the owning goroutine touches them.
type ownerCounters struct {
	allocs        int64
	stores        [flavourCount]int64 // indexed by StoreFlavour, like counterShard.stores
	checkFailures int64
}

func (c *ownerCounters) any() bool { return *c != ownerCounters{} }

// Owner is the transferable token of exclusive ownership over one
// region, returned by Region.TryAcquire. It must be used by one
// goroutine at a time; handing it to another goroutine must happen
// through a synchronization edge (typically a channel), which is what
// publishes its plain owner-local state to the receiver. The zero Owner
// is not valid.
type Owner struct {
	// r is the owned region; nil once the token has been released or
	// consumed by Owner.Delete.
	r *Region
	// objs is the owned-allocation count not yet flushed to r.objs.
	objs int64
	// m is the owner-local metric deltas.
	m ownerCounters
	// slots are counted slots first registered while owned, parked on
	// the token: merged into the shared registry at Release, released
	// by the unscan at a successful Owner.Delete (never merged), and
	// kept here across a Delete that fails.
	slots []releaser
	// revoked is set (exactly once, under r.mu) by the OwnerWatchdog's
	// forced release; every owned operation checks it first and fails
	// with ErrOwnerRevoked. It is the one atomic on the token — an
	// uncontended load on an owner-local cache line, so the owned fast
	// paths keep their plain-field cost story.
	revoked atomic.Bool
}

// Region returns the owned region, or nil after Release/Delete.
func (o *Owner) Region() *Region { return o.r }

// Owned reports whether the region is currently exclusively owned.
func (r *Region) Owned() bool { return r.settled() == stateOwned }

// storeBarrier locks and releases the slot registry once. Called by
// TryAcquire after the stateOwned transition: every in-flight shared
// counted store holds the registry lock from state check to
// registration, so the barrier both waits those stores out and hands
// the acquiring goroutine a happens-before edge over all prior slot
// registrations.
func (r *Region) storeBarrier() {
	r.slots.mu.Lock()
	//lint:ignore SA2001 the empty critical section is the barrier
	r.slots.mu.Unlock()
}

// Acquire takes exclusive ownership of the region, panicking on
// failure. It panics with ErrRegionOwned if another token already holds
// the region, with ErrRegionDeleted if the region has been deleted or
// deferred-deleted, and with a plain error on the traditional region
// (which is shared by construction and can never be owned). Use
// TryAcquire where a concurrent delete or a second acquirer may race,
// or AcquireContext to wait for the current owner's release.
func (r *Region) Acquire() *Owner {
	o, err := r.TryAcquire()
	if err != nil {
		panic(err)
	}
	return o
}

// TryAcquire takes exclusive ownership of the region, returning the
// transferable Owner token. It fails with ErrRegionOwned if the region
// is already owned, ErrRegionDeleted if it has been deleted or
// deferred-deleted, and an error on the traditional region (which is
// shared by construction). Pre-existing external references do not
// block acquisition — they may still be released (decRC) while the
// region is owned; only *new* references are rejected.
func (r *Region) TryAcquire() (*Owner, error) {
	if r == r.arena.trad {
		return nil, errors.New("rcgo: cannot acquire the traditional region")
	}
	r.mu.Lock()
	o, err := r.acquireLocked()
	r.mu.Unlock()
	if err != nil {
		return nil, err
	}
	r.finishAcquire()
	return o, nil
}

// acquireLocked performs the alive → owned transition. The caller holds
// r.mu and, on success, must call finishAcquire after releasing it.
func (r *Region) acquireLocked() (*Owner, error) {
	switch r.state.Load() {
	case stateAlive:
	case stateOwned:
		return nil, fmt.Errorf("%w: Acquire of region %d", ErrRegionOwned, r.id)
	default: // dying cannot be observed under mu; zombie or dead
		return nil, fmt.Errorf("%w: Acquire of region %d", ErrRegionDeleted, r.id)
	}
	o := &Owner{r: r}
	r.owner.Store(o)
	r.state.Store(stateOwned)
	r.shard.ownedRegions.Add(1)
	r.since = time.Now()
	if r.arena.recordAcquireSites.Load() {
		// Skip runtime.Callers, acquireLocked and its Try/AcquireContext
		// wrapper: the first recorded frame is the acquiring caller.
		r.acquirePCN = runtime.Callers(3, r.acquirePC[:])
	}
	return o, nil
}

// finishAcquire is the out-of-mu tail of an uncontended acquire: the
// slot-registry barrier (hazard 1 in the file comment) and the acquired
// event. A handed-off acquire does not come through here — it inherits
// the old owner's barrier (hazard 4) and notes its event at the receive
// site.
func (r *Region) finishAcquire() {
	r.storeBarrier()
	r.note(TraceRegionAcquired, 1)
}

// AcquireContext takes exclusive ownership of the region, waiting for
// the current owner to release it. An uncontended call is TryAcquire
// with a context check; a contended call parks on the region's FIFO
// wait queue — no spinning, no thundering herd — until Owner.Release
// (or the watchdog's revocation) hands it a fresh token directly, the
// region dies (ErrRegionDeleted: an Owner.Delete failed the whole
// queue), or ctx ends. A cancelled or expired wait removes the waiter
// from the queue without leaking its slot and returns an error that
// wraps both ctx.Err() and ErrRegionOwned, so callers can test either
// with errors.Is; if the hand-off wins the race against cancellation,
// the delivered token is accounted (one acquire, one release) and
// immediately passed onward before the same error returns.
func (r *Region) AcquireContext(ctx context.Context) (*Owner, error) {
	if r == r.arena.trad {
		return nil, errors.New("rcgo: cannot acquire the traditional region")
	}
	if err := ctx.Err(); err != nil {
		return nil, r.acquireAbortErr(err)
	}
	r.mu.Lock()
	if r.state.Load() != stateOwned {
		o, err := r.acquireLocked()
		r.mu.Unlock()
		if err != nil {
			return nil, err
		}
		r.finishAcquire()
		return o, nil
	}
	// Contended: park. The waiter is visible to Release's hand-off the
	// moment mu is released, and only while the region stays owned —
	// stateOwned is re-checked under the same mu that every alive ⇄
	// owned transition holds, so a waiter can never be appended to an
	// unowned or dead region (the audit's waiters-on-unowned rule).
	w := &acquireWaiter{ready: make(chan handoff, 1)}
	if r.arena.recordAcquireSites.Load() {
		w.npc = runtime.Callers(2, w.pcs[:])
	}
	r.waitq = append(r.waitq, w)
	r.shard.acquireWaiters.Add(1)
	r.mu.Unlock()
	r.contendedWaits.Add(1)
	r.note(TraceAcquireBlocked, 1)
	start := time.Now()

	select {
	case h := <-w.ready:
		return r.acquireDelivered(ctx, h, start)
	case <-ctx.Done():
	}
	// Gave up. If the waiter is still queued, removing it is the whole
	// story; if the hand-off already popped it, the send is committed
	// (the channel is buffered, the sender never blocks) — take
	// delivery and dispose of the token like any other post-receive
	// cancellation.
	r.mu.Lock()
	removed := r.removeWaiterLocked(w)
	r.mu.Unlock()
	if !removed {
		return r.acquireDelivered(ctx, <-w.ready, start)
	}
	r.noteAcquireWaitDone(start)
	r.noteAcquireAborted(ctx.Err())
	return nil, r.acquireAbortErr(ctx.Err())
}

// acquireDelivered finishes a parked acquire once the hand-off channel
// has yielded: the wait is accounted, then the outcome is the hand-off
// error (the region died), the token (the normal case), or — when ctx
// ended while the token was in flight — a full acquire/release pair
// that keeps the books balanced while the caller still gets its
// cancellation error.
func (r *Region) acquireDelivered(ctx context.Context, h handoff, start time.Time) (*Owner, error) {
	r.noteAcquireWaitDone(start)
	if h.err != nil {
		return nil, h.err
	}
	r.note(TraceRegionAcquired, 1)
	if err := ctx.Err(); err != nil {
		r.noteAcquireAborted(err)
		r.disposeToken(h.o)
		return nil, r.acquireAbortErr(err)
	}
	return h.o, nil
}

// disposeToken releases a token its waiter no longer wants, retrying
// injected flush failures so a cancelled acquire can never wedge the
// queue behind an unreleased token. A token revoked in the meantime is
// already disposed of.
func (r *Region) disposeToken(o *Owner) {
	for {
		err := o.Release()
		if err == nil || !errors.Is(err, ErrInjected) {
			return
		}
	}
}

// acquireAbortErr is the cancellation error of AcquireContext: it wraps
// both the context error (context.Canceled or context.DeadlineExceeded)
// and ErrRegionOwned — the wait ended because the region was owned by
// someone else for the whole of it.
func (r *Region) acquireAbortErr(cause error) error {
	return fmt.Errorf("rcgo: AcquireContext on region %d gave up: %w",
		r.id, errors.Join(cause, ErrRegionOwned))
}

// noteAcquireWaitDone accrues the wall time one parked waiter spent
// waiting, however the wait ended.
func (r *Region) noteAcquireWaitDone(start time.Time) {
	if c := r.counters(); c != nil {
		c.acquireWaitNanos.Add(time.Since(start).Nanoseconds())
	}
}

// noteAcquireAborted counts and traces one AcquireContext call that
// returned with a context error after parking.
func (r *Region) noteAcquireAborted(cause error) {
	if c := r.counters(); c != nil {
		if errors.Is(cause, context.DeadlineExceeded) {
			c.acquireTimeouts.Add(1)
		} else {
			c.acquireCancels.Add(1)
		}
	}
	r.note(TraceAcquireAborted, 1)
}

// removeWaiterLocked unlinks w from the wait queue, reporting whether
// it was still there (false: a hand-off already popped it and owns the
// obligation to send). Caller holds r.mu.
func (r *Region) removeWaiterLocked(w *acquireWaiter) bool {
	for i, q := range r.waitq {
		if q == w {
			r.waitq = append(r.waitq[:i], r.waitq[i+1:]...)
			r.shard.acquireWaiters.Add(-1)
			return true
		}
	}
	return false
}

// waiterCount returns the wait-queue depth under mu, for the auditor
// and the /owners inspector.
func (r *Region) waiterCount() int {
	r.mu.Lock()
	n := len(r.waitq)
	r.mu.Unlock()
	return n
}

// handOffLocked moves the region on from a finished owner: the queue
// head gets a fresh token without the region ever leaving stateOwned,
// or — with no waiters — the region returns to the shared state. The
// rcgo/own.handoff failpoint sits on each transfer attempt: an injected
// error is a refused hand-off, requeueing that waiter at the tail and
// trying the next (a waiter-level retry that keeps FIFO order among the
// rest); a delay or yield widens the wake window.
//
// Caller holds r.mu with the region stateOwned and the outgoing token
// already flushed (Release, Owner.Delete) or condemned (revokeOwner).
// When a waiter is returned, the caller must send it handoff{o: next}
// AFTER releasing mu and AFTER tracing its own released/revoked event —
// that send is the hazard-4 edge publishing the old owner's plain
// writes to the successor, and the sequencing keeps the trace stream's
// released-before-acquired order.
func (r *Region) handOffLocked() (w *acquireWaiter, next *Owner) {
	for len(r.waitq) > 0 {
		if err := fpOwnHandoff.Eval(); err != nil {
			refused := r.waitq[0]
			copy(r.waitq, r.waitq[1:])
			r.waitq[len(r.waitq)-1] = refused
			continue
		}
		w = r.waitq[0]
		r.waitq = append(r.waitq[:0], r.waitq[1:]...)
		r.shard.acquireWaiters.Add(-1)
		next = &Owner{r: r}
		r.owner.Store(next)
		r.since = time.Now()
		r.acquirePC = w.pcs
		r.acquirePCN = w.npc
		return w, next
	}
	r.owner.Store(nil)
	r.state.Store(stateAlive)
	r.shard.ownedRegions.Add(-1)
	return nil, nil
}

// flushLocked merges the token's owner-local counters into the region's
// shared bookkeeping; its parked slots are left to the caller (Release
// merges them into the registry, Owner.Delete hands them to the
// unscan). Caller holds r.mu and the region is stateOwned (stable under
// mu). Flushing is idempotent-by-zeroing: the token's deltas are reset
// so a Delete that fails ErrRegionInUse after flushing leaves a
// still-valid token with nothing double-counted.
func (o *Owner) flushLocked(r *Region) {
	if o.objs != 0 {
		r.objs.Add(o.objs)
		o.objs = 0
	}
	if c := r.counters(); c != nil && o.m.any() {
		c.allocs.Add(o.m.allocs)
		for f, n := range o.m.stores {
			c.stores[f].Add(n)
		}
		c.checkFailures.Add(o.m.checkFailures)
		c.ownerFlushes.Add(1)
	}
	o.m = ownerCounters{}
}

// mergeSlotsLocked moves the token's parked slots into the region's
// shared registry, where the shared paths' unscan and the auditor find
// them. Caller holds r.mu and the region is stateOwned.
func (o *Owner) mergeSlotsLocked(r *Region) {
	if len(o.slots) == 0 {
		return
	}
	g := &r.slots
	g.mu.Lock()
	for _, s := range o.slots {
		g.add(s)
	}
	g.mu.Unlock()
	o.slots = nil
}

// Release returns the region to the shared state — or hands it straight
// to the next parked AcquireContext waiter — flushing every owner-local
// delta into the shared counters (the exactness edge) and invalidating
// the token. An injected rcgo/own.release error is a transient release
// failure: nothing has been flushed, the region stays owned and the
// token stays valid, so the caller retries. A token the OwnerWatchdog
// has revoked fails with ErrOwnerRevoked: the region has already moved
// on, and there is nothing left for this token to release.
func (o *Owner) Release() error {
	r := o.r
	if r == nil {
		return fmt.Errorf("%w: Release of a released token", ErrNotOwner)
	}
	if o.revoked.Load() {
		return fmt.Errorf("%w: Release of region %d", ErrOwnerRevoked, r.id)
	}
	r.mu.Lock()
	if r.owner.Load() != o {
		// Revoked between the check above and taking mu: the watchdog
		// installed a successor (or returned the region to the shared
		// state) and this token's deltas were condemned with it.
		r.mu.Unlock()
		return fmt.Errorf("%w: Release of region %d", ErrOwnerRevoked, r.id)
	}
	// Failpoint at the head of the flush window, under mu: an error
	// aborts before any flush; a delay or yield holds the window open
	// while owner-local deltas are about to be merged.
	if err := fpOwnRelease.Eval(); err != nil {
		r.mu.Unlock()
		return fmt.Errorf("%w: release of region %d", err, r.id)
	}
	o.flushLocked(r)
	o.mergeSlotsLocked(r)
	w, next := r.handOffLocked()
	r.mu.Unlock()
	o.r = nil
	r.note(TraceRegionReleased, 1)
	if w != nil {
		// The hazard-4 publication edge: flush (under mu) and the trace
		// above are sequenced before this send; the waiter's receive in
		// AcquireContext is sequenced before its first owned operation.
		w.ready <- handoff{o: next}
	}
	return nil
}

// Delete flushes the owner-local state and deletes the owned region in
// one step — the tail of the build→transfer→delete pipeline, saving the
// Release/Delete round trip through the shared state. Like Delete it
// fails with ErrRegionInUse while pre-existing external references or
// subregions remain; the region then STAYS owned and the token stays
// valid (the flush that already happened is just an early flush), its
// parked counted slots still on it. An injected rcgo/own.release error
// behaves as in Release. On success the token is consumed, and its
// parked slots go to the delete-time unscan without passing through
// the shared registry.
func (o *Owner) Delete() error {
	r := o.r
	if r == nil {
		return fmt.Errorf("%w: Delete of a released token", ErrNotOwner)
	}
	if o.revoked.Load() {
		return fmt.Errorf("%w: Delete of region %d", ErrOwnerRevoked, r.id)
	}
	r.mu.Lock()
	if r.owner.Load() != o {
		r.mu.Unlock()
		return fmt.Errorf("%w: Delete of region %d", ErrOwnerRevoked, r.id)
	}
	if err := fpOwnRelease.Eval(); err != nil {
		r.mu.Unlock()
		return fmt.Errorf("%w: delete of owned region %d", err, r.id)
	}
	o.flushLocked(r)
	if n := r.children.Load(); n > 0 {
		r.mu.Unlock()
		r.note(TraceDeleteBlocked, 1)
		return fmt.Errorf("%w (subregions=%d)", ErrRegionInUse, n)
	}
	if n := r.rc.Load(); n != 0 {
		// Pre-existing references (pins, inbound counted slots) not yet
		// released — or a transient incRC that is about to observe
		// stateOwned and withdraw. Either way the delete fails and
		// ownership is retained.
		r.mu.Unlock()
		r.note(TraceDeleteBlocked, 1)
		return fmt.Errorf("%w (rc=%d)", ErrRegionInUse, n)
	}
	// No dying window: stateOwned already rejects every operation that
	// stateDying guards against, so the transition is owned → dead. Any
	// parked AcquireContext waiters are failed wholesale — the region
	// they were queueing for no longer exists.
	waiters := r.waitq
	r.waitq = nil
	r.shard.acquireWaiters.Add(-int64(len(waiters)))
	parked := o.slots
	o.slots = nil
	r.owner.Store(nil)
	r.state.Store(stateDead)
	r.shard.liveRegions.Add(-1)
	r.shard.ownedRegions.Add(-1)
	r.mu.Unlock()
	o.r = nil
	r.note(TraceRegionReleased, 1)
	r.note(TraceRegionDeleted, 1)
	for _, w := range waiters {
		w.ready <- handoff{err: fmt.Errorf("%w: region %d deleted while waiting to acquire",
			ErrRegionDeleted, r.id)}
	}
	r.reclaim(parked)
	return nil
}

// revokeOwner is the OwnerWatchdog's forced-release escape hatch: it
// condemns the token `expect` and moves the region on — to the next
// parked waiter, or back to the shared state — exactly as a Release
// would, except that the condemned token's unflushed owner-local deltas
// are DISCARDED rather than merged. The revoker never reads the token's
// plain fields (that would race a still-running owner); it only sets
// the token's one atomic and swaps the region's owner pointer under mu.
// The cost of discarding: owned allocations and metric deltas made
// through the condemned token vanish from the counters (the region's
// object counter is the only count, so no total disagrees with it), and
// any rc units held by parked SetRefOwned slots are leaked. That is the
// documented price of tearing a token out of a crashed goroutine's
// hands; a still-running owner that mutates through the token after
// revocation is a data race, the same contract as using a token from
// two goroutines.
//
// Returns false when expect no longer holds the region — a legitimate
// Release (or Owner.Delete) won the race, and nothing happens.
func (r *Region) revokeOwner(expect *Owner) bool {
	r.mu.Lock()
	if r.state.Load() != stateOwned || r.owner.Load() != expect {
		r.mu.Unlock()
		return false
	}
	expect.revoked.Store(true)
	w, next := r.handOffLocked()
	r.mu.Unlock()
	r.note(TraceOwnerRevoked, 1)
	if w != nil {
		w.ready <- handoff{o: next}
	}
	return true
}

// ownerInfo samples the ownership picture of the region under mu, for
// the OwnerWatchdog and the /owners inspector: whether it is owned, the
// current token, when and where it was acquired, and the wait-queue
// depth.
func (r *Region) ownerInfo() (held bool, o *Owner, since time.Time, site string, depth int) {
	r.mu.Lock()
	if r.state.Load() != stateOwned {
		r.mu.Unlock()
		return false, nil, time.Time{}, "", 0
	}
	o = r.owner.Load()
	since = r.since
	pcs := r.acquirePC
	npc := r.acquirePCN
	depth = len(r.waitq)
	r.mu.Unlock()
	return true, o, since, acquireSite(pcs, npc), depth
}

// acquireSite renders a recorded acquire call stack as "file:line (fn)",
// or "" when no frames were captured.
func acquireSite(pcs [acquirePCDepth]uintptr, npc int) string {
	if npc <= 0 {
		return ""
	}
	frames := runtime.CallersFrames(pcs[:npc])
	for {
		f, more := frames.Next()
		if f.Function != "" {
			return fmt.Sprintf("%s:%d (%s)", f.File, f.Line, f.Function)
		}
		if !more {
			return ""
		}
	}
}

// AllocOwned allocates a zero T in the owned region through its token,
// panicking on failure; use TryAllocOwned where a refused chunk refill
// (rcgo/alloc.refill) must be tolerated.
func AllocOwned[T any](o *Owner) *Obj[T] {
	obj, err := TryAllocOwned[T](o)
	if err != nil {
		panic(err)
	}
	return obj
}

// TryAllocOwned allocates a zero T in the owned region through its
// token. The owned path skips everything the shared TryAlloc pays for
// admission: no state-check loop (the token proves the region is
// owned-alive), no atomic on the region's object counter —
// the object count and the metric delta are plain increments on the
// token, flushed at Release. The object itself still comes from the
// pooled per-type chunks (region_alloccache.go); their cursor atomics
// are uncontended while owned.
func TryAllocOwned[T any](o *Owner) (*Obj[T], error) {
	r := o.r
	if r == nil {
		return nil, fmt.Errorf("%w: owned allocation", ErrNotOwner)
	}
	if o.revoked.Load() {
		return nil, fmt.Errorf("%w: owned allocation", ErrOwnerRevoked)
	}
	obj, err := newChunkedObj[T](r)
	if err != nil {
		return nil, err
	}
	o.objs++
	o.m.allocs++
	return obj, nil
}

// holds is the token rule of every owned store: the token is live (not
// released, consumed or revoked) and the holder lives in its region. A
// pure predicate, so it inlines into the store core.
func holds[H any](o *Owner, holder *Obj[H]) bool {
	r := o.r
	return r != nil && !o.revoked.Load() && holder.region == r
}

// tokenError explains a failed holds: ErrNotOwner for a released token
// or a foreign holder, ErrOwnerRevoked for a revoked token.
func tokenError[H any](o *Owner, holder *Obj[H], f StoreFlavour) error {
	switch {
	case o.r == nil:
		return storeError(ErrNotOwner, f, o, nil, nil)
	case o.revoked.Load():
		return storeError(ErrOwnerRevoked, f, o, nil, nil)
	}
	return storeError(ErrNotOwner, f, o, holder.region, nil)
}

// SetRefOwned is the owned-path counted store: holder.slot = target
// where holder lives in the token's region. The holder-side cost
// collapses — no shard lock, no settled() check, registration
// bookkeeping is a plain append on the token — while the target-side
// protocol is unchanged: an external target still pays the atomic
// increment-then-validate (incRC) on its own region, because that
// region is shared and its delete races must stay linearizable. A
// displaced external reference is released with the same shared decRC.
func SetRefOwned[T any, H any](o *Owner, holder *Obj[H], slot *Ref[T], target *Obj[T]) error {
	return store(o, holder, slot, target, FlavourRef)
}

// SetSameOwned is the owned-path sameregion store: target must be nil
// or in the token's region. The check is the paper's one-compare
// annotation check against immutable identity; with the region owned
// there is no state word to consult at all.
func SetSameOwned[T any, H any](o *Owner, holder *Obj[H], slot *Ref[T], target *Obj[T]) error {
	return store(o, holder, slot, target, FlavourSame)
}

// SetTradOwned is the owned-path traditional store: target must be nil
// or in the arena's traditional region (immortal, so no target state
// check either).
func SetTradOwned[T any, H any](o *Owner, holder *Obj[H], slot *Ref[T], target *Obj[T]) error {
	return store(o, holder, slot, target, FlavourTrad)
}

// SetParentOwned is the owned-path parentptr store: target must be nil
// or in an ancestor (or the same) region of the token's. The ancestor
// must not itself be deleted; an ancestor that is merely owned (by this
// or another token) is a legal target — a parentptr creates no
// reference and mutates nothing in the target region.
func SetParentOwned[T any, H any](o *Owner, holder *Obj[H], slot *Ref[T], target *Obj[T]) error {
	return store(o, holder, slot, target, FlavourParent)
}

// compile-time check that Region carries the owner pointer the audit
// reads; the field itself lives in region_api.go with its lifecycle
// peers.
var _ = func(r *Region) *atomic.Pointer[Owner] { return &r.owner }
