package rcgo

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Graceful degradation for deletes that stay blocked. Delete is
// non-blocking by design — it fails with ErrRegionInUse rather than
// waiting for references to drain — so a caller that *wants* the region
// gone needs a retry policy, and an operator needs to know when a
// deferred-deleted region is never going to drain. This file provides
// both: DeleteWithRetry (bounded, jittered exponential backoff under a
// context) and ZombieWatchdog (a registry patrol that flags zombies
// older than a threshold, named with the holders that pin them, healing
// lost drain wakeups along the way). OwnerWatchdog, the same patrol over
// owned regions, lives here too.

// Backoff configures DeleteWithRetry's jittered exponential backoff.
// The zero value is usable: 1ms initial, 100ms cap, doubling, half the
// interval jittered.
type Backoff struct {
	// Initial is the first sleep (default 1ms).
	Initial time.Duration
	// Max caps the sleep (default 100ms).
	Max time.Duration
	// Multiplier grows the sleep after each failed attempt (default 2).
	Multiplier float64
	// Jitter is the fraction of each sleep drawn uniformly at random
	// (default 0.5, taken for any value outside (0, 1]): the actual
	// sleep is d*(1-Jitter) + rand*d*Jitter, decorrelating retry storms
	// from concurrent deleters.
	Jitter float64
}

func (b Backoff) withDefaults() Backoff {
	if b.Initial <= 0 {
		b.Initial = time.Millisecond
	}
	if b.Max <= 0 {
		b.Max = 100 * time.Millisecond
	}
	if b.Multiplier < 1 {
		b.Multiplier = 2
	}
	if b.Jitter <= 0 || b.Jitter > 1 {
		b.Jitter = 0.5
	}
	return b
}

// sleep returns the jittered duration for attempt n (0-based).
func (b Backoff) sleep(n int) time.Duration {
	d := float64(b.Initial)
	for i := 0; i < n; i++ {
		d *= b.Multiplier
		if d >= float64(b.Max) {
			d = float64(b.Max)
			break
		}
	}
	if b.Jitter > 0 {
		d = d*(1-b.Jitter) + rand.Float64()*d*b.Jitter
	}
	return time.Duration(d)
}

// DeleteWithRetry calls Delete until it succeeds, retrying with
// jittered exponential backoff while the failure is transient — the
// region is in use (ErrRegionInUse) or a failpoint injected the failure
// (ErrInjected). It stops early on a terminal outcome (the region was
// already deleted, or it is the traditional region) and returns that
// error unchanged. When ctx expires first, the returned error wraps
// both the context error and the last Delete error, so callers can
// test either with errors.Is.
func (r *Region) DeleteWithRetry(ctx context.Context, b Backoff) error {
	b = b.withDefaults()
	for attempt := 0; ; attempt++ {
		err := r.Delete()
		if err == nil {
			return nil
		}
		if !errors.Is(err, ErrRegionInUse) && !errors.Is(err, ErrInjected) {
			return err
		}
		select {
		case <-ctx.Done():
			return fmt.Errorf("rcgo: delete retry on region %d gave up: %w", r.id,
				errors.Join(ctx.Err(), err))
		case <-time.After(b.sleep(attempt)):
		}
	}
}

// SweepZombies force-drains every zombie region whose references and
// subregions have already drained, returning the number of regions
// reclaimed. A healthy arena reclaims zombies inline (the last decRC or
// child reclaim drains them) and a sweep finds nothing; the sweep
// exists as the recovery path for lost drain wakeups — the condition
// the zombie.drain failpoint induces and AuditZombieReclaimable
// reports. It loops to a fixpoint so cascades (a drained child
// unblocking a zombie parent) complete in one call. Safe to run
// concurrently with anything.
func (a *Arena) SweepZombies() int {
	total := 0
	for {
		n := 0
		a.EachRegion(func(r *Region) {
			if r.drain(true) {
				n++
			}
		})
		total += n
		if n == 0 {
			return total
		}
	}
}

// StuckZombie describes one deferred-deleted region that has stayed
// unreclaimed longer than the watchdog's threshold, with the evidence
// an operator needs: how long it has been a zombie, its current counts,
// and which regions' counted slots pin it (from the blocked-deleters
// scan).
type StuckZombie struct {
	ID int64 `json:"id"`
	// Age is how long the region has been a zombie when flagged.
	Age time.Duration `json:"age_ns"`
	RC  int64         `json:"rc"`
	// Pins is the pin subset of RC.
	Pins int64 `json:"pins"`
	// Subregions counts live children; a zombie cannot reclaim while
	// any remain, even at rc 0.
	Subregions int64 `json:"subregions,omitempty"`
	// Holders names the regions whose registered counted slots point
	// into this region, sorted by slot count descending.
	Holders []BlockedHolder `json:"holders,omitempty"`
}

// patrol is the background loop both watchdogs embed: Start runs check
// every interval until Stop.
type patrol struct {
	check func()

	stopOnce sync.Once
	stop     chan struct{}
	done     chan struct{}
}

// Start runs Check every interval on a background goroutine until
// Stop. Start may be called at most once.
func (p *patrol) Start(interval time.Duration) {
	if p.stop != nil {
		panic("rcgo: watchdog Start called twice")
	}
	p.stop = make(chan struct{})
	p.done = make(chan struct{})
	go func() {
		defer close(p.done)
		t := time.NewTicker(interval)
		defer t.Stop()
		for {
			select {
			case <-p.stop:
				return
			case <-t.C:
				p.check()
			}
		}
	}()
}

// Stop halts the background checker and waits for it to exit. No-op if
// Start was never called; safe to call more than once.
func (p *patrol) Stop() {
	if p.stop == nil {
		return
	}
	p.stopOnce.Do(func() { close(p.stop) })
	<-p.done
}

// ZombieWatchdog flags deferred-deleted regions that fail to reclaim
// within a threshold. It reads each zombie's state from the region
// itself — the time it became a zombie (Region.since) and its counts,
// under the region's mutex — so it needs no tracer and sees every
// zombie, however the trace stream interleaves. Each Check (called
// directly, or periodically after Start):
//
//  1. heals lost drain wakeups — a zombie past the threshold that is
//     already drained (rc 0, no subregions) is reclaimed on the spot,
//     not flagged;
//  2. flags every zombie past the threshold that is genuinely pinned,
//     naming the pinning holder regions via the blocked-deleters scan,
//     and delivers each report to the OnStuck callback (if set).
type ZombieWatchdog struct {
	patrol
	arena     *Arena
	threshold time.Duration

	// OnStuck, if non-nil, receives every flagged zombie, once per
	// Check that finds it still stuck. Set before Start.
	OnStuck func(StuckZombie)

	// now is the clock, injectable in tests.
	now func() time.Time

	flagged atomic.Int64
	healed  atomic.Int64
}

// NewZombieWatchdog creates a watchdog for a with the given age
// threshold. It patrols the arena's region registry; a tracer, if one
// is wanted, is installed on the arena independently.
func NewZombieWatchdog(a *Arena, threshold time.Duration) *ZombieWatchdog {
	w := &ZombieWatchdog{arena: a, threshold: threshold, now: time.Now}
	w.check = func() { w.Check() }
	return w
}

// Check runs one watchdog pass and returns the zombies flagged as
// stuck, sorted by id. See the type comment for what one pass does.
func (w *ZombieWatchdog) Check() []StuckZombie {
	now := w.now()
	var stuck []StuckZombie
	var blocked map[int64]BlockedRegion
	w.arena.EachRegion(func(r *Region) {
		if r.state.Load() != stateZombie {
			return
		}
		r.mu.Lock()
		zombie, since := r.state.Load() == stateZombie, r.since
		r.mu.Unlock()
		if !zombie || now.Sub(since) < w.threshold {
			return
		}
		st := r.Stats()
		if st.RC == 0 && st.Subregions == 0 {
			// Drained but unreclaimed: a lost wakeup. Heal, don't flag.
			if r.drain(true) {
				w.healed.Add(1)
				return
			}
			// Lost the race with a pin or another drain; re-read.
			st = r.Stats()
		}
		if !st.Deferred {
			return
		}
		if blocked == nil {
			// The blocked-deleters scan names the holders; index it by
			// zombie, once per pass and only when a pinned zombie is due.
			blocked = make(map[int64]BlockedRegion)
			for _, br := range w.arena.BlockedDeleters() {
				blocked[br.ID] = br
			}
		}
		stuck = append(stuck, StuckZombie{
			ID:         r.id,
			Age:        now.Sub(since),
			RC:         st.RC,
			Pins:       st.Pins,
			Subregions: st.Subregions,
			Holders:    blocked[r.id].Holders,
		})
	})
	sort.Slice(stuck, func(i, j int) bool { return stuck[i].ID < stuck[j].ID })
	for _, sz := range stuck {
		w.flagged.Add(1)
		if w.OnStuck != nil {
			w.OnStuck(sz)
		}
	}
	return stuck
}

// Flagged returns the cumulative number of stuck-zombie reports made.
func (w *ZombieWatchdog) Flagged() int64 { return w.flagged.Load() }

// Healed returns the cumulative number of lost drain wakeups the
// watchdog repaired (zombies it reclaimed itself).
func (w *ZombieWatchdog) Healed() int64 { return w.healed.Load() }

// StaleOwner describes one region held through an Owner token longer
// than the owner watchdog's threshold, with the evidence an operator
// needs: how long the current token has been held, where it was
// acquired, and how many AcquireContext contenders are queued behind
// it.
type StaleOwner struct {
	ID int64 `json:"id"`
	// Age is how long the current token had been held when flagged
	// (measured from the region's own acquire timestamp, so a hand-off
	// that re-minted the token resets it).
	Age time.Duration `json:"age_ns"`
	// AcquireSite is the "file:line (func)" of the call that minted the
	// current token — the TryAcquire/Acquire caller, or the parked
	// AcquireContext waiter the token was handed to. Empty if no frames
	// were captured (the token was minted before any OwnerWatchdog
	// existed on the arena).
	AcquireSite string `json:"acquire_site,omitempty"`
	// QueueDepth is the number of waiters parked behind the stale owner
	// at flag time.
	QueueDepth int `json:"queue_depth"`
	// Revoked reports that this pass forcibly revoked the token
	// (ForceReleaseAfter elapsed): the region moved on and the stale
	// token now fails every operation with ErrOwnerRevoked.
	Revoked bool `json:"revoked,omitempty"`
}

// OwnerWatchdog flags regions that stay exclusively owned longer than a
// threshold — the ownership analogue of ZombieWatchdog, for the failure
// mode where a goroutine acquires a region and then stalls or crashes
// without releasing, wedging every parked AcquireContext waiter behind
// it. Like ZombieWatchdog it reads the region itself: each owned
// region's current token, acquire time (Region.since), acquire site and
// queue depth, sampled under the region's mutex. Each Check (called
// directly, or periodically after Start):
//
//  1. flags every region whose current token is older than the
//     threshold, reporting the holder's acquire site and the current
//     queue depth to the OnStale callback (if set) — a hand-off
//     re-mints the token and restarts its age;
//  2. optionally, when ForceReleaseAfter is set and exceeded, revokes
//     the stale token (Region.revokeOwner, guarded by the sampled
//     token, so a token released since the sample is left alone): the
//     token fails every subsequent operation with ErrOwnerRevoked, its
//     unflushed deltas are discarded, and the region is handed to the
//     next waiter or returned to the shared state. The escape hatch is
//     off by default — revocation tears a token out of a
//     possibly-running goroutine's hands and is only safe when the
//     owner is known to be wedged.
//
// Creating an OwnerWatchdog switches the arena to recording every
// acquire's call site (for AcquireSite and the /owners inspector); an
// arena that never has one skips that runtime.Callers cost.
type OwnerWatchdog struct {
	patrol
	arena     *Arena
	threshold time.Duration

	// ForceReleaseAfter, when positive, is the held-age beyond which a
	// Check forcibly revokes the stale token. Zero disables forced
	// release (detection only). Set before Start.
	ForceReleaseAfter time.Duration

	// OnStale, if non-nil, receives every flagged stale owner, once per
	// Check that finds it still held. Set before Start.
	OnStale func(StaleOwner)

	// now is the clock, injectable in tests.
	now func() time.Time

	flagged atomic.Int64
	revoked atomic.Int64
}

// NewOwnerWatchdog creates an owner watchdog for a with the given
// held-age threshold, and from then on the arena records acquire
// sites. It patrols the arena's region registry; a tracer, if one is
// wanted, is installed on the arena independently.
func NewOwnerWatchdog(a *Arena, threshold time.Duration) *OwnerWatchdog {
	a.recordAcquireSites.Store(true)
	w := &OwnerWatchdog{arena: a, threshold: threshold, now: time.Now}
	w.check = func() { w.Check() }
	return w
}

// Check runs one watchdog pass and returns the regions flagged as
// stalely owned, sorted by id. See the type comment for what one pass
// does.
func (w *OwnerWatchdog) Check() []StaleOwner {
	now := w.now()
	var stale []StaleOwner
	w.arena.EachRegion(func(r *Region) {
		if r.state.Load() != stateOwned {
			return
		}
		held, owner, since, site, depth := r.ownerInfo()
		age := now.Sub(since)
		if !held || age < w.threshold {
			return
		}
		so := StaleOwner{ID: r.id, Age: age, AcquireSite: site, QueueDepth: depth}
		if w.ForceReleaseAfter > 0 && age >= w.ForceReleaseAfter && r.revokeOwner(owner) {
			so.Revoked = true
			w.revoked.Add(1)
		}
		stale = append(stale, so)
	})
	sort.Slice(stale, func(i, j int) bool { return stale[i].ID < stale[j].ID })
	for _, so := range stale {
		w.flagged.Add(1)
		if w.OnStale != nil {
			w.OnStale(so)
		}
	}
	return stale
}

// Flagged returns the cumulative number of stale-owner reports made.
func (w *OwnerWatchdog) Flagged() int64 { return w.flagged.Load() }

// Revoked returns the cumulative number of stale tokens the watchdog
// forcibly revoked.
func (w *OwnerWatchdog) Revoked() int64 { return w.revoked.Load() }
