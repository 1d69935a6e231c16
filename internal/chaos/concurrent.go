package chaos

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"rcgo"
	"rcgo/internal/failpoint"
)

// Concurrent chaos phase: workers hammer a shared region tree while
// failpoints perturb and fail every instrumented lifecycle edge, a
// ZombieWatchdog patrols for stuck zombies beside a RingTracer, and an
// audit sampler exercises Arena.Audit against the live arena. There is
// no reference model here — interleavings are not reproducible — so
// correctness is judged by the invariants that survive any
// interleaving: tolerated error classes only, exact accounting after
// quiesce, and a clean audit.

// ConcRules arms the sites with an interleaving-perturbation mix when
// perturb is true (yields and delays inside the race windows), or an
// error-injection mix otherwise (every unwind path under concurrency).
func ConcRules(seed uint64, perturb bool) map[string]failpoint.Rule {
	if perturb {
		return map[string]failpoint.Rule{
			"rcgo/alloc.admission": {Action: failpoint.ActionYield, Num: 1, Den: 5, Seed: seed},
			"rcgo/incrc.validate":  {Action: failpoint.ActionYield, Num: 1, Den: 3, Seed: seed, Yields: 2},
			"rcgo/delete.dying":    {Action: failpoint.ActionDelay, Num: 1, Den: 7, Seed: seed, Delay: 50 * time.Microsecond},
			"rcgo/zombie.drain":    {Action: failpoint.ActionYield, Num: 1, Den: 4, Seed: seed},
			"rcgo/slot.insert":     {Action: failpoint.ActionYield, Num: 1, Den: 4, Seed: seed},
			"rcgo/alloc.refill":    {Action: failpoint.ActionYield, Num: 1, Den: 3, Seed: seed, Yields: 2},
		}
	}
	return map[string]failpoint.Rule{
		"rcgo/alloc.admission": {Action: failpoint.ActionError, Num: 1, Den: 17, Seed: seed},
		"rcgo/incrc.validate":  {Action: failpoint.ActionError, Num: 1, Den: 19, Seed: seed},
		"rcgo/delete.dying":    {Action: failpoint.ActionError, Num: 1, Den: 11, Seed: seed},
		"rcgo/zombie.drain":    {Action: failpoint.ActionError, Num: 1, Den: 3, Seed: seed},
		"rcgo/slot.insert":     {Action: failpoint.ActionError, Num: 1, Den: 13, Seed: seed},
		"rcgo/alloc.refill":    {Action: failpoint.ActionError, Num: 1, Den: 5, Seed: seed},
	}
}

// AllocChurnRules arms the allocation-path sites for the alloc-churn
// phase: refused chunk refills at a high rate (the error path SeqRules
// cannot arm deterministically), transient admission failures, and
// yields inside the delete windows so reclaim's delta drain races the
// fast path's increment-then-validate loop as often as possible.
func AllocChurnRules(seed uint64) map[string]failpoint.Rule {
	return map[string]failpoint.Rule{
		"rcgo/alloc.admission": {Action: failpoint.ActionError, Num: 1, Den: 29, Seed: seed},
		"rcgo/alloc.refill":    {Action: failpoint.ActionError, Num: 1, Den: 3, Seed: seed},
		"rcgo/delete.dying":    {Action: failpoint.ActionYield, Num: 1, Den: 3, Seed: seed, Yields: 2},
		"rcgo/zombie.drain":    {Action: failpoint.ActionYield, Num: 1, Den: 4, Seed: seed},
	}
}

// FabricRules arms the sites for the fabric phase: transient admission
// failures plus yields inside every window where a fabric shard's
// counters are mid-update, so cross-shard accounting races as often as
// the scheduler allows.
func FabricRules(seed uint64) map[string]failpoint.Rule {
	return map[string]failpoint.Rule{
		"rcgo/alloc.admission": {Action: failpoint.ActionError, Num: 1, Den: 31, Seed: seed},
		"rcgo/alloc.refill":    {Action: failpoint.ActionYield, Num: 1, Den: 3, Seed: seed, Yields: 2},
		"rcgo/delete.dying":    {Action: failpoint.ActionYield, Num: 1, Den: 3, Seed: seed, Yields: 2},
		"rcgo/zombie.drain":    {Action: failpoint.ActionYield, Num: 1, Den: 4, Seed: seed},
		"rcgo/slot.insert":     {Action: failpoint.ActionYield, Num: 1, Den: 5, Seed: seed},
		"rcgo/incrc.validate":  {Action: failpoint.ActionYield, Num: 1, Den: 5, Seed: seed},
	}
}

// OwnershipRules arms the sites for the ownership hand-off phase:
// injected release failures in the flush window (the region stays owned
// and the token stays valid, so the worker must retry), refused chunk
// refills on the owned allocation path, and yields inside the windows
// the acquire barrier and the external incRC race against.
func OwnershipRules(seed uint64) map[string]failpoint.Rule {
	return map[string]failpoint.Rule{
		"rcgo/own.release":    {Action: failpoint.ActionError, Num: 1, Den: 5, Seed: seed},
		"rcgo/alloc.refill":   {Action: failpoint.ActionError, Num: 1, Den: 7, Seed: seed},
		"rcgo/incrc.validate": {Action: failpoint.ActionYield, Num: 1, Den: 3, Seed: seed, Yields: 2},
		"rcgo/delete.dying":   {Action: failpoint.ActionYield, Num: 1, Den: 3, Seed: seed},
		"rcgo/zombie.drain":   {Action: failpoint.ActionYield, Num: 1, Den: 4, Seed: seed},
	}
}

// ContentionRules arms the sites for the contention phase: refused
// hand-offs in the wake/transfer window (the waiter is requeued and the
// next tried, so FIFO delivery must survive refusals), injected release
// failures in the flush window (the releaser retries on a still-valid
// token while waiters stay parked), and refused chunk refills on the
// owned allocation path.
func ContentionRules(seed uint64) map[string]failpoint.Rule {
	return map[string]failpoint.Rule{
		"rcgo/own.handoff":  {Action: failpoint.ActionError, Num: 1, Den: 4, Seed: seed},
		"rcgo/own.release":  {Action: failpoint.ActionError, Num: 1, Den: 7, Seed: seed},
		"rcgo/alloc.refill": {Action: failpoint.ActionError, Num: 1, Den: 9, Seed: seed},
	}
}

// SlabRules arms the sites for the slab phase: injected map failures on
// the slab refill edge (the only error a backing store may surface, as
// a transient allocator failure), refused GC-heap refills so the
// fallback path churns too, and yields inside the delete windows so
// region reclaim — which returns slab pages for immediate reuse —
// races the carve-and-track window as often as possible.
func SlabRules(seed uint64) map[string]failpoint.Rule {
	return map[string]failpoint.Rule{
		"rcgo/slab.map":     {Action: failpoint.ActionError, Num: 1, Den: 7, Seed: seed},
		"rcgo/alloc.refill": {Action: failpoint.ActionError, Num: 1, Den: 11, Seed: seed},
		"rcgo/delete.dying": {Action: failpoint.ActionYield, Num: 1, Den: 3, Seed: seed, Yields: 2},
		"rcgo/zombie.drain": {Action: failpoint.ActionYield, Num: 1, Den: 4, Seed: seed},
	}
}

// ConcConfig sizes one concurrent phase.
type ConcConfig struct {
	Seed    int64
	Workers int
	// Ops is the per-worker op count.
	Ops int
	// Rules arms the failpoints for the duration of the phase.
	Rules map[string]failpoint.Rule
}

// ConcResult reports one concurrent phase.
type ConcResult struct {
	Ops              int
	WatchdogFlagged  int64
	WatchdogHealed   int64
	SweptAtQuiesce   int
	TraceStats       rcgo.TraceStats
	Audit            rcgo.AuditReport
	DeferredObserved int64
	// AllocSuccesses / AllocFlushes are set by the alloc-churn and
	// fabric phases only: successful TryAlloc calls counted by the
	// workers themselves, and the arena's batched-delta flush count. At
	// quiesce the arena's Allocs counter must equal AllocSuccesses
	// exactly.
	AllocSuccesses int64
	AllocFlushes   int64
	// ShardsPopulated / LiveBeforeQuiesce are set by the fabric phase
	// only: how many distinct fabric shards hosted regions, and how many
	// regions were alive, both sampled after the workers stopped but
	// before teardown — the evidence that the aggregation contract was
	// judged against a genuinely multi-shard population.
	ShardsPopulated   int
	LiveBeforeQuiesce int64
	// AdvisorObservations / AdvisorSites are set by phases that arm the
	// annotation advisor (rcgo.WithAdvisor): the advisor table's total
	// observation count and distinct call sites at quiesce. The phases
	// judge the table per flavour against the workers' own success
	// counts — the advisor's exact-at-quiesce contract under churn.
	AdvisorObservations int64
	AdvisorSites        int
	// Acquires / Releases / OwnerFlushes are set by the ownership and
	// contention phases: the arena's cumulative ownership counters at
	// quiesce. Owner.Delete counts as one release and one delete, so a
	// quiesced run must show Acquires == Releases + Revocations exactly
	// (Revocations is zero in the ownership phase, which runs no
	// watchdog escape hatch).
	Acquires     int64
	Releases     int64
	OwnerFlushes int64
	// Revocations / AcquireWaits / AcquireTimeouts / AcquireCancels are
	// set by the contention phase only: forced token revocations by the
	// OwnerWatchdog, and the parked/aborted AcquireContext tallies.
	Revocations     int64
	AcquireWaits    int64
	AcquireTimeouts int64
	AcquireCancels  int64
	// SlabRefills / SlabReleases / SlabPagesLeaked are set by the slab
	// phase only: chunks carved from the off-heap backing store, pages
	// returned at region reclaim, and the store's in-use page count at
	// quiesce. A quiesced run must show SlabRefills == SlabReleases and
	// SlabPagesLeaked == 0 — a shortfall is a page the reclaim path lost.
	SlabRefills     int64
	SlabReleases    int64
	SlabPagesLeaked int64
}

// advisorCounts is the workers' own tally of successful non-nil stores,
// per flavour — what the advisor's quiesced table must match exactly.
type advisorCounts struct {
	same, trad, parent, ref atomic.Int64
}

// judge compares the advisor's quiesced table against the workers'
// counts and returns the table's site and observation totals.
func (ac *advisorCounts) judge(a *rcgo.Arena) (sites int, observations int64, err error) {
	rep := a.AdvisorReport()
	if !rep.Enabled {
		return 0, 0, fmt.Errorf("advisor judge: advisor not armed")
	}
	var got [4]int64
	for _, s := range rep.Sites {
		got[s.Used] += s.Count
	}
	want := [4]int64{
		rcgo.FlavourSame:   ac.same.Load(),
		rcgo.FlavourTrad:   ac.trad.Load(),
		rcgo.FlavourParent: ac.parent.Load(),
		rcgo.FlavourRef:    ac.ref.Load(),
	}
	if got != want {
		return len(rep.Sites), rep.Observations, fmt.Errorf(
			"advisor drift: table counted same=%d trad=%d parent=%d ref=%d, workers observed same=%d trad=%d parent=%d ref=%d",
			got[rcgo.FlavourSame], got[rcgo.FlavourTrad], got[rcgo.FlavourParent], got[rcgo.FlavourRef],
			want[rcgo.FlavourSame], want[rcgo.FlavourTrad], want[rcgo.FlavourParent], want[rcgo.FlavourRef])
	}
	return len(rep.Sites), rep.Observations, nil
}

// tolerable reports whether err is an error class any op may see under
// concurrent churn with failpoints armed.
func tolerable(err error) bool {
	return err == nil ||
		errors.Is(err, rcgo.ErrRegionDeleted) ||
		errors.Is(err, rcgo.ErrRegionInUse) ||
		errors.Is(err, rcgo.ErrBadRef) ||
		errors.Is(err, rcgo.ErrRegionOwned) ||
		errors.Is(err, rcgo.ErrInjected)
}

// clearRef retries a nil-store until it lands: an injected failure
// leaves the slot holding its counted reference, and a worker that
// gives up on the clear would leak that reference into the quiesce.
func clearRef(holder *rcgo.Obj[node]) error {
	for {
		err := rcgo.SetRef(holder, &holder.Value.Other, nil)
		if err == nil || !errors.Is(err, rcgo.ErrInjected) {
			return err
		}
	}
}

// RunConc runs one concurrent phase and the quiesce that judges it:
// workers stop, failpoints disarm, the tree is torn down with
// DeleteWithRetry, lost drains are swept, and the audit must be clean
// with nothing left alive. The annotation advisor is armed for the
// whole phase, and judged like the counters: every successful non-nil
// store a worker performed must appear in the quiesced advisor table,
// exactly once.
func RunConc(cfg ConcConfig) (ConcResult, error) {
	var res ConcResult
	ring := rcgo.NewRingTracer(1 << 14)
	a := rcgo.NewArena(rcgo.WithMetrics(), rcgo.WithAdvisor(), rcgo.WithTracer(ring))
	var adv advisorCounts
	wd := rcgo.NewZombieWatchdog(a, 2*time.Millisecond)
	wd.Start(5 * time.Millisecond)
	defer wd.Stop()

	const mids = 4
	root := a.NewRegion()
	midRegions := make([]*rcgo.Region, mids)
	midObjs := make([]*rcgo.Obj[node], mids)
	for i := range midRegions {
		midRegions[i] = root.NewSubregion()
		midObjs[i] = rcgo.Alloc[node](midRegions[i])
	}
	rootObj := rcgo.Alloc[node](root)

	for name, r := range cfg.Rules {
		if err := failpoint.Enable(name, r); err != nil {
			return res, err
		}
	}
	defer failpoint.DisableAll()

	// Audit sampler: the auditor must be safe against a fully loaded
	// arena (its report is advisory here; only the quiesced audit
	// judges).
	samplerStop := make(chan struct{})
	var samplerWG sync.WaitGroup
	samplerWG.Add(1)
	go func() {
		defer samplerWG.Done()
		for {
			select {
			case <-samplerStop:
				return
			default:
				a.Audit()
				a.BlockedDeleters()
				time.Sleep(500 * time.Microsecond)
			}
		}
	}()

	var wg sync.WaitGroup
	errs := make(chan error, cfg.Workers*3)
	for w := 0; w < cfg.Workers; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			// Private holder region for counted cross-references into the
			// shared tree; torn down (with retry, failpoints may inject)
			// on the way out.
			holderRegion := a.NewRegion()
			holder, err := rcgo.TryAlloc[node](holderRegion)
			for err != nil {
				holder, err = rcgo.TryAlloc[node](holderRegion)
			}
			defer func() {
				if err := clearRef(holder); err != nil && !tolerable(err) {
					errs <- fmt.Errorf("worker cleanup clear: %w", err)
				}
				ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
				defer cancel()
				if err := holderRegion.DeleteWithRetry(ctx, rcgo.Backoff{Initial: 50 * time.Microsecond}); err != nil {
					errs <- fmt.Errorf("worker cleanup delete: %w", err)
				}
			}()
			for i := 0; i < cfg.Ops; i++ {
				mid := midRegions[rng.Intn(mids)]
				mo := midObjs[rng.Intn(mids)]
				var err error
				switch rng.Intn(6) {
				case 0: // alloc into the shared tree
					_, err = rcgo.TryAlloc[node](mid)
				case 1: // transient pin
					if unpin, perr := rcgo.TryPin(mo); perr == nil {
						unpin()
					} else {
						err = perr
					}
				case 2: // counted ref in, then out
					if serr := rcgo.SetRef(holder, &holder.Value.Other, mo); serr == nil {
						adv.ref.Add(1)
						err = clearRef(holder)
					} else {
						err = serr
					}
				case 3: // subregion churn with delete retry
					if sub, serr := mid.TryNewSubregion(); serr == nil {
						_, _ = rcgo.TryAlloc[node](sub)
						ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
						err = sub.DeleteWithRetry(ctx, rcgo.Backoff{Initial: 20 * time.Microsecond})
						cancel()
					} else {
						err = serr
					}
				case 4: // deferred-delete a subregion pinned across the deferral
					if sub, serr := mid.TryNewSubregion(); serr == nil {
						if o, aerr := rcgo.TryAlloc[node](sub); aerr == nil {
							if unpin, perr := rcgo.TryPin(o); perr == nil {
								sub.DeleteDeferred()
								unpin() // the last reference: the zombie drains (or the watchdog heals it)
							} else {
								sub.DeleteDeferred()
							}
						} else {
							sub.DeleteDeferred()
						}
					} else {
						err = serr
					}
				case 5: // annotated stores on the shared objects
					if o, aerr := rcgo.TryAlloc[node](mid); aerr == nil {
						err = rcgo.SetSame(o, &o.Value.Same, mo)
						if err == nil {
							adv.same.Add(1)
						}
						if err == nil || tolerable(err) {
							err = rcgo.SetParent(o, &o.Value.Up, rootObj)
							if err == nil {
								adv.parent.Add(1)
							}
						}
					} else {
						err = aerr
					}
				}
				if !tolerable(err) {
					errs <- fmt.Errorf("worker op: %w", err)
					return
				}
			}
		}(cfg.Seed + int64(w)*7919)
	}
	wg.Wait()
	close(samplerStop)
	samplerWG.Wait()
	res.Ops = cfg.Workers * cfg.Ops
	select {
	case err := <-errs:
		return res, err
	default:
	}

	// Quiesce: disarm, tear the shared tree down children-first with
	// bounded retry, heal any failpoint-lost drains, then judge.
	failpoint.DisableAll()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	for _, mid := range midRegions {
		if err := mid.DeleteWithRetry(ctx, rcgo.Backoff{}); err != nil {
			return res, fmt.Errorf("quiesce: delete mid region %d: %w", mid.ID(), err)
		}
	}
	if err := root.DeleteWithRetry(ctx, rcgo.Backoff{}); err != nil {
		return res, fmt.Errorf("quiesce: delete root region: %w", err)
	}
	res.SweptAtQuiesce = a.SweepZombies()
	wd.Stop()

	res.WatchdogFlagged = wd.Flagged()
	res.WatchdogHealed = wd.Healed()
	res.TraceStats = ring.TraceStats()
	res.Audit = a.Audit()
	if !res.Audit.OK {
		return res, fmt.Errorf("quiesced audit failed:\n%s", res.Audit)
	}
	if got := a.LiveObjects(); got != 0 {
		return res, fmt.Errorf("quiesce: LiveObjects = %d, want 0", got)
	}
	if got := a.LiveRegions(); got != 1 {
		return res, fmt.Errorf("quiesce: LiveRegions = %d, want 1 (traditional)", got)
	}
	if got := a.DeferredRegions(); got != 0 {
		return res, fmt.Errorf("quiesce: DeferredRegions = %d, want 0", got)
	}
	var err error
	if res.AdvisorSites, res.AdvisorObservations, err = adv.judge(a); err != nil {
		return res, err
	}
	return res, nil
}

// RunAllocChurn runs the allocation-churn phase: workers drive tight
// TryAlloc loops through the fast path's chunk pools and batched
// counter deltas (region_alloccache.go) while the regions being
// allocated into are concurrently deleted out from under them — private
// regions replaced mid-loop, and a small set of shared regions that any
// worker may swap out and deferred-delete while the others still hold
// the old pointer. Failpoints (AllocChurnRules) refuse chunk refills
// and stretch the delete windows, so reclaim's delta drain races the
// increment-then-validate admission loop constantly.
//
// The judge is exactness, not survival: every worker counts its own
// successful TryAlloc calls, and at quiesce the arena's cumulative
// Allocs counter must equal that total — any batched delta lost (or
// double-counted) across a racing delete shows up as drift there, as a
// nonzero LiveObjects, or as an audit violation. The annotation advisor
// rides along under the same contract: each fresh object gets a
// sameregion self-link, often into a region mid-deletion, and the
// quiesced advisor table must count exactly the links that succeeded.
func RunAllocChurn(cfg ConcConfig) (ConcResult, error) {
	var res ConcResult
	a := rcgo.NewArena(rcgo.WithMetrics(), rcgo.WithAdvisor())
	var adv advisorCounts

	const sharedN = 4
	var shared [sharedN]atomic.Pointer[rcgo.Region]
	for i := range shared {
		shared[i].Store(a.NewRegion())
	}

	for name, r := range cfg.Rules {
		if err := failpoint.Enable(name, r); err != nil {
			return res, err
		}
	}
	defer failpoint.DisableAll()

	var successes atomic.Int64
	var wg sync.WaitGroup
	errs := make(chan error, cfg.Workers)
	for w := 0; w < cfg.Workers; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			private := a.NewRegion()
			defer func() {
				private.DeleteDeferred()
			}()
			for i := 0; i < cfg.Ops; i++ {
				target := private
				if rng.Intn(3) == 0 {
					target = shared[rng.Intn(sharedN)].Load()
				}
				if o, err := rcgo.TryAlloc[node](target); err == nil {
					successes.Add(1)
					// Sameregion self-link on the fresh object, racing the
					// region's deletion: the advisor must count exactly the
					// links that land.
					if serr := rcgo.SetSame(o, &o.Value.Same, o); serr == nil {
						adv.same.Add(1)
					} else if !tolerable(serr) {
						errs <- fmt.Errorf("alloc churn store: %w", serr)
						return
					}
				} else if !tolerable(err) {
					errs <- fmt.Errorf("alloc churn: %w", err)
					return
				}
				switch {
				case rng.Intn(61) == 0:
					// Replace the private region mid-loop: its parked deltas
					// must drain through the deferred-delete flush.
					private.DeleteDeferred()
					private = a.NewRegion()
				case rng.Intn(127) == 0:
					// Swap a shared region while other workers still allocate
					// into the old one — the alloc-vs-reclaim race proper.
					old := shared[rng.Intn(sharedN)].Swap(a.NewRegion())
					old.DeleteDeferred()
				case rng.Intn(89) == 0:
					// Lock-free read that folds the pending deltas in.
					_ = target.Objects()
				case rng.Intn(149) == 0:
					_ = target.Stats() // flush point under mu
				}
			}
		}(cfg.Seed + int64(w)*104729)
	}
	wg.Wait()
	res.Ops = cfg.Workers * cfg.Ops
	select {
	case err := <-errs:
		return res, err
	default:
	}

	// Quiesce: disarm, delete what the swaps left behind, then judge.
	failpoint.DisableAll()
	for i := range shared {
		shared[i].Load().DeleteDeferred()
	}
	res.SweptAtQuiesce = a.SweepZombies()
	res.Audit = a.Audit()
	counters := a.Counters()
	res.AllocSuccesses = successes.Load()
	res.AllocFlushes = counters.AllocFlushes
	if !res.Audit.OK {
		return res, fmt.Errorf("quiesced audit failed:\n%s", res.Audit)
	}
	if counters.Allocs != res.AllocSuccesses {
		return res, fmt.Errorf("alloc drift: arena counted %d allocs, workers observed %d successes",
			counters.Allocs, res.AllocSuccesses)
	}
	if got := a.LiveObjects(); got != 0 {
		return res, fmt.Errorf("quiesce: LiveObjects = %d, want 0", got)
	}
	if got := a.LiveRegions(); got != 1 {
		return res, fmt.Errorf("quiesce: LiveRegions = %d, want 1 (traditional)", got)
	}
	if got := a.DeferredRegions(); got != 0 {
		return res, fmt.Errorf("quiesce: DeferredRegions = %d, want 0", got)
	}
	var jerr error
	if res.AdvisorSites, res.AdvisorObservations, jerr = adv.judge(a); jerr != nil {
		return res, jerr
	}
	return res, nil
}

// RunFabric runs the multi-shard fabric phase: a WithShards(8) arena
// carrying hundreds of concurrently live regions spread across the
// fabric, with every worker churning its own ring of regions —
// allocation + SetSame bursts, cross-shard subregion trees, and both
// delete flavours replacing ring slots mid-run — while failpoints
// (FabricRules) inject admission failures and stretch every window
// where a shard's slice of the arena totals is mid-update.
//
// The judge is the fabric aggregation contract (ISSUE 6): at quiesce
// the fabric-wide audit must be clean (each shard's counters checked
// against exactly the regions whose ids encode that shard), the
// cumulative Allocs counter must equal the workers' own success count,
// and nothing may be left alive — any region accounted on the wrong
// shard, or any delta flushed to the wrong shard's liveObjs, surfaces
// as an audit violation or counter drift here.
func RunFabric(cfg ConcConfig) (ConcResult, error) {
	var res ConcResult
	a := rcgo.NewArena(rcgo.WithShards(8), rcgo.WithMetrics())

	// Each worker owns a ring of regions it continually replaces; the
	// rings together keep workers*ringSize regions live for the whole
	// phase (256 at the default chaos sizing of 8 workers).
	const ringSize = 32
	rings := make([][]*rcgo.Region, cfg.Workers)
	for w := range rings {
		rings[w] = make([]*rcgo.Region, ringSize)
		for i := range rings[w] {
			rings[w][i] = a.NewRegion()
		}
	}

	for name, r := range cfg.Rules {
		if err := failpoint.Enable(name, r); err != nil {
			return res, err
		}
	}
	defer failpoint.DisableAll()

	var successes atomic.Int64
	var wg sync.WaitGroup
	errs := make(chan error, cfg.Workers)
	for w := 0; w < cfg.Workers; w++ {
		wg.Add(1)
		go func(ring []*rcgo.Region, seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < cfg.Ops; i++ {
				r := ring[rng.Intn(ringSize)]
				var err error
				switch rng.Intn(5) {
				case 0, 1: // alloc + same-region annotated store
					if o, aerr := rcgo.TryAlloc[node](r); aerr == nil {
						successes.Add(1)
						err = rcgo.SetSame(o, &o.Value.Same, o)
					} else {
						err = aerr
					}
				case 2: // cross-shard subregion churn under the live parent
					if sub, serr := r.TryNewSubregion(); serr == nil {
						if _, aerr := rcgo.TryAlloc[node](sub); aerr == nil {
							successes.Add(1)
						}
						ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
						err = sub.DeleteWithRetry(ctx, rcgo.Backoff{Initial: 20 * time.Microsecond})
						cancel()
					} else {
						err = serr
					}
				case 3: // replace a ring slot through the explicit delete path
					j := rng.Intn(ringSize)
					old := ring[j]
					ring[j] = a.NewRegion()
					ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
					err = old.DeleteWithRetry(ctx, rcgo.Backoff{Initial: 20 * time.Microsecond})
					cancel()
				case 4: // replace a ring slot through the zombie path, pinned
					j := rng.Intn(ringSize)
					old := ring[j]
					ring[j] = a.NewRegion()
					if o, aerr := rcgo.TryAlloc[node](old); aerr == nil {
						successes.Add(1)
						if unpin, perr := rcgo.TryPin(o); perr == nil {
							old.DeleteDeferred()
							unpin() // last reference: the zombie drains
						} else {
							old.DeleteDeferred()
						}
					} else {
						old.DeleteDeferred()
					}
				}
				if !tolerable(err) {
					errs <- fmt.Errorf("fabric op: %w", err)
					return
				}
			}
		}(rings[w], cfg.Seed+int64(w)*31337)
	}
	wg.Wait()
	res.Ops = cfg.Workers * cfg.Ops
	select {
	case err := <-errs:
		return res, err
	default:
	}

	// Sample the fabric population while the rings are still live: the
	// audit below must have judged a genuinely multi-shard arena.
	res.LiveBeforeQuiesce = a.LiveRegions()
	populated := map[int]bool{}
	a.EachRegion(func(r *rcgo.Region) { populated[a.RegionShard(r.ID())] = true })
	res.ShardsPopulated = len(populated)

	// Quiesce: disarm, tear the rings down, heal lost drains, judge.
	failpoint.DisableAll()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	for _, ring := range rings {
		for _, r := range ring {
			if err := r.DeleteWithRetry(ctx, rcgo.Backoff{}); err != nil {
				return res, fmt.Errorf("quiesce: delete ring region %d: %w", r.ID(), err)
			}
		}
	}
	res.SweptAtQuiesce = a.SweepZombies()
	res.Audit = a.Audit()
	counters := a.Counters()
	res.AllocSuccesses = successes.Load()
	res.AllocFlushes = counters.AllocFlushes
	if !res.Audit.OK {
		return res, fmt.Errorf("quiesced fabric audit failed:\n%s", res.Audit)
	}
	if counters.Allocs != res.AllocSuccesses {
		return res, fmt.Errorf("fabric alloc drift: arena counted %d allocs, workers observed %d successes",
			counters.Allocs, res.AllocSuccesses)
	}
	if got := a.LiveObjects(); got != 0 {
		return res, fmt.Errorf("quiesce: LiveObjects = %d, want 0", got)
	}
	if got := a.LiveRegions(); got != 1 {
		return res, fmt.Errorf("quiesce: LiveRegions = %d, want 1 (traditional)", got)
	}
	if got := a.DeferredRegions(); got != 0 {
		return res, fmt.Errorf("quiesce: DeferredRegions = %d, want 0", got)
	}
	return res, nil
}

// RunOwnership runs the ownership hand-off phase: workers form a ring,
// and every iteration each worker builds a region through the owned
// fast path — TryAcquire, TryAllocOwned bursts, SetSameOwned links,
// SetRefOwned counted references into a shared hub region — then hands
// the Owner token to its ring neighbour over a channel (the memory-
// model edge that publishes the token's plain owner-local state), and
// consumes the token it receives: more owned allocations, then either
// Owner.Delete or a Release followed by a shared Delete. The
// rcgo/own.release failpoint (OwnershipRules) injects transient
// failures into the flush window, so workers constantly retry
// release/delete on still-valid tokens; while they hold a token they
// also probe the shared paths — second TryAcquire, shared TryAlloc,
// TryPin, Delete, SetRef with an owned holder — all of which must fail
// fast with exactly ErrRegionOwned.
//
// The judge is the flush-at-release exactness contract: every worker
// counts its own successful owned allocations, and at quiesce the
// arena's cumulative Allocs counter must equal that total — any owner-
// local delta lost (or double-counted) across an injected release
// retry or a token hand-off shows up as drift there, as a nonzero
// LiveObjects, or as an audit violation. Ownership itself must balance:
// Acquires == Releases and OwnedRegions == 0 once every token is
// consumed.
func RunOwnership(cfg ConcConfig) (ConcResult, error) {
	var res ConcResult
	ring := rcgo.NewRingTracer(1 << 14)
	a := rcgo.NewArena(rcgo.WithMetrics(), rcgo.WithTracer(ring))

	var successes atomic.Int64
	hub := a.NewRegion()
	hubObj := rcgo.Alloc[node](hub)
	successes.Add(1)

	for name, r := range cfg.Rules {
		if err := failpoint.Enable(name, r); err != nil {
			return res, err
		}
	}
	defer failpoint.DisableAll()

	// Tokens travel around the ring: worker w sends to chans[(w+1)%W]
	// and receives from chans[w]. Every worker sends and receives
	// exactly cfg.Ops tokens (nil on a failed build), so the ring
	// drains completely — no token is in flight after wg.Wait.
	chans := make([]chan *rcgo.Owner, cfg.Workers)
	for i := range chans {
		chans[i] = make(chan *rcgo.Owner, 4)
	}
	errs := make(chan error, cfg.Workers*2)
	// On an unexpected error the worker must keep the ring protocol
	// alive (a returning worker would deadlock its neighbour's receive),
	// so it records the error and carries on; the first one fails the
	// phase after the workers drain.
	fail := func(err error) {
		select {
		case errs <- err:
		default:
		}
	}

	var wg sync.WaitGroup
	for w := 0; w < cfg.Workers; w++ {
		wg.Add(1)
		go func(w int, seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			next := chans[(w+1)%cfg.Workers]
			for i := 0; i < cfg.Ops; i++ {
				// Build side: fresh region, acquired immediately.
				r := a.NewRegion()
				own, err := r.TryAcquire()
				if err != nil {
					fail(fmt.Errorf("ownership acquire: %w", err))
					_ = r.Delete()
					next <- nil
					continue
				}
				var obj *rcgo.Obj[node]
				for n := 1 + rng.Intn(3); n > 0; n-- {
					o, aerr := rcgo.TryAllocOwned[node](own)
					if aerr == nil {
						successes.Add(1)
						obj = o
					} else if !errors.Is(aerr, rcgo.ErrInjected) {
						fail(fmt.Errorf("owned alloc: %w", aerr))
					}
				}
				if obj != nil {
					if serr := rcgo.SetSameOwned(own, obj, &obj.Value.Same, obj); serr != nil {
						fail(fmt.Errorf("owned sameregion store: %w", serr))
					}
					if serr := rcgo.SetRefOwned(own, obj, &obj.Value.Other, hubObj); serr != nil && !tolerable(serr) {
						fail(fmt.Errorf("owned counted store: %w", serr))
					}
					// The owned annotation check still fires: a sameregion
					// store of an external target is a check failure.
					if rng.Intn(4) == 0 {
						if serr := rcgo.SetSameOwned(own, obj, &obj.Value.Same, hubObj); !errors.Is(serr, rcgo.ErrBadRef) {
							fail(fmt.Errorf("owned bad sameregion store: got %v, want ErrBadRef", serr))
						}
					}
				}
				// Shared-path probes while the token is held: every one
				// must fail fast with exactly ErrRegionOwned.
				if rng.Intn(3) == 0 {
					if _, perr := r.TryAcquire(); !errors.Is(perr, rcgo.ErrRegionOwned) {
						fail(fmt.Errorf("second acquire: got %v, want ErrRegionOwned", perr))
					}
					// The armed alloc.refill site may inject before the
					// admission loop reads the owned state; both rejections
					// prove the shared path cannot allocate here.
					if _, perr := rcgo.TryAlloc[node](r); !errors.Is(perr, rcgo.ErrRegionOwned) &&
						!errors.Is(perr, rcgo.ErrInjected) {
						fail(fmt.Errorf("shared alloc on owned region: got %v, want ErrRegionOwned", perr))
					}
					if perr := r.Delete(); !errors.Is(perr, rcgo.ErrRegionOwned) {
						fail(fmt.Errorf("shared delete of owned region: got %v, want ErrRegionOwned", perr))
					}
					if obj != nil {
						if _, perr := rcgo.TryPin(obj); !errors.Is(perr, rcgo.ErrRegionOwned) {
							fail(fmt.Errorf("pin into owned region: got %v, want ErrRegionOwned", perr))
						}
						if perr := rcgo.SetRef(obj, &obj.Value.Other, hubObj); !errors.Is(perr, rcgo.ErrRegionOwned) {
							fail(fmt.Errorf("shared store with owned holder: got %v, want ErrRegionOwned", perr))
						}
					}
				}
				// Hand-off: the channel send publishes the token's plain
				// owner-local state to the neighbour.
				next <- own

				// Consume side: the token received from the other
				// neighbour, with more owned work before the delete.
				tok := <-chans[w]
				if tok == nil {
					continue
				}
				if _, aerr := rcgo.TryAllocOwned[node](tok); aerr == nil {
					successes.Add(1)
				} else if !errors.Is(aerr, rcgo.ErrInjected) {
					fail(fmt.Errorf("owned alloc after hand-off: %w", aerr))
				}
				if rng.Intn(3) == 0 {
					// Release back to the shared state (retrying injected
					// flush failures on the still-valid token), then the
					// ordinary shared delete.
					tr := tok.Region()
					for {
						rerr := tok.Release()
						if rerr == nil {
							break
						}
						if !errors.Is(rerr, rcgo.ErrInjected) {
							fail(fmt.Errorf("release: %w", rerr))
							break
						}
					}
					if derr := tr.Delete(); derr != nil && !tolerable(derr) {
						fail(fmt.Errorf("delete after release: %w", derr))
					}
				} else {
					// Owner.Delete consumes the token in one step; injected
					// flush failures leave it valid for the retry.
					for {
						derr := tok.Delete()
						if derr == nil {
							break
						}
						if !errors.Is(derr, rcgo.ErrInjected) {
							fail(fmt.Errorf("owned delete: %w", derr))
							break
						}
					}
				}
			}
		}(w, cfg.Seed+int64(w)*6151)
	}
	wg.Wait()
	res.Ops = cfg.Workers * cfg.Ops
	select {
	case err := <-errs:
		return res, err
	default:
	}

	// Quiesce: disarm, delete the hub (its inbound counted references
	// all died with their token regions), then judge.
	failpoint.DisableAll()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := hub.DeleteWithRetry(ctx, rcgo.Backoff{}); err != nil {
		return res, fmt.Errorf("quiesce: delete hub region: %w", err)
	}
	res.SweptAtQuiesce = a.SweepZombies()
	res.TraceStats = ring.TraceStats()
	res.Audit = a.Audit()
	counters := a.Counters()
	res.AllocSuccesses = successes.Load()
	res.Acquires = counters.Acquires
	res.Releases = counters.Releases
	res.OwnerFlushes = counters.OwnerFlushes
	if !res.Audit.OK {
		return res, fmt.Errorf("quiesced ownership audit failed:\n%s", res.Audit)
	}
	if counters.Allocs != res.AllocSuccesses {
		return res, fmt.Errorf("ownership alloc drift: arena counted %d allocs, workers observed %d successes",
			counters.Allocs, res.AllocSuccesses)
	}
	if res.Acquires == 0 || res.Acquires != res.Releases {
		return res, fmt.Errorf("ownership imbalance: %d acquires vs %d releases", res.Acquires, res.Releases)
	}
	if got := a.OwnedRegions(); got != 0 {
		return res, fmt.Errorf("quiesce: OwnedRegions = %d, want 0", got)
	}
	if got := a.LiveObjects(); got != 0 {
		return res, fmt.Errorf("quiesce: LiveObjects = %d, want 0", got)
	}
	if got := a.LiveRegions(); got != 1 {
		return res, fmt.Errorf("quiesce: LiveRegions = %d, want 1 (traditional)", got)
	}
	if got := a.DeferredRegions(); got != 0 {
		return res, fmt.Errorf("quiesce: DeferredRegions = %d, want 0", got)
	}
	return res, nil
}

// RunContention runs the contention phase: a token storm against one
// hub region. Every worker loops AcquireContext on the hub under a
// random short deadline (or an asynchronously-cancelled context), so
// the FIFO wait queue stays deep; the rcgo/own.handoff failpoint
// refuses a quarter of all hand-off attempts (requeueing the refused
// waiter), rcgo/own.release injects transient release failures, and a
// small fraction of successful acquirers ABANDON their token — never
// release it — simulating a crashed goroutine, so the OwnerWatchdog's
// forced-release escape hatch must revoke the stale token to unwedge
// the queue.
//
// The judges are the acquisition-accounting contract: every minted
// token is eventually paired with exactly one release or one
// revocation (Acquires == Releases + Revocations), no waiter leaks (the
// arena-wide parked-waiter gauge is zero at quiesce and the audit's
// queue-integrity rules are clean), and the flush-at-release exactness
// story extends to revocation — workers count an owned allocation only
// once the token that made it released successfully (a revoked token's
// unflushed deltas are discarded by contract), and the arena's Allocs
// counter must match that committed tally exactly.
func RunContention(cfg ConcConfig) (ConcResult, error) {
	var res ConcResult
	ring := rcgo.NewRingTracer(1 << 14)
	a := rcgo.NewArena(rcgo.WithMetrics(), rcgo.WithTracer(ring))
	wd := rcgo.NewOwnerWatchdog(a, 2*time.Millisecond)
	wd.ForceReleaseAfter = 5 * time.Millisecond
	wd.Start(time.Millisecond)
	defer wd.Stop()

	hub := a.NewRegion()

	for name, r := range cfg.Rules {
		if err := failpoint.Enable(name, r); err != nil {
			return res, err
		}
	}
	defer failpoint.DisableAll()

	// successes counts owned allocations committed by a successful
	// Release; a token that is abandoned or revoked drops its tally,
	// matching the runtime's discard-on-revoke contract.
	var successes atomic.Int64
	errs := make(chan error, cfg.Workers*2)
	fail := func(err error) {
		select {
		case errs <- err:
		default:
		}
	}

	var wg sync.WaitGroup
	for w := 0; w < cfg.Workers; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < cfg.Ops; i++ {
				// A third of the acquirers wait patiently (generous
				// deadline), the rest race tight deadlines or an async
				// cancel against the hand-off.
				var ctx context.Context
				var cancel context.CancelFunc
				switch rng.Intn(3) {
				case 0:
					ctx, cancel = context.WithTimeout(context.Background(), time.Second)
				case 1:
					ctx, cancel = context.WithTimeout(context.Background(),
						time.Duration(50+rng.Intn(2000))*time.Microsecond)
				default:
					// Async cancel racing the hand-off; firing after the
					// acquire completed (or after the loop's own cancel)
					// is harmless.
					ctx, cancel = context.WithCancel(context.Background())
					time.AfterFunc(time.Duration(50+rng.Intn(2000))*time.Microsecond, cancel)
				}
				own, err := hub.AcquireContext(ctx)
				if err != nil {
					cancel()
					// The only legitimate failure here is a context abort,
					// and its unwrap chain must expose both the context
					// error and ErrRegionOwned.
					if !errors.Is(err, rcgo.ErrRegionOwned) ||
						(!errors.Is(err, context.DeadlineExceeded) && !errors.Is(err, context.Canceled)) {
						fail(fmt.Errorf("contended acquire: error %v must wrap the context error and ErrRegionOwned", err))
					}
					continue
				}
				pending := int64(0)
				var obj *rcgo.Obj[node]
				for n := 1 + rng.Intn(3); n > 0; n-- {
					o, aerr := rcgo.TryAllocOwned[node](own)
					switch {
					case aerr == nil:
						pending++
						obj = o
					case errors.Is(aerr, rcgo.ErrInjected):
					case errors.Is(aerr, rcgo.ErrOwnerRevoked):
						// The watchdog tore the token away mid-burst (the
						// worker was descheduled past the force threshold);
						// everything this token did is discarded.
					default:
						fail(fmt.Errorf("owned alloc under contention: %w", aerr))
					}
				}
				if obj != nil {
					if serr := rcgo.SetSameOwned(own, obj, &obj.Value.Same, obj); serr != nil &&
						!errors.Is(serr, rcgo.ErrOwnerRevoked) {
						fail(fmt.Errorf("owned sameregion store under contention: %w", serr))
					}
				}
				if rng.Intn(40) == 0 {
					// Abandon: walk away without releasing, exactly what a
					// crashed holder does. The watchdog must revoke this
					// token; its tally is forfeit.
					cancel()
					continue
				}
				for {
					rerr := own.Release()
					if rerr == nil {
						successes.Add(pending)
						break
					}
					if errors.Is(rerr, rcgo.ErrInjected) {
						continue
					}
					if errors.Is(rerr, rcgo.ErrOwnerRevoked) {
						break
					}
					fail(fmt.Errorf("release under contention: %w", rerr))
					break
				}
				cancel()
			}
		}(cfg.Seed + int64(w)*7919)
	}
	wg.Wait()
	res.Ops = cfg.Workers * cfg.Ops
	select {
	case err := <-errs:
		return res, err
	default:
	}

	// Quiesce: disarm, then wait out any still-abandoned token — the
	// watchdog has to revoke it before the hub can be deleted.
	failpoint.DisableAll()
	deadline := time.Now().Add(10 * time.Second)
	for a.OwnedRegions() != 0 {
		if time.Now().After(deadline) {
			return res, fmt.Errorf("quiesce: abandoned token never revoked, OwnedRegions = %d", a.OwnedRegions())
		}
		wd.Check()
		time.Sleep(time.Millisecond)
	}
	wd.Stop()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := hub.DeleteWithRetry(ctx, rcgo.Backoff{}); err != nil {
		return res, fmt.Errorf("quiesce: delete hub region: %w", err)
	}
	res.SweptAtQuiesce = a.SweepZombies()
	res.TraceStats = ring.TraceStats()
	res.Audit = a.Audit()
	res.WatchdogFlagged = wd.Flagged()
	counters := a.Counters()
	res.AllocSuccesses = successes.Load()
	res.Acquires = counters.Acquires
	res.Releases = counters.Releases
	res.OwnerFlushes = counters.OwnerFlushes
	res.Revocations = counters.OwnerRevocations
	res.AcquireWaits = counters.AcquireWaits
	res.AcquireTimeouts = counters.AcquireTimeouts
	res.AcquireCancels = counters.AcquireCancels
	if !res.Audit.OK {
		return res, fmt.Errorf("quiesced contention audit failed:\n%s", res.Audit)
	}
	if res.Acquires == 0 || res.Acquires != res.Releases+res.Revocations {
		return res, fmt.Errorf("acquisition imbalance: %d acquires vs %d releases + %d revocations",
			res.Acquires, res.Releases, res.Revocations)
	}
	if res.AcquireWaits == 0 {
		return res, fmt.Errorf("contention phase saw no contention: AcquireWaits = 0")
	}
	if got := a.AcquireWaiters(); got != 0 {
		return res, fmt.Errorf("quiesce: %d waiters leaked on the shard gauges", got)
	}
	if got := a.Owners().TotalWaiters; got != 0 {
		return res, fmt.Errorf("quiesce: owners report still sees %d waiters", got)
	}
	if counters.Allocs != res.AllocSuccesses {
		return res, fmt.Errorf("contention alloc drift: arena counted %d allocs, workers committed %d",
			counters.Allocs, res.AllocSuccesses)
	}
	if got := a.OwnedRegions(); got != 0 {
		return res, fmt.Errorf("quiesce: OwnedRegions = %d, want 0", got)
	}
	if got := a.LiveObjects(); got != 0 {
		return res, fmt.Errorf("quiesce: LiveObjects = %d, want 0", got)
	}
	if got := a.LiveRegions(); got != 1 {
		return res, fmt.Errorf("quiesce: LiveRegions = %d, want 1 (traditional)", got)
	}
	if got := a.DeferredRegions(); got != 0 {
		return res, fmt.Errorf("quiesce: DeferredRegions = %d, want 0", got)
	}
	return res, nil
}

// slabRec is the slab phase's payload: pointer-free, so the admission
// gate (rcgo.chunkSlabEligible) routes its chunks to the off-heap
// backing store. The fields carry a checksum pattern the workers verify
// while they legitimately hold the object — any cross-region page
// recycling bug shows up as a corrupted payload here before the
// accounting judges even run.
type slabRec struct {
	Seq, Tag int64
	Pad      [4]int64
}

// RunSlab runs the off-heap slab phase: a rcgo.WithOffHeapSlabs arena
// whose workers churn regions full of pointer-free payloads (slab-
// backed chunks) interleaved with pointer-carrying node payloads
// (GC-heap chunks — the admission gate must keep the two apart), while
// the rcgo/slab.map failpoint (SlabRules) injects map failures into the
// refill edge and yields stretch the delete windows so reclaim's
// immediate page return races the carve-and-track window. Workers write
// and verify payload checksums only while they own the region or hold a
// pin — the pointer-safety contract's sanctioned shapes (DESIGN.md
// §16); shared regions are swapped out and deferred-deleted under the
// other workers' feet, so pinned verification races page recycling
// constantly.
//
// The judges are the page-accounting contract at quiesce: zero in-use
// pages left in the store (every page carved for a region came back at
// its reclaim), SlabRefills == SlabReleases exactly, a clean audit
// (including the slab-pages-total and slab-store-accounting rules), the
// usual alloc-exactness check, and nothing left alive. Closing the
// store must be idempotent.
func RunSlab(cfg ConcConfig) (ConcResult, error) {
	var res ConcResult
	ring := rcgo.NewRingTracer(1 << 14)
	a := rcgo.NewArena(rcgo.WithOffHeapSlabs(), rcgo.WithMetrics(), rcgo.WithTracer(ring))
	defer a.CloseBackingStore()

	const sharedN = 4
	var shared [sharedN]atomic.Pointer[rcgo.Region]
	for i := range shared {
		shared[i].Store(a.NewRegion())
	}

	for name, r := range cfg.Rules {
		if err := failpoint.Enable(name, r); err != nil {
			return res, err
		}
	}
	defer failpoint.DisableAll()

	var successes atomic.Int64
	var wg sync.WaitGroup
	errs := make(chan error, cfg.Workers)
	for w := 0; w < cfg.Workers; w++ {
		wg.Add(1)
		go func(wid int, seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < cfg.Ops; i++ {
				switch rng.Intn(4) {
				case 0, 1:
					// Private region burst: this worker is the region's only
					// user, so plain Value writes are sanctioned until its own
					// delete below. The burst spans chunk boundaries, and the
					// checksum verifies the slab pages were not recycled early.
					r := a.NewRegion()
					burst := 8 + rng.Intn(24)
					objs := make([]*rcgo.Obj[slabRec], 0, burst)
					for n := 0; n < burst; n++ {
						o, err := rcgo.TryAlloc[slabRec](r)
						if err != nil {
							if !tolerable(err) {
								errs <- fmt.Errorf("slab private alloc: %w", err)
								return
							}
							continue
						}
						successes.Add(1)
						o.Value.Seq, o.Value.Tag = int64(len(objs)), int64(wid)
						objs = append(objs, o)
					}
					for n, o := range objs {
						if o.Value.Seq != int64(n) || o.Value.Tag != int64(wid) {
							errs <- fmt.Errorf("slab payload corrupted: seq=%d tag=%d, want seq=%d tag=%d",
								o.Value.Seq, o.Value.Tag, n, wid)
							return
						}
					}
					if rng.Intn(2) == 0 {
						ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
						err := r.DeleteWithRetry(ctx, rcgo.Backoff{Initial: 20 * time.Microsecond})
						cancel()
						if !tolerable(err) {
							errs <- fmt.Errorf("slab private delete: %w", err)
							return
						}
					} else {
						r.DeleteDeferred()
					}
				case 2:
					// Shared-region alloc with pinned verification: the pin is
					// the sanctioned handle shape — it holds the region past
					// any concurrent swap-and-delete, so the payload write
					// cannot land in a recycled page.
					target := shared[rng.Intn(sharedN)].Load()
					o, err := rcgo.TryAlloc[slabRec](target)
					if err != nil {
						if !tolerable(err) {
							errs <- fmt.Errorf("slab shared alloc: %w", err)
							return
						}
						break
					}
					successes.Add(1)
					if unpin, perr := rcgo.TryPin(o); perr == nil {
						o.Value.Seq, o.Value.Tag = int64(i), int64(wid)
						if o.Value.Tag != int64(wid) {
							errs <- fmt.Errorf("slab pinned payload corrupted: tag=%d want %d", o.Value.Tag, wid)
							unpin()
							return
						}
						unpin()
					} else if !tolerable(perr) {
						errs <- fmt.Errorf("slab pin: %w", perr)
						return
					}
				case 3:
					// Pointer-carrying payloads ride the ordinary GC-heap
					// chunk path through the same regions: the admission gate
					// must keep them off the slab pages without disturbing the
					// accounting.
					target := shared[rng.Intn(sharedN)].Load()
					if _, err := rcgo.TryAlloc[node](target); err == nil {
						successes.Add(1)
					} else if !tolerable(err) {
						errs <- fmt.Errorf("slab heap alloc: %w", err)
						return
					}
				}
				if rng.Intn(97) == 0 {
					// Swap a shared region while other workers still allocate
					// into the old one — reclaim's page return racing carves.
					old := shared[rng.Intn(sharedN)].Swap(a.NewRegion())
					old.DeleteDeferred()
				}
			}
		}(w, cfg.Seed+int64(w)*12289)
	}
	wg.Wait()
	res.Ops = cfg.Workers * cfg.Ops
	select {
	case err := <-errs:
		return res, err
	default:
	}

	// Quiesce: disarm, delete what the swaps left behind, then judge the
	// page accounting.
	failpoint.DisableAll()
	for i := range shared {
		shared[i].Load().DeleteDeferred()
	}
	res.SweptAtQuiesce = a.SweepZombies()
	res.TraceStats = ring.TraceStats()
	res.Audit = a.Audit()
	counters := a.Counters()
	res.AllocSuccesses = successes.Load()
	res.AllocFlushes = counters.AllocFlushes
	res.SlabRefills = counters.SlabRefills
	res.SlabReleases = counters.SlabReleases
	ss, attached := a.SlabStats()
	if !attached {
		return res, fmt.Errorf("slab phase: no backing store attached")
	}
	res.SlabPagesLeaked = ss.InUsePages
	if !res.Audit.OK {
		return res, fmt.Errorf("quiesced slab audit failed:\n%s", res.Audit)
	}
	if res.SlabPagesLeaked != 0 {
		return res, fmt.Errorf("slab pages leaked at quiesce: %d in use (refills=%d releases=%d)",
			res.SlabPagesLeaked, res.SlabRefills, res.SlabReleases)
	}
	if res.SlabRefills == 0 {
		return res, fmt.Errorf("slab phase inert: no chunk was ever slab-backed")
	}
	if res.SlabRefills != res.SlabReleases {
		return res, fmt.Errorf("slab page drift: %d refills vs %d releases", res.SlabRefills, res.SlabReleases)
	}
	if counters.Allocs != res.AllocSuccesses {
		return res, fmt.Errorf("slab alloc drift: arena counted %d allocs, workers observed %d successes",
			counters.Allocs, res.AllocSuccesses)
	}
	if got := a.LiveObjects(); got != 0 {
		return res, fmt.Errorf("quiesce: LiveObjects = %d, want 0", got)
	}
	if got := a.LiveRegions(); got != 1 {
		return res, fmt.Errorf("quiesce: LiveRegions = %d, want 1 (traditional)", got)
	}
	if got := a.DeferredRegions(); got != 0 {
		return res, fmt.Errorf("quiesce: DeferredRegions = %d, want 0", got)
	}
	if err := a.CloseBackingStore(); err != nil {
		return res, fmt.Errorf("quiesce: close backing store: %w", err)
	}
	if err := a.CloseBackingStore(); err != nil {
		return res, fmt.Errorf("quiesce: second close not idempotent: %w", err)
	}
	return res, nil
}

// Config sizes a full chaos run: one sequential model-checked phase,
// then a perturbation-mix and an error-mix concurrent phase, then the
// allocation-churn phase, then the multi-shard fabric phase, then the
// ownership hand-off phase, then the contention phase, then the
// off-heap slab phase.
type Config struct {
	Seed    int64
	SeqOps  int
	Workers int
	// ConcOps is the per-worker op count of each concurrent phase.
	ConcOps int
	// Log receives progress lines (nil discards them).
	Log func(format string, args ...any)
}

// Report is the outcome of a full chaos run.
type Report struct {
	SeqOps      int
	SeqOutcomes map[string]int
	Perturb     ConcResult
	Errors      ConcResult
	AllocChurn  ConcResult
	Fabric      ConcResult
	Ownership   ConcResult
	Contention  ConcResult
	Slab        ConcResult
	// Coverage is the post-run failpoint counter snapshot; every
	// instrumented site must show Fires > 0 for the run to count.
	Coverage []failpoint.Stats
}

// Uncovered returns the names of instrumented sites that never fired.
func (r *Report) Uncovered() []string {
	var out []string
	for _, st := range r.Coverage {
		if st.Fires == 0 {
			out = append(out, st.Name)
		}
	}
	return out
}

// Run executes a full chaos run. A nil error means: zero reference-
// model divergences, zero audit violations at every quiesce point, and
// failpoints fired on every instrumented site.
func Run(cfg Config) (*Report, error) {
	logf := cfg.Log
	if logf == nil {
		logf = func(string, ...any) {}
	}
	rep := &Report{SeqOps: cfg.SeqOps}

	logf("phase 1: sequential, %d ops against the reference model, error failpoints armed", cfg.SeqOps)
	h := NewHarness()
	ops := RandomOps(cfg.Seed, cfg.SeqOps)
	if err := RunSeq(h, ops, SeqRules(uint64(cfg.Seed)), 100); err != nil {
		return rep, fmt.Errorf("sequential phase: %w", err)
	}
	rep.SeqOutcomes = h.Outcomes()
	logf("phase 1: ok, outcomes %v", rep.SeqOutcomes)

	logf("phase 2: concurrent, %d workers x %d ops, perturbation failpoints (yield/delay)", cfg.Workers, cfg.ConcOps)
	res, err := RunConc(ConcConfig{
		Seed: cfg.Seed + 1, Workers: cfg.Workers, Ops: cfg.ConcOps,
		Rules: ConcRules(uint64(cfg.Seed)+1, true),
	})
	rep.Perturb = res
	if err != nil {
		return rep, fmt.Errorf("concurrent perturbation phase: %w", err)
	}
	logf("phase 2: ok, %d ops, watchdog flagged=%d healed=%d, swept=%d, trace total=%d dropped=%d, advisor %d stores over %d sites, zero drift",
		res.Ops, res.WatchdogFlagged, res.WatchdogHealed, res.SweptAtQuiesce,
		res.TraceStats.Total, res.TraceStats.Dropped, res.AdvisorObservations, res.AdvisorSites)

	logf("phase 3: concurrent, %d workers x %d ops, error failpoints on every site", cfg.Workers, cfg.ConcOps)
	res, err = RunConc(ConcConfig{
		Seed: cfg.Seed + 2, Workers: cfg.Workers, Ops: cfg.ConcOps,
		Rules: ConcRules(uint64(cfg.Seed)+2, false),
	})
	rep.Errors = res
	if err != nil {
		return rep, fmt.Errorf("concurrent error-injection phase: %w", err)
	}
	logf("phase 3: ok, %d ops, watchdog flagged=%d healed=%d, swept=%d, trace total=%d dropped=%d, advisor %d stores over %d sites, zero drift",
		res.Ops, res.WatchdogFlagged, res.WatchdogHealed, res.SweptAtQuiesce,
		res.TraceStats.Total, res.TraceStats.Dropped, res.AdvisorObservations, res.AdvisorSites)

	logf("phase 4: alloc churn, %d workers x %d ops, refused refills + stretched delete windows", cfg.Workers, cfg.ConcOps)
	res, err = RunAllocChurn(ConcConfig{
		Seed: cfg.Seed + 3, Workers: cfg.Workers, Ops: cfg.ConcOps,
		Rules: AllocChurnRules(uint64(cfg.Seed) + 3),
	})
	rep.AllocChurn = res
	if err != nil {
		return rep, fmt.Errorf("alloc-churn phase: %w", err)
	}
	logf("phase 4: ok, %d ops, %d allocs over %d delta flushes, advisor %d stores over %d sites, zero drift",
		res.Ops, res.AllocSuccesses, res.AllocFlushes, res.AdvisorObservations, res.AdvisorSites)

	logf("phase 5: multi-shard fabric, %d workers x %d ops across 8 shards", cfg.Workers, cfg.ConcOps)
	res, err = RunFabric(ConcConfig{
		Seed: cfg.Seed + 4, Workers: cfg.Workers, Ops: cfg.ConcOps,
		Rules: FabricRules(uint64(cfg.Seed) + 4),
	})
	rep.Fabric = res
	if err != nil {
		return rep, fmt.Errorf("fabric phase: %w", err)
	}
	logf("phase 5: ok, %d ops, %d regions live on %d shards at quiesce entry, %d allocs, zero drift",
		res.Ops, res.LiveBeforeQuiesce, res.ShardsPopulated, res.AllocSuccesses)

	logf("phase 6: ownership hand-off, %d workers x %d ops around the token ring, injected release failures", cfg.Workers, cfg.ConcOps)
	res, err = RunOwnership(ConcConfig{
		Seed: cfg.Seed + 5, Workers: cfg.Workers, Ops: cfg.ConcOps,
		Rules: OwnershipRules(uint64(cfg.Seed) + 5),
	})
	rep.Ownership = res
	if err != nil {
		return rep, fmt.Errorf("ownership phase: %w", err)
	}
	logf("phase 6: ok, %d ops, %d allocs through the owned path, acquires=%d releases=%d flushes=%d, zero drift",
		res.Ops, res.AllocSuccesses, res.Acquires, res.Releases, res.OwnerFlushes)

	logf("phase 7: contention, %d workers x %d ops storming one hub, refused hand-offs + abandoned tokens", cfg.Workers, cfg.ConcOps)
	res, err = RunContention(ConcConfig{
		Seed: cfg.Seed + 6, Workers: cfg.Workers, Ops: cfg.ConcOps,
		Rules: ContentionRules(uint64(cfg.Seed) + 6),
	})
	rep.Contention = res
	if err != nil {
		return rep, fmt.Errorf("contention phase: %w", err)
	}
	logf("phase 7: ok, %d ops, %d waits (%d timeouts, %d cancels), acquires=%d releases=%d revocations=%d, zero leaked waiters",
		res.Ops, res.AcquireWaits, res.AcquireTimeouts, res.AcquireCancels,
		res.Acquires, res.Releases, res.Revocations)

	logf("phase 8: off-heap slabs, %d workers x %d ops, injected map failures + swapped shared regions", cfg.Workers, cfg.ConcOps)
	res, err = RunSlab(ConcConfig{
		Seed: cfg.Seed + 7, Workers: cfg.Workers, Ops: cfg.ConcOps,
		Rules: SlabRules(uint64(cfg.Seed) + 7),
	})
	rep.Slab = res
	if err != nil {
		return rep, fmt.Errorf("slab phase: %w", err)
	}
	logf("phase 8: ok, %d ops, %d slab refills all released, zero leaked pages, zero drift",
		res.Ops, res.SlabRefills)

	rep.Coverage = siteCoverage()
	if un := rep.Uncovered(); len(un) > 0 {
		return rep, fmt.Errorf("failpoint sites never fired: %v", un)
	}
	return rep, nil
}

// PhaseNames lists the chaos phases in run order, by the names RunPhase
// accepts.
func PhaseNames() []string {
	return []string{"seq", "perturb", "errors", "alloc-churn", "fabric", "ownership", "contention", "slab"}
}

// RunPhase executes a single named phase with the same seed offset and
// failpoint rules it gets inside a full Run, so a failure reproduced by
// `rcchaos -phase X` is the same failure the full run would hit. The
// coverage gate is skipped: one phase cannot fire every site.
func RunPhase(name string, cfg Config) (*Report, error) {
	logf := cfg.Log
	if logf == nil {
		logf = func(string, ...any) {}
	}
	rep := &Report{}

	if name == "seq" {
		rep.SeqOps = cfg.SeqOps
		logf("phase seq: %d ops against the reference model, error failpoints armed", cfg.SeqOps)
		h := NewHarness()
		if err := RunSeq(h, RandomOps(cfg.Seed, cfg.SeqOps), SeqRules(uint64(cfg.Seed)), 100); err != nil {
			return rep, fmt.Errorf("sequential phase: %w", err)
		}
		rep.SeqOutcomes = h.Outcomes()
		logf("phase seq: ok, outcomes %v", rep.SeqOutcomes)
		return rep, nil
	}

	// The concurrent phases share a config shape; the table mirrors the
	// seed-offset and rule choices of Run exactly.
	type phase struct {
		offset int64
		rules  func(seed uint64) map[string]failpoint.Rule
		run    func(ConcConfig) (ConcResult, error)
		dst    *ConcResult
	}
	phases := map[string]phase{
		"perturb":     {1, func(s uint64) map[string]failpoint.Rule { return ConcRules(s, true) }, RunConc, &rep.Perturb},
		"errors":      {2, func(s uint64) map[string]failpoint.Rule { return ConcRules(s, false) }, RunConc, &rep.Errors},
		"alloc-churn": {3, AllocChurnRules, RunAllocChurn, &rep.AllocChurn},
		"fabric":      {4, FabricRules, RunFabric, &rep.Fabric},
		"ownership":   {5, OwnershipRules, RunOwnership, &rep.Ownership},
		"contention":  {6, ContentionRules, RunContention, &rep.Contention},
		"slab":        {7, SlabRules, RunSlab, &rep.Slab},
	}
	p, ok := phases[name]
	if !ok {
		return rep, fmt.Errorf("unknown phase %q (have %v)", name, PhaseNames())
	}
	seed := cfg.Seed + p.offset
	logf("phase %s: %d workers x %d ops, seed %d", name, cfg.Workers, cfg.ConcOps, seed)
	res, err := p.run(ConcConfig{
		Seed: seed, Workers: cfg.Workers, Ops: cfg.ConcOps,
		Rules: p.rules(uint64(seed)),
	})
	*p.dst = res
	if err != nil {
		return rep, fmt.Errorf("%s phase: %w", name, err)
	}
	logf("phase %s: ok, %d ops", name, res.Ops)
	return rep, nil
}

// siteCoverage returns the counter snapshot of the rcgo/* sites only
// (other packages may register sites of their own).
func siteCoverage() []failpoint.Stats {
	var out []failpoint.Stats
	for _, st := range failpoint.Snapshot() {
		if len(st.Name) >= 5 && st.Name[:5] == "rcgo/" {
			out = append(out, st)
		}
	}
	return out
}
