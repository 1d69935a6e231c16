package chaos

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"rcgo"
	"rcgo/internal/failpoint"
)

// Concurrent chaos phases: workers hammer a shared arena while
// failpoints perturb and fail every instrumented lifecycle edge. There
// is no reference model here — interleavings are not reproducible — so
// correctness is judged by the invariants that survive any
// interleaving: tolerated error classes only, exact accounting after
// quiesce, and a clean audit.
//
// Every phase is one entry of the phases table: its name, seed offset,
// failpoint rules, arena options, and a setup that builds the phase's
// shared state and returns its worker body, teardown and any judges of
// its own. One core (runConc) does what every phase repeats — arm the
// rules, spawn the workers, quiesce, sweep — and one judge
// (judgeQuiesce) holds every phase to the same accounting identities.

// phase is one concurrent chaos phase.
type phase struct {
	name string
	// offset is added to Config.Seed to give the phase seed, which
	// seeds the failpoint rules; worker w draws from phase seed +
	// w*step, so one top-level seed reproduces every phase.
	offset, step int64
	// about describes the phase in its progress line.
	about string
	// rules arms the failpoints for the duration of the workers; the
	// core stamps each rule with the phase seed.
	rules map[string]failpoint.Rule
	// opts configures the phase's arena beyond WithMetrics, which every
	// judge needs; traced adds a RingTracer whose stats the result
	// reports.
	opts   []rcgo.Option
	traced bool
	setup  func(e *env) phaseRun
}

// phaseRun is one instance of a phase, built by its setup against a
// fresh arena.
type phaseRun struct {
	// work is one worker's whole run: e.ops ops against the shared
	// state, failures reported through e.fail.
	work func(w int, rng *rand.Rand)
	// teardown runs after the workers stop and the failpoints disarm:
	// it deletes whatever the phase left alive.
	teardown func(ctx context.Context) error
	// judge, if set, holds the phase's own checks; it runs after the
	// shared judge passes.
	judge func() error
}

// env is what the core hands a phase's setup: the arena, the per-worker
// op count, the result being filled, and the tallies the shared judge
// compares against the arena.
type env struct {
	a            *rcgo.Arena
	workers, ops int
	res          *ConcResult
	// allocs counts the allocations the workers saw succeed (committed
	// ones only, where a revoked token discards its deltas); adv counts
	// their successful non-nil annotated stores per flavour.
	allocs atomic.Int64
	adv    advisorCounts

	errOnce sync.Once
	err     error
	stops   []func()
}

// fail records a worker failure; the first one fails the phase. It
// never blocks, so a worker in a hand-off ring can record a failure and
// keep the ring protocol alive for its neighbours.
func (e *env) fail(err error) { e.errOnce.Do(func() { e.err = err }) }

// check fails the phase unless err is a tolerable class, and reports
// whether the worker may carry on.
func (e *env) check(what string, err error) bool {
	if tolerable(err) {
		return true
	}
	e.fail(fmt.Errorf("%s: %w", what, err))
	return false
}

// untilSweep registers stop — halting a watchdog or a sampler the
// setup started — to run once the teardown is done, before the quiesce
// sweep (or when the phase aborts). A zombie watchdog thus keeps
// healing the drains an error phase injected while the teardown
// deletes their parents.
func (e *env) untilSweep(stop func()) { e.stops = append(e.stops, stop) }

// ConcResult reports one concurrent phase.
type ConcResult struct {
	Ops int
	// Counters is the arena's cumulative counter snapshot at quiesce.
	Counters rcgo.ArenaCounters
	Audit    rcgo.AuditReport
	// TraceStats is set by traced phases.
	TraceStats rcgo.TraceStats
	// SweptAtQuiesce is the number of drained zombies SweepZombies had
	// to reclaim after teardown; nonzero fails every phase that injects
	// no drain errors. WatchdogFlagged / WatchdogHealed are set by the
	// phases that run a watchdog; healed counts are reported, not judged.
	SweptAtQuiesce  int
	WatchdogFlagged int64
	WatchdogHealed  int64
	// ShardsPopulated / LiveBeforeQuiesce are set by the fabric phase
	// only: how many distinct fabric shards hosted regions, and how many
	// regions were alive, both sampled after the workers stopped but
	// before teardown — the evidence that the aggregation contract was
	// judged against a genuinely multi-shard population.
	ShardsPopulated   int
	LiveBeforeQuiesce int64
	// AdvisorObservations / AdvisorSites are set by phases that arm the
	// annotation advisor (rcgo.WithAdvisor): the advisor table's total
	// observation count and distinct call sites at quiesce. The judge
	// checks the table per flavour against the workers' own success
	// counts — the advisor's exact-at-quiesce contract under churn.
	AdvisorObservations int64
	AdvisorSites        int
	// Fires counts, per rcgo failpoint site, the fires while the
	// phase's workers ran — the evidence that an armed site was on the
	// phase's path at all. Sites that never fired are absent.
	Fires map[string]uint64
}

// Summary is the one-line account of a phase result that Run logs and
// rcchaos prints: the counters every phase moves, then whichever
// subsystem counters this phase moved.
func (r ConcResult) Summary() string {
	c := r.Counters
	var b strings.Builder
	fmt.Fprintf(&b, "%d ops, allocs=%d refill fires=%d", r.Ops, c.Allocs, r.Fires["rcgo/alloc.refill"])
	if r.ShardsPopulated > 0 {
		fmt.Fprintf(&b, ", %d regions live on %d shards before quiesce", r.LiveBeforeQuiesce, r.ShardsPopulated)
	}
	if r.AdvisorSites > 0 {
		fmt.Fprintf(&b, ", advisor %d stores over %d sites", r.AdvisorObservations, r.AdvisorSites)
	}
	if c.Acquires > 0 {
		fmt.Fprintf(&b, ", acquires=%d releases=%d revocations=%d owner-flushes=%d, waits=%d (%d timeouts, %d cancels)",
			c.Acquires, c.Releases, c.OwnerRevocations, c.OwnerFlushes, c.AcquireWaits, c.AcquireTimeouts, c.AcquireCancels)
	}
	if c.SlabRefills > 0 {
		fmt.Fprintf(&b, ", slab refills=%d releases=%d", c.SlabRefills, c.SlabReleases)
	}
	fmt.Fprintf(&b, ", watchdog flagged=%d healed=%d, swept=%d, trace total=%d dropped=%d, audit violations=%d",
		r.WatchdogFlagged, r.WatchdogHealed, r.SweptAtQuiesce, r.TraceStats.Total, r.TraceStats.Dropped,
		len(r.Audit.Violations))
	return b.String()
}

// runConc runs one concurrent phase and the quiesce that judges it:
// arm the rules, run cfg.Workers workers, disarm, tear down, stop
// whatever the setup started, sweep, judge.
func runConc(p *phase, cfg Config) (ConcResult, error) {
	seed := cfg.Seed + p.offset
	res := ConcResult{Ops: cfg.Workers * cfg.ConcOps}
	opts := append([]rcgo.Option{rcgo.WithMetrics()}, p.opts...)
	var ring *rcgo.RingTracer
	if p.traced {
		ring = rcgo.NewRingTracer(1 << 14)
		opts = append(opts, rcgo.WithTracer(ring))
	}
	a := rcgo.NewArena(opts...)
	defer a.CloseBackingStore()
	e := &env{a: a, workers: cfg.Workers, ops: cfg.ConcOps, res: &res}
	run := p.setup(e)
	stopAll := sync.OnceFunc(func() {
		for _, stop := range e.stops {
			stop()
		}
	})
	defer stopAll()

	for name, r := range p.rules {
		r.Seed = uint64(seed)
		if err := failpoint.Enable(name, r); err != nil {
			return res, err
		}
	}
	defer failpoint.DisableAll()

	before := siteFires()
	var wg sync.WaitGroup
	for w := 0; w < cfg.Workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			run.work(w, rand.New(rand.NewSource(seed+int64(w)*p.step)))
		}(w)
	}
	wg.Wait()
	res.Fires = map[string]uint64{}
	for name, n := range siteFires() {
		if d := n - before[name]; d > 0 {
			res.Fires[name] = d
		}
	}
	if e.err != nil {
		return res, e.err
	}

	// Quiesce: disarm, tear down, reclaim any drained zombie the runtime
	// left behind, then judge.
	failpoint.DisableAll()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := run.teardown(ctx); err != nil {
		return res, fmt.Errorf("quiesce: %w", err)
	}
	stopAll()
	res.SweptAtQuiesce = a.SweepZombies()
	if ring != nil {
		res.TraceStats = ring.TraceStats()
	}
	res.Counters = a.Counters()
	res.Audit = a.Audit()
	if err := judgeQuiesce(e, p.rules); err != nil {
		return res, err
	}
	if run.judge != nil {
		return res, run.judge()
	}
	return res, nil
}

// judgeQuiesce is the quiesce judge every phase runs: a clean audit, no
// silently healed drain, the workers' allocation tally equal to the
// arena's, every minted owner token retired, every slab page returned,
// every region but the traditional one reclaimed exactly once, nothing
// but the traditional region alive, and — when the arena has
// the advisor — the advisor table equal to the workers' store tally.
func judgeQuiesce(e *env, rules map[string]failpoint.Rule) error {
	a, res, c := e.a, e.res, e.res.Counters
	if !res.Audit.OK {
		return fmt.Errorf("quiesced audit failed:\n%s", res.Audit)
	}
	// A drain lost without an injected drain error is a runtime defect
	// the sweep would otherwise heal silently: a zombie whose last
	// reference dropped must already be reclaimed.
	if drain, armed := rules["rcgo/zombie.drain"]; res.SweptAtQuiesce > 0 && !(armed && drain.Action == failpoint.ActionError) {
		return fmt.Errorf("lost drain: SweepZombies reclaimed %d drained zombie(s) at quiesce with no drain errors injected",
			res.SweptAtQuiesce)
	}
	if got := e.allocs.Load(); c.Allocs != got {
		return fmt.Errorf("alloc drift: arena counted %d allocs, workers observed %d successes", c.Allocs, got)
	}
	// Owner.Delete counts as one release; a forced revocation retires a
	// token without one.
	if c.Acquires != c.Releases+c.OwnerRevocations {
		return fmt.Errorf("acquisition imbalance: %d acquires vs %d releases + %d revocations",
			c.Acquires, c.Releases, c.OwnerRevocations)
	}
	if c.SlabRefills != c.SlabReleases {
		return fmt.Errorf("slab page drift: %d refills vs %d releases", c.SlabRefills, c.SlabReleases)
	}
	// Every region but the traditional one died exactly once, on the
	// spot or as a zombie, and was reclaimed exactly once.
	if created := a.Stats().RegionsCreated - 1; c.Reclaims != c.Deletes+c.DeferredDeletes || c.Reclaims != created {
		return fmt.Errorf("reclaim drift: %d reclaims vs %d deletes + %d deferred deletes, %d regions created besides the traditional one",
			c.Reclaims, c.Deletes, c.DeferredDeletes, created)
	}
	for _, g := range []struct {
		name      string
		got, want int64
	}{
		{"LiveObjects", a.LiveObjects(), 0},
		{"LiveRegions", a.LiveRegions(), 1}, // the traditional region
		{"DeferredRegions", a.DeferredRegions(), 0},
		{"OwnedRegions", a.OwnedRegions(), 0},
		{"AcquireWaiters", a.AcquireWaiters(), 0},
	} {
		if g.got != g.want {
			return fmt.Errorf("quiesce: %s = %d, want %d", g.name, g.got, g.want)
		}
	}
	if !a.AdvisorReport().Enabled {
		return nil
	}
	var err error
	res.AdvisorSites, res.AdvisorObservations, err = e.adv.judge(a)
	return err
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

// deleteAll tears regions down in order with bounded retry.
func deleteAll(ctx context.Context, regions ...*rcgo.Region) error {
	for _, r := range regions {
		if err := r.DeleteWithRetry(ctx, rcgo.Backoff{}); err != nil {
			return fmt.Errorf("delete region %d: %w", r.ID(), err)
		}
	}
	return nil
}

// sharedRegions is a small set of regions any worker may swap out and
// deferred-delete while the others still allocate into the old one.
type sharedRegions [4]atomic.Pointer[rcgo.Region]

func newSharedRegions(a *rcgo.Arena) *sharedRegions {
	s := new(sharedRegions)
	for i := range s {
		s[i].Store(a.NewRegion())
	}
	return s
}

func (s *sharedRegions) pick(rng *rand.Rand) *rcgo.Region { return s[rng.Intn(len(s))].Load() }

// swap replaces one shared region with a fresh one and deferred-deletes
// the old one under the other workers' feet.
func (s *sharedRegions) swap(a *rcgo.Arena, rng *rand.Rand) {
	s[rng.Intn(len(s))].Swap(a.NewRegion()).DeleteDeferred()
}

// deleteDeferred is the teardown: what the swaps left behind goes
// through the zombie path.
func (s *sharedRegions) deleteDeferred(context.Context) error {
	for i := range s {
		s[i].Load().DeleteDeferred()
	}
	return nil
}

// phases is the concurrent half of a full run, in run order.
var phases = []phase{
	{
		name: "perturb", offset: 1, step: 7919, setup: treeSetup,
		about:  "perturbation failpoints (yield/delay)",
		opts:   []rcgo.Option{rcgo.WithAdvisor()},
		traced: true,
		// Interleaving perturbation: yields and delays inside the race
		// windows, no errors.
		rules: map[string]failpoint.Rule{
			"rcgo/alloc.admission": {Action: failpoint.ActionYield, Num: 1, Den: 5},
			"rcgo/incrc.validate":  {Action: failpoint.ActionYield, Num: 1, Den: 3, Yields: 2},
			"rcgo/delete.dying":    {Action: failpoint.ActionDelay, Num: 1, Den: 7, Delay: 50 * time.Microsecond},
			"rcgo/zombie.drain":    {Action: failpoint.ActionYield, Num: 1, Den: 4},
			"rcgo/slot.insert":     {Action: failpoint.ActionYield, Num: 1, Den: 4},
			"rcgo/alloc.refill":    {Action: failpoint.ActionYield, Num: 1, Den: 3, Yields: 2},
		},
	},
	{
		name: "errors", offset: 2, step: 7919, setup: treeSetup,
		about:  "error failpoints on every site",
		opts:   []rcgo.Option{rcgo.WithAdvisor()},
		traced: true,
		// Error injection: every unwind path under concurrency. The only
		// phase that injects lost drains, so the only one whose quiesce
		// sweep may reclaim anything.
		rules: map[string]failpoint.Rule{
			"rcgo/alloc.admission": {Action: failpoint.ActionError, Num: 1, Den: 17},
			"rcgo/incrc.validate":  {Action: failpoint.ActionError, Num: 1, Den: 19},
			"rcgo/delete.dying":    {Action: failpoint.ActionError, Num: 1, Den: 11},
			"rcgo/zombie.drain":    {Action: failpoint.ActionError, Num: 1, Den: 3},
			"rcgo/slot.insert":     {Action: failpoint.ActionError, Num: 1, Den: 13},
			"rcgo/alloc.refill":    {Action: failpoint.ActionError, Num: 1, Den: 5},
		},
	},
	{
		name: "alloc-churn", offset: 3, step: 104729, setup: allocChurnSetup,
		about: "refused refills + stretched delete windows",
		opts:  []rcgo.Option{rcgo.WithAdvisor()},
		// Refused chunk refills at a high rate (the error path SeqRules
		// cannot arm deterministically), transient admission failures,
		// and yields inside the delete windows so reclaim races the fast
		// path's increment-then-validate loop as often as possible.
		rules: map[string]failpoint.Rule{
			"rcgo/alloc.admission": {Action: failpoint.ActionError, Num: 1, Den: 29},
			"rcgo/alloc.refill":    {Action: failpoint.ActionError, Num: 1, Den: 3},
			"rcgo/delete.dying":    {Action: failpoint.ActionYield, Num: 1, Den: 3, Yields: 2},
			"rcgo/zombie.drain":    {Action: failpoint.ActionYield, Num: 1, Den: 4},
		},
	},
	{
		name: "fabric", offset: 4, step: 31337, setup: fabricSetup,
		about: "across 8 shards",
		opts:  []rcgo.Option{rcgo.WithShards(8)},
		// Transient admission failures plus yields inside every window
		// where a fabric shard's counters are mid-update, so cross-shard
		// accounting races as often as the scheduler allows.
		rules: map[string]failpoint.Rule{
			"rcgo/alloc.admission": {Action: failpoint.ActionError, Num: 1, Den: 31},
			"rcgo/alloc.refill":    {Action: failpoint.ActionYield, Num: 1, Den: 3, Yields: 2},
			"rcgo/delete.dying":    {Action: failpoint.ActionYield, Num: 1, Den: 3, Yields: 2},
			"rcgo/zombie.drain":    {Action: failpoint.ActionYield, Num: 1, Den: 4},
			"rcgo/slot.insert":     {Action: failpoint.ActionYield, Num: 1, Den: 5},
			"rcgo/incrc.validate":  {Action: failpoint.ActionYield, Num: 1, Den: 5},
		},
	},
	{
		name: "ownership", offset: 5, step: 6151, setup: ownershipSetup,
		about:  "around the token ring, injected release failures",
		traced: true,
		// Injected release failures in the flush window (the region
		// stays owned and the token stays valid, so the worker must
		// retry), refused chunk refills on the owned allocation path, and
		// yields inside the windows the acquire barrier and the external
		// incRC race against.
		rules: map[string]failpoint.Rule{
			"rcgo/own.release":    {Action: failpoint.ActionError, Num: 1, Den: 5},
			"rcgo/alloc.refill":   {Action: failpoint.ActionError, Num: 1, Den: 7},
			"rcgo/incrc.validate": {Action: failpoint.ActionYield, Num: 1, Den: 3, Yields: 2},
			"rcgo/delete.dying":   {Action: failpoint.ActionYield, Num: 1, Den: 3},
			"rcgo/zombie.drain":   {Action: failpoint.ActionYield, Num: 1, Den: 4},
		},
	},
	{
		name: "contention", offset: 6, step: 7919, setup: contentionSetup,
		about:  "storming one hub, refused hand-offs + abandoned tokens",
		traced: true,
		// Refused hand-offs in the wake/transfer window (the waiter is
		// requeued and the next tried, so FIFO delivery must survive
		// refusals), injected release failures in the flush window (the
		// releaser retries on a still-valid token while waiters stay
		// parked), and refused chunk refills on the owned allocation path.
		rules: map[string]failpoint.Rule{
			"rcgo/own.handoff":  {Action: failpoint.ActionError, Num: 1, Den: 4},
			"rcgo/own.release":  {Action: failpoint.ActionError, Num: 1, Den: 7},
			"rcgo/alloc.refill": {Action: failpoint.ActionError, Num: 1, Den: 9},
		},
	},
	{
		name: "slab", offset: 7, step: 12289, setup: slabSetup,
		about:  "injected map failures + swapped shared regions",
		opts:   []rcgo.Option{rcgo.WithOffHeapSlabs()},
		traced: true,
		// Injected map failures on the slab refill edge (the only error a
		// backing store may surface, as a transient allocator failure),
		// refused GC-heap refills so the fallback path churns too, and
		// yields inside the delete windows so region reclaim — which
		// returns slab pages for immediate reuse — races the
		// carve-and-track window as often as possible.
		rules: map[string]failpoint.Rule{
			"rcgo/slab.map":     {Action: failpoint.ActionError, Num: 1, Den: 7},
			"rcgo/alloc.refill": {Action: failpoint.ActionError, Num: 1, Den: 11},
			"rcgo/delete.dying": {Action: failpoint.ActionYield, Num: 1, Den: 3, Yields: 2},
			"rcgo/zombie.drain": {Action: failpoint.ActionYield, Num: 1, Den: 4},
		},
	},
}

// treeSetup is the perturb and errors phases: workers race allocations,
// stores, pins and deletes over a shared region tree while a
// ZombieWatchdog patrols for stuck zombies and an audit sampler
// exercises Arena.Audit against the live arena (its report is advisory
// there; only the quiesced audit judges). The annotation advisor is
// armed for the whole phase: every successful non-nil store a worker
// performed must appear in the quiesced advisor table, exactly once.
func treeSetup(e *env) phaseRun {
	a := e.a
	wd := rcgo.NewZombieWatchdog(a, 2*time.Millisecond)
	wd.Start(5 * time.Millisecond)
	e.untilSweep(func() {
		wd.Stop()
		e.res.WatchdogFlagged, e.res.WatchdogHealed = wd.Flagged(), wd.Healed()
	})

	const mids = 4
	root := a.NewRegion()
	midRegions := make([]*rcgo.Region, mids)
	midObjs := make([]*rcgo.Obj[node], mids)
	for i := range midRegions {
		midRegions[i] = root.NewSubregion()
		midObjs[i] = rcgo.Alloc[node](midRegions[i])
	}
	rootObj := rcgo.Alloc[node](root)
	e.allocs.Add(mids + 1)

	samplerStop, samplerDone := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(samplerDone)
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
	e.untilSweep(func() { close(samplerStop); <-samplerDone })

	work := func(_ int, rng *rand.Rand) {
		// Private holder region for counted cross-references into the
		// shared tree; torn down (with retry, failpoints may inject) on
		// the way out.
		holderRegion := a.NewRegion()
		holder, err := rcgo.TryAlloc[node](holderRegion)
		for err != nil {
			holder, err = rcgo.TryAlloc[node](holderRegion)
		}
		e.allocs.Add(1)
		defer func() {
			if err := clearRef(holder); !tolerable(err) {
				e.fail(fmt.Errorf("worker cleanup clear: %w", err))
			}
			ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			defer cancel()
			if err := holderRegion.DeleteWithRetry(ctx, rcgo.Backoff{Initial: 50 * time.Microsecond}); err != nil {
				e.fail(fmt.Errorf("worker cleanup delete: %w", err))
			}
		}()
		for i := 0; i < e.ops; i++ {
			mid := midRegions[rng.Intn(mids)]
			mo := midObjs[rng.Intn(mids)]
			var err error
			switch rng.Intn(6) {
			case 0: // alloc into the shared tree
				if _, err = rcgo.TryAlloc[node](mid); err == nil {
					e.allocs.Add(1)
				}
			case 1: // transient pin
				if unpin, perr := rcgo.TryPin(mo); perr == nil {
					unpin()
				} else {
					err = perr
				}
			case 2: // counted ref in, then out
				if serr := rcgo.SetRef(holder, &holder.Value.Other, mo); serr == nil {
					e.adv.ref.Add(1)
					err = clearRef(holder)
				} else {
					err = serr
				}
			case 3: // subregion churn with delete retry
				if sub, serr := mid.TryNewSubregion(); serr == nil {
					if _, aerr := rcgo.TryAlloc[node](sub); aerr == nil {
						e.allocs.Add(1)
					}
					ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
					err = sub.DeleteWithRetry(ctx, rcgo.Backoff{Initial: 20 * time.Microsecond})
					cancel()
				} else {
					err = serr
				}
			case 4: // deferred-delete a subregion pinned across the deferral
				if sub, serr := mid.TryNewSubregion(); serr == nil {
					if o, aerr := rcgo.TryAlloc[node](sub); aerr == nil {
						e.allocs.Add(1)
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
					e.allocs.Add(1)
					err = rcgo.SetSame(o, &o.Value.Same, mo)
					if err == nil {
						e.adv.same.Add(1)
					}
					if err == nil || tolerable(err) {
						err = rcgo.SetParent(o, &o.Value.Up, rootObj)
						if err == nil {
							e.adv.parent.Add(1)
						}
					}
				} else {
					err = aerr
				}
			}
			if !e.check("worker op", err) {
				return
			}
		}
	}
	teardown := func(ctx context.Context) error { return deleteAll(ctx, append(midRegions, root)...) }
	return phaseRun{work: work, teardown: teardown}
}

// allocChurnSetup is the allocation-churn phase: workers drive tight
// TryAlloc loops through the fast path's chunk pools
// (region_alloccache.go) and its increment-then-validate admission on
// the region's object counter, while the regions being allocated into
// are concurrently deleted out from under them — private regions
// replaced mid-loop, and a small set of shared regions that any worker
// may swap out and deferred-delete while the others still hold the old
// pointer. Its rules refuse chunk refills and stretch the delete
// windows, so reclaim races the admission loop constantly.
//
// The judge is exactness, not survival: any admission counted on a
// region that then died, or withdrawn from one that lived, shows up as
// drift against the workers' own success count, as a nonzero
// LiveObjects, or as an audit violation. The annotation advisor rides along under the same
// contract: each fresh object gets a sameregion self-link, often into a
// region mid-deletion, and the quiesced advisor table must count
// exactly the links that succeeded.
func allocChurnSetup(e *env) phaseRun {
	a := e.a
	shared := newSharedRegions(a)
	work := func(_ int, rng *rand.Rand) {
		private := a.NewRegion()
		defer func() {
			private.DeleteDeferred()
		}()
		for i := 0; i < e.ops; i++ {
			target := private
			if rng.Intn(3) == 0 {
				target = shared.pick(rng)
			}
			if o, err := rcgo.TryAlloc[node](target); err == nil {
				e.allocs.Add(1)
				// Sameregion self-link on the fresh object, racing the
				// region's deletion: the advisor must count exactly the
				// links that land.
				if serr := rcgo.SetSame(o, &o.Value.Same, o); serr == nil {
					e.adv.same.Add(1)
				} else if !e.check("alloc churn store", serr) {
					return
				}
			} else if !e.check("alloc churn", err) {
				return
			}
			switch {
			case rng.Intn(61) == 0:
				// Replace the private region mid-loop, its objects still
				// counted, while this worker's next admission races it.
				private.DeleteDeferred()
				private = a.NewRegion()
			case rng.Intn(127) == 0:
				// Swap a shared region while other workers still allocate
				// into the old one — the alloc-vs-reclaim race proper.
				shared.swap(a, rng)
			case rng.Intn(89) == 0:
				// Lock-free read of the region's object counter.
				_ = target.Objects()
			case rng.Intn(149) == 0:
				_ = target.Stats() // snapshot under mu
			case rng.Intn(173) == 0:
				// The arena total, summed over the registry while
				// regions register, die and unregister under it.
				_ = a.LiveObjects()
			}
		}
	}
	return phaseRun{work: work, teardown: shared.deleteDeferred}
}

// fabricSetup is the multi-shard fabric phase: a WithShards(8) arena
// carrying hundreds of concurrently live regions spread across the
// fabric, with every worker churning its own ring of regions —
// allocation + SetSame bursts, cross-shard subregion trees, and both
// delete flavours replacing ring slots mid-run — while its rules inject
// admission failures and stretch every window where a shard's slice of
// the arena totals is mid-update.
//
// The judge is the fabric aggregation contract: the fabric-wide audit
// checks each shard's counters against exactly the regions whose ids
// encode that shard, so any region accounted on the wrong shard
// surfaces as an audit violation or counter drift, and LiveObjects
// sums every shard's registry at quiesce. The phase's own judge is the
// sample that proves the population was genuinely multi-shard.
func fabricSetup(e *env) phaseRun {
	a := e.a
	// Each worker owns a ring of regions it continually replaces; the
	// rings together keep workers*ringSize regions live for the whole
	// phase (256 at the default chaos sizing of 8 workers).
	const ringSize = 32
	rings := make([][]*rcgo.Region, e.workers)
	for w := range rings {
		rings[w] = make([]*rcgo.Region, ringSize)
		for i := range rings[w] {
			rings[w][i] = a.NewRegion()
		}
	}
	work := func(w int, rng *rand.Rand) {
		ring := rings[w]
		for i := 0; i < e.ops; i++ {
			r := ring[rng.Intn(ringSize)]
			var err error
			switch op := rng.Intn(6); op {
			case 0, 1: // alloc + same-region annotated store
				if o, aerr := rcgo.TryAlloc[node](r); aerr == nil {
					e.allocs.Add(1)
					err = rcgo.SetSame(o, &o.Value.Same, o)
				} else {
					err = aerr
				}
			case 2: // cross-shard subregion churn under the live parent
				if sub, serr := r.TryNewSubregion(); serr == nil {
					if _, aerr := rcgo.TryAlloc[node](sub); aerr == nil {
						e.allocs.Add(1)
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
			case 4, 5: // replace a ring slot through the zombie path, pinned
				j := rng.Intn(ringSize)
				old := ring[j]
				ring[j] = a.NewRegion()
				if o, aerr := rcgo.TryAlloc[node](old); aerr == nil {
					e.allocs.Add(1)
					if unpin, perr := rcgo.TryPin(o); perr == nil {
						if op == 4 {
							old.DeleteDeferred()
							unpin() // last reference: the zombie drains
						} else {
							deferRacingUnpin(old, unpin, rng)
						}
					} else {
						old.DeleteDeferred()
					}
				} else {
					old.DeleteDeferred()
				}
			}
			if !e.check("fabric op", err) {
				return
			}
		}
	}
	teardown := func(ctx context.Context) error {
		// Sample the fabric population while the rings are still live:
		// the audit must judge a genuinely multi-shard arena.
		populated := map[int]bool{}
		a.EachRegion(func(r *rcgo.Region) {
			e.res.LiveBeforeQuiesce++
			populated[a.RegionShard(r.ID())] = true
		})
		e.res.ShardsPopulated = len(populated)
		for _, ring := range rings {
			if err := deleteAll(ctx, ring...); err != nil {
				return err
			}
		}
		return nil
	}
	return phaseRun{work: work, teardown: teardown}
}

// deferRacingUnpin deferred-deletes r on a goroutine of its own while
// this one drops the pin that holds r's last reference, after a random
// few yields: the unpin lands before, inside or after DeleteDeferred's
// window between its count read and the stateZombie publish. One that
// lands inside finds r dying, not zombie, and leaves the drain to
// DeleteDeferred's re-offer; without that re-offer the zombie is stuck
// and the quiesce sweep has to reclaim it, which fails the phase.
func deferRacingUnpin(r *rcgo.Region, unpin func(), rng *rand.Rand) {
	deferred := make(chan struct{})
	go func() {
		r.DeleteDeferred()
		close(deferred)
	}()
	for k := rng.Intn(4); k > 0; k-- {
		runtime.Gosched()
	}
	unpin()
	<-deferred
}

// ownershipSetup is the ownership hand-off phase: workers form a ring,
// and every iteration each worker builds a region through the owned
// fast path — TryAcquire, TryAllocOwned bursts, SetSameOwned links,
// SetRefOwned counted references into a shared hub region — then hands
// the Owner token to its ring neighbour over a channel (the memory-
// model edge that publishes the token's plain owner-local state), and
// consumes the token it receives: more owned allocations, then either
// Owner.Delete or a Release followed by a shared Delete. The
// rcgo/own.release failpoint injects transient failures into the flush
// window, so workers constantly retry release/delete on still-valid
// tokens; while they hold a token they also probe the shared paths —
// second TryAcquire, shared TryAlloc, TryPin, Delete, SetRef with an
// owned holder — all of which must fail fast with exactly
// ErrRegionOwned.
//
// The judge is the flush-at-release exactness contract: any owner-local
// delta lost (or double-counted) across an injected release retry or a
// token hand-off shows up as alloc drift, as a nonzero LiveObjects, or
// as an audit violation; and every token minted must be released once
// the ring drains.
func ownershipSetup(e *env) phaseRun {
	a := e.a
	hub := a.NewRegion()
	hubObj := rcgo.Alloc[node](hub)
	e.allocs.Add(1)

	// Tokens travel around the ring: worker w sends to chans[(w+1)%W]
	// and receives from chans[w]. Every worker sends and receives
	// exactly e.ops tokens (nil on a failed build), so the ring drains
	// completely — no token is in flight once the workers stop. On an
	// unexpected error a worker must keep the ring protocol alive (a
	// returning worker would deadlock its neighbour's receive), so it
	// records the error with e.fail and carries on.
	chans := make([]chan *rcgo.Owner, e.workers)
	for i := range chans {
		// Buffered: every worker sends before it receives, so an
		// unbuffered ring would deadlock on the first hand-off.
		chans[i] = make(chan *rcgo.Owner, 4)
	}
	work := func(w int, rng *rand.Rand) {
		next := chans[(w+1)%len(chans)]
		for i := 0; i < e.ops; i++ {
			// Build side: fresh region, acquired immediately.
			r := a.NewRegion()
			own, err := r.TryAcquire()
			if err != nil {
				e.fail(fmt.Errorf("ownership acquire: %w", err))
				_ = r.Delete()
				next <- nil
				continue
			}
			var obj *rcgo.Obj[node]
			for n := 1 + rng.Intn(3); n > 0; n-- {
				o, aerr := rcgo.TryAllocOwned[node](own)
				if aerr == nil {
					e.allocs.Add(1)
					obj = o
				} else if !errors.Is(aerr, rcgo.ErrInjected) {
					e.fail(fmt.Errorf("owned alloc: %w", aerr))
				}
			}
			if obj != nil {
				if serr := rcgo.SetSameOwned(own, obj, &obj.Value.Same, obj); serr != nil {
					e.fail(fmt.Errorf("owned sameregion store: %w", serr))
				}
				if serr := rcgo.SetRefOwned(own, obj, &obj.Value.Other, hubObj); !tolerable(serr) {
					e.fail(fmt.Errorf("owned counted store: %w", serr))
				}
				// The owned annotation check still fires: a sameregion
				// store of an external target is a check failure.
				if rng.Intn(4) == 0 {
					if serr := rcgo.SetSameOwned(own, obj, &obj.Value.Same, hubObj); !errors.Is(serr, rcgo.ErrBadRef) {
						e.fail(fmt.Errorf("owned bad sameregion store: got %v, want ErrBadRef", serr))
					}
				}
			}
			// Shared-path probes while the token is held: every one
			// must fail fast with exactly ErrRegionOwned.
			if rng.Intn(3) == 0 {
				if _, perr := r.TryAcquire(); !errors.Is(perr, rcgo.ErrRegionOwned) {
					e.fail(fmt.Errorf("second acquire: got %v, want ErrRegionOwned", perr))
				}
				// The armed alloc.refill site may inject before the
				// admission loop reads the owned state; both rejections
				// prove the shared path cannot allocate here.
				if _, perr := rcgo.TryAlloc[node](r); !errors.Is(perr, rcgo.ErrRegionOwned) &&
					!errors.Is(perr, rcgo.ErrInjected) {
					e.fail(fmt.Errorf("shared alloc on owned region: got %v, want ErrRegionOwned", perr))
				}
				if perr := r.Delete(); !errors.Is(perr, rcgo.ErrRegionOwned) {
					e.fail(fmt.Errorf("shared delete of owned region: got %v, want ErrRegionOwned", perr))
				}
				if obj != nil {
					if _, perr := rcgo.TryPin(obj); !errors.Is(perr, rcgo.ErrRegionOwned) {
						e.fail(fmt.Errorf("pin into owned region: got %v, want ErrRegionOwned", perr))
					}
					if perr := rcgo.SetRef(obj, &obj.Value.Other, hubObj); !errors.Is(perr, rcgo.ErrRegionOwned) {
						e.fail(fmt.Errorf("shared store with owned holder: got %v, want ErrRegionOwned", perr))
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
				e.allocs.Add(1)
			} else if !errors.Is(aerr, rcgo.ErrInjected) {
				e.fail(fmt.Errorf("owned alloc after hand-off: %w", aerr))
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
						e.fail(fmt.Errorf("release: %w", rerr))
						break
					}
				}
				if derr := tr.Delete(); !tolerable(derr) {
					e.fail(fmt.Errorf("delete after release: %w", derr))
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
						e.fail(fmt.Errorf("owned delete: %w", derr))
						break
					}
				}
			}
		}
	}
	// The hub's inbound counted references all died with their token
	// regions.
	teardown := func(ctx context.Context) error { return deleteAll(ctx, hub) }
	return phaseRun{work: work, teardown: teardown, judge: e.acquired}
}

// contentionSetup is the contention phase: a token storm against one
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
// revocation, no waiter leaks (the arena-wide parked-waiter gauge is
// zero at quiesce and the audit's queue-integrity rules are clean), and
// the flush-at-release exactness story extends to revocation — workers
// count an owned allocation only once the token that made it released
// successfully (a revoked token's unflushed deltas are discarded by
// contract), and the arena's Allocs counter must match that committed
// tally exactly. The phase's own judges wait out abandoned tokens and
// require real contention.
func contentionSetup(e *env) phaseRun {
	a := e.a
	wd := rcgo.NewOwnerWatchdog(a, 2*time.Millisecond)
	wd.ForceReleaseAfter = 5 * time.Millisecond
	wd.Start(time.Millisecond)
	e.untilSweep(func() {
		wd.Stop()
		e.res.WatchdogFlagged = wd.Flagged()
	})
	hub := a.NewRegion()

	work := func(_ int, rng *rand.Rand) {
		for i := 0; i < e.ops; i++ {
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
					e.fail(fmt.Errorf("contended acquire: error %v must wrap the context error and ErrRegionOwned", err))
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
					e.fail(fmt.Errorf("owned alloc under contention: %w", aerr))
				}
			}
			if obj != nil {
				if serr := rcgo.SetSameOwned(own, obj, &obj.Value.Same, obj); serr != nil &&
					!errors.Is(serr, rcgo.ErrOwnerRevoked) {
					e.fail(fmt.Errorf("owned sameregion store under contention: %w", serr))
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
					e.allocs.Add(pending)
					break
				}
				if errors.Is(rerr, rcgo.ErrInjected) {
					continue
				}
				if errors.Is(rerr, rcgo.ErrOwnerRevoked) {
					break
				}
				e.fail(fmt.Errorf("release under contention: %w", rerr))
				break
			}
			cancel()
		}
	}
	teardown := func(ctx context.Context) error {
		// Wait out any still-abandoned token: the watchdog has to revoke
		// it before the hub can be deleted.
		deadline := time.Now().Add(10 * time.Second)
		for a.OwnedRegions() != 0 {
			if time.Now().After(deadline) {
				return fmt.Errorf("abandoned token never revoked, OwnedRegions = %d", a.OwnedRegions())
			}
			wd.Check()
			time.Sleep(time.Millisecond)
		}
		return deleteAll(ctx, hub)
	}
	judge := func() error {
		if err := e.acquired(); err != nil {
			return err
		}
		if e.res.Counters.AcquireWaits == 0 {
			return fmt.Errorf("contention phase saw no contention: AcquireWaits = 0")
		}
		return nil
	}
	return phaseRun{work: work, teardown: teardown, judge: judge}
}

// acquired is the ownership phases' floor: a phase that minted no
// token exercised nothing.
func (e *env) acquired() error {
	if e.res.Counters.Acquires == 0 {
		return fmt.Errorf("no acquisitions: the phase exercised nothing")
	}
	return nil
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

// slabSetup is the off-heap slab phase: a rcgo.WithOffHeapSlabs arena
// whose workers churn regions full of pointer-free payloads (slab-
// backed chunks) interleaved with pointer-carrying node payloads
// (GC-heap chunks — the admission gate must keep the two apart), while
// the rcgo/slab.map failpoint injects map failures into the refill edge
// and yields stretch the delete windows so reclaim's immediate page
// return races the carve-and-track window. Workers write and verify
// payload checksums only while they own the region or hold a pin — the
// pointer-safety contract's sanctioned shapes (DESIGN.md §16); shared
// regions are swapped out and deferred-deleted under the other workers'
// feet, so pinned verification races page recycling constantly.
//
// The judges are the page-accounting contract at quiesce: every slab
// refill released (the shared judge), a clean audit (including the
// slab-pages-total and slab-store-accounting rules), and the phase's
// own store checks — zero in-use pages left in the store (every page
// carved for a region came back at its reclaim), at least one
// slab-backed chunk, and an idempotent close.
func slabSetup(e *env) phaseRun {
	a := e.a
	shared := newSharedRegions(a)
	work := func(wid int, rng *rand.Rand) {
		for i := 0; i < e.ops; i++ {
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
						if !e.check("slab private alloc", err) {
							return
						}
						continue
					}
					e.allocs.Add(1)
					o.Value.Seq, o.Value.Tag = int64(len(objs)), int64(wid)
					objs = append(objs, o)
				}
				for n, o := range objs {
					if o.Value.Seq != int64(n) || o.Value.Tag != int64(wid) {
						e.fail(fmt.Errorf("slab payload corrupted: seq=%d tag=%d, want seq=%d tag=%d",
							o.Value.Seq, o.Value.Tag, n, wid))
						return
					}
				}
				if rng.Intn(2) == 0 {
					ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
					err := r.DeleteWithRetry(ctx, rcgo.Backoff{Initial: 20 * time.Microsecond})
					cancel()
					if !e.check("slab private delete", err) {
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
				o, err := rcgo.TryAlloc[slabRec](shared.pick(rng))
				if err != nil {
					if !e.check("slab shared alloc", err) {
						return
					}
					break
				}
				e.allocs.Add(1)
				if unpin, perr := rcgo.TryPin(o); perr == nil {
					o.Value.Seq, o.Value.Tag = int64(i), int64(wid)
					if o.Value.Tag != int64(wid) {
						e.fail(fmt.Errorf("slab pinned payload corrupted: tag=%d want %d", o.Value.Tag, wid))
						unpin()
						return
					}
					unpin()
				} else if !e.check("slab pin", perr) {
					return
				}
			case 3:
				// Pointer-carrying payloads ride the ordinary GC-heap
				// chunk path through the same regions: the admission gate
				// must keep them off the slab pages without disturbing the
				// accounting.
				if _, err := rcgo.TryAlloc[node](shared.pick(rng)); err == nil {
					e.allocs.Add(1)
				} else if !e.check("slab heap alloc", err) {
					return
				}
			}
			if rng.Intn(97) == 0 {
				// Swap a shared region while other workers still allocate
				// into the old one — reclaim's page return racing carves.
				shared.swap(a, rng)
			}
		}
	}
	judge := func() error {
		c := e.res.Counters
		ss, attached := a.SlabStats()
		switch {
		case !attached:
			return fmt.Errorf("slab phase: no backing store attached")
		case ss.InUsePages != 0:
			return fmt.Errorf("slab pages leaked at quiesce: %d in use (refills=%d releases=%d)",
				ss.InUsePages, c.SlabRefills, c.SlabReleases)
		case c.SlabRefills == 0:
			return fmt.Errorf("slab phase inert: no chunk was ever slab-backed")
		case c.SlabRefills <= ss.CarvedPages:
			return fmt.Errorf("slab phase never recycled a page: %d refills from %d carved pages",
				c.SlabRefills, ss.CarvedPages)
		}
		if err := a.CloseBackingStore(); err != nil {
			return fmt.Errorf("quiesce: close backing store: %w", err)
		}
		if err := a.CloseBackingStore(); err != nil {
			return fmt.Errorf("quiesce: second close not idempotent: %w", err)
		}
		return nil
	}
	return phaseRun{work: work, teardown: shared.deleteDeferred, judge: judge}
}

// Config sizes a full chaos run: one sequential model-checked phase,
// then every concurrent phase of the phases table in order.
type Config struct {
	Seed    int64
	SeqOps  int
	Workers int
	// ConcOps is the per-worker op count of each concurrent phase.
	ConcOps int
	// Log receives progress lines (nil discards them).
	Log func(format string, args ...any)
}

func (cfg Config) logf(format string, args ...any) {
	if cfg.Log != nil {
		cfg.Log(format, args...)
	}
}

// Report is the outcome of a chaos run, or of one phase.
type Report struct {
	SeqOps      int
	SeqOutcomes map[string]int
	// Phases holds the concurrent phases' results keyed by phase name,
	// including the result of a phase that failed.
	Phases map[string]ConcResult
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

// Run executes a full chaos run: the sequential phase, every concurrent
// phase, then the coverage gate. A nil error means: zero reference-
// model divergences, every quiesce judge passed, and failpoints fired
// on every instrumented site.
func Run(cfg Config) (*Report, error) {
	rep := &Report{Phases: map[string]ConcResult{}}
	if err := rep.runSeq(cfg); err != nil {
		return rep, err
	}
	for i := range phases {
		if err := rep.runConc(&phases[i], cfg); err != nil {
			return rep, err
		}
	}
	rep.Coverage = siteCoverage()
	if un := rep.Uncovered(); len(un) > 0 {
		return rep, fmt.Errorf("failpoint sites never fired: %v", un)
	}
	return rep, nil
}

// PhaseNames lists the chaos phases in run order, by the names RunPhase
// accepts.
func PhaseNames() []string {
	names := []string{"seq"}
	for _, p := range phases {
		names = append(names, p.name)
	}
	return names
}

// RunPhase executes a single named phase with the same seed offset and
// failpoint rules it gets inside a full Run, so a failure reproduced by
// `rcchaos -phase X` is the same failure the full run would hit. The
// coverage gate is skipped: one phase cannot fire every site.
func RunPhase(name string, cfg Config) (*Report, error) {
	rep := &Report{Phases: map[string]ConcResult{}}
	if name == "seq" {
		return rep, rep.runSeq(cfg)
	}
	for i := range phases {
		if phases[i].name == name {
			return rep, rep.runConc(&phases[i], cfg)
		}
	}
	return rep, fmt.Errorf("unknown phase %q (have %v)", name, PhaseNames())
}

// runSeq runs the sequential phase: cfg.SeqOps ops against the
// reference model with error failpoints armed.
func (rep *Report) runSeq(cfg Config) error {
	rep.SeqOps = cfg.SeqOps
	cfg.logf("phase seq: %d ops against the reference model, error failpoints armed", cfg.SeqOps)
	h := NewHarness()
	if err := RunSeq(h, RandomOps(cfg.Seed, cfg.SeqOps), SeqRules(uint64(cfg.Seed)), 100); err != nil {
		return fmt.Errorf("sequential phase: %w", err)
	}
	rep.SeqOutcomes = h.Outcomes()
	cfg.logf("phase seq: ok, outcomes %v", rep.SeqOutcomes)
	return nil
}

// runConc runs one concurrent phase into the report.
func (rep *Report) runConc(p *phase, cfg Config) error {
	cfg.logf("phase %s: %d workers x %d ops, seed %d, %s", p.name, cfg.Workers, cfg.ConcOps, cfg.Seed+p.offset, p.about)
	res, err := runConc(p, cfg)
	rep.Phases[p.name] = res
	if err != nil {
		return fmt.Errorf("%s phase: %w", p.name, err)
	}
	cfg.logf("phase %s: ok, %s", p.name, res.Summary())
	return nil
}

// siteFires returns each rcgo site's cumulative fire count.
func siteFires() map[string]uint64 {
	out := make(map[string]uint64)
	for _, st := range siteCoverage() {
		out[st.Name] = st.Fires
	}
	return out
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
