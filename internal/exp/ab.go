package exp

// One interleaved A/B harness for the Go-native runtime
// (EXPERIMENTS.md §"A/B method"). A scenario asks whether its
// treatment side does the same work faster than its baseline side, and
// runScenario answers every scenario the same way:
//
//   - Fixed work. Each run builds a fresh arena from the side's
//     constructor, plus one region shared by the side's workers, then
//     releases the workers through one gate and wall-clocks iters
//     operations split evenly between them. ns/op is wall time over
//     operations. Unlike testing.Benchmark, there are no calibration
//     runs, so a round's A and B runs stay adjacent in time and both
//     execute identical work.
//   - GC. A quiesced scenario collects before the timed window and runs
//     it with GOGC off, so collector pacing cannot masquerade as a
//     treatment effect. A live scenario leaves the collector on and
//     brackets the run with runtime.ReadMemStats: its point is the
//     collector work the treatment saves.
//   - Warmup. One unrecorded run per side at a quarter of the work pays
//     the one-time costs (code paging, heap regrowth after the previous
//     scenario) that would otherwise skew round 0.
//   - ABBA. Even rounds run the baseline first, odd rounds the
//     treatment, so a first-runner advantage cancels.
//   - Statistics. Per side, the quartiles of ns/op across rounds; for
//     the pair, the median of the per-round paired deltas (the two runs
//     of a round see the same machine state, so pairing cancels drift
//     that per-side statistics cannot) and the rounds the treatment won.

import (
	"context"
	"fmt"
	"io"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"sync"
	"time"

	"rcgo"
	"rcgo/internal/workloads"
)

// GC modes of an A/B cell.
const (
	GCQuiesced = "quiesced"
	GCLive     = "live"
)

// abBody is one worker's share of a run: iters operations against the
// run's arena, with shared the region every worker of the run sees.
type abBody func(a *rcgo.Arena, shared *rcgo.Region, iters int) error

// sideSpec is one side of a scenario.
type sideSpec struct {
	arena   func() *rcgo.Arena
	workers int
	body    abBody
}

// abScenario is one named A/B question. iters is the operation count
// of one recorded run, split evenly between the side's workers.
type abScenario struct {
	name  string
	group string
	iters int
	gc    string
	base  sideSpec
	treat sideSpec
}

// gcBracket is one live run's runtime.ReadMemStats deltas.
type gcBracket struct {
	heapBytes, pauseNs, numGC int64
}

// runSide times one run of one side.
func runSide(s sideSpec, iters int, gc string) (float64, gcBracket, error) {
	a := s.arena()
	shared := a.NewRegion()
	per := iters / s.workers
	runtime.GC()
	if gc == GCQuiesced {
		defer debug.SetGCPercent(debug.SetGCPercent(-1))
	}
	var m0, m1 runtime.MemStats
	if gc == GCLive {
		runtime.ReadMemStats(&m0)
	}
	errs := make(chan error, s.workers)
	start := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < s.workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			if err := s.body(a, shared, per); err != nil {
				errs <- err
			}
		}()
	}
	t0 := time.Now()
	close(start)
	wg.Wait()
	elapsed := time.Since(t0)
	var g gcBracket
	if gc == GCLive {
		runtime.ReadMemStats(&m1)
		g = gcBracket{
			heapBytes: int64(m1.TotalAlloc - m0.TotalAlloc),
			pauseNs:   int64(m1.PauseTotalNs - m0.PauseTotalNs),
			numGC:     int64(m1.NumGC - m0.NumGC),
		}
	}
	select {
	case err := <-errs:
		return 0, g, err
	default:
	}
	return float64(elapsed.Nanoseconds()) / float64(s.workers*per), g, nil
}

// runScenario runs one scenario: a warmup per side, then rounds ABBA
// rounds, reduced to one cell.
func runScenario(sc abScenario, rounds int) (ABCell, error) {
	sides := [2]sideSpec{sc.base, sc.treat}
	for _, s := range sides {
		if _, _, err := runSide(s, sc.iters/4, sc.gc); err != nil {
			return ABCell{}, fmt.Errorf("%s: warmup: %w", sc.name, err)
		}
	}
	var ns [2][]float64
	var gcs [2]gcBracket
	for i := 0; i < rounds; i++ {
		order := [2]int{0, 1}
		if i%2 == 1 {
			order = [2]int{1, 0}
		}
		for _, k := range order {
			v, g, err := runSide(sides[k], sc.iters, sc.gc)
			if err != nil {
				return ABCell{}, fmt.Errorf("%s: %w", sc.name, err)
			}
			ns[k] = append(ns[k], v)
			// Summed, not reduced: heap bytes and pause time are
			// volumes, and both sides run the same number of rounds.
			gcs[k].heapBytes += g.heapBytes
			gcs[k].pauseNs += g.pauseNs
			gcs[k].numGC += g.numGC
		}
	}
	c := ABCell{
		Name: sc.name, Group: sc.group, CPU: runtime.GOMAXPROCS(0),
		Rounds: rounds, Iters: sc.iters, GC: sc.gc,
	}
	c.setStats(ns[0], ns[1])
	for k, side := range []*ABSide{&c.Base, &c.Treat} {
		side.Workers = sides[k].workers
		side.HeapBytes, side.GCPauseNs, side.NumGC = gcs[k].heapBytes, gcs[k].pauseNs, gcs[k].numGC
	}
	return c, nil
}

// setStats fills the cell's statistics from per-round paired samples:
// base[i] and treat[i] are round i's two runs.
func (c *ABCell) setStats(base, treat []float64) {
	c.Base.P25, c.Base.P50, c.Base.P75 = quartiles(base)
	c.Treat.P25, c.Treat.P50, c.Treat.P75 = quartiles(treat)
	deltas := make([]float64, len(base))
	for i := range base {
		deltas[i] = 100 * (base[i] - treat[i]) / base[i]
		if treat[i] < base[i] {
			c.Wins++
		}
	}
	_, c.DeltaPct, _ = quartiles(deltas)
}

// quartiles returns the 25th, 50th and 75th percentiles of xs, linearly
// interpolated between closest ranks. xs is not modified.
func quartiles(xs []float64) (p25, p50, p75 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	at := func(q float64) float64 {
		if len(s) == 0 {
			return 0
		}
		pos := q * float64(len(s)-1)
		lo := int(pos)
		if lo == len(s)-1 {
			return s[lo]
		}
		return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
	}
	return at(0.25), at(0.5), at(0.75)
}

// abNode is the A/B object: one link for the sameregion and counted
// store bodies.
type abNode struct{ next rcgo.Ref[abNode] }

// slabBench is the slab A/B payload: pointer-free, so the slab side's
// admission gate (the pointer-safety contract's first clause) routes
// its chunks to the backing store. Six words — a realistic small record.
type slabBench struct {
	K, V    int64
	Payload [4]int64
}

// allocBatch is the region-per-request build loop: allocate into a
// private region with storesPerAlloc sameregion stores against the
// previous object, deleting the region and starting the next every
// batch allocations. A large batch isolates the per-allocation cost; a
// small one folds the region lifecycle in.
func allocBatch(storesPerAlloc, batch int) abBody {
	return func(a *rcgo.Arena, _ *rcgo.Region, iters int) error {
		r := a.NewRegion()
		var prev *rcgo.Obj[abNode]
		n := 0
		for i := 0; i < iters; i++ {
			o := rcgo.Alloc[abNode](r)
			for s := 0; s < storesPerAlloc; s++ {
				rcgo.MustSetSame(o, &o.Value.next, prev)
			}
			prev = o
			if n++; n == batch {
				prev = nil
				if err := r.Delete(); err != nil {
					return err
				}
				r = a.NewRegion()
				n = 0
			}
		}
		return r.Delete()
	}
}

// ownAllocOwned is allocBatch(1, batch) through an Owner token: owned
// allocation and SetSameOwned, with Owner.Delete at each batch end, so
// a small batch also pays Acquire's registry barrier and the release
// flush.
func ownAllocOwned(batch int) abBody {
	return func(a *rcgo.Arena, _ *rcgo.Region, iters int) error {
		own, err := a.NewRegion().TryAcquire()
		if err != nil {
			return err
		}
		var prev *rcgo.Obj[abNode]
		n := 0
		for i := 0; i < iters; i++ {
			o := rcgo.AllocOwned[abNode](own)
			if err := rcgo.SetSameOwned(own, o, &o.Value.next, prev); err != nil {
				return err
			}
			prev = o
			if n++; n == batch {
				prev = nil
				if err := own.Delete(); err != nil {
					return err
				}
				if own, err = a.NewRegion().TryAcquire(); err != nil {
					return err
				}
				n = 0
			}
		}
		return own.Delete()
	}
}

// churn is the region-lifecycle loop: every operation creates a region
// and deletes it, the traffic that funnels through the population
// counters and registry a single-shard arena shares.
func churn(a *rcgo.Arena, _ *rcgo.Region, iters int) error {
	for i := 0; i < iters; i++ {
		if err := a.NewRegion().Delete(); err != nil {
			return err
		}
	}
	return nil
}

// ownSetRefShared / ownSetRefOwned: the counted-store loop — a private
// holder stores references to two objects in a private external
// region, alternating so every store displaces the previous reference
// (one incRC and one decRC per operation on both sides). The owned side
// saves the holder-side registry lock and state re-check, not the
// target-side atomics: after the first, its stores never fill a nil
// slot, so they never take the registry lock.
func ownSetRefShared(a *rcgo.Arena, _ *rcgo.Region, iters int) error {
	tr := a.NewRegion()
	t0, t1 := rcgo.Alloc[abNode](tr), rcgo.Alloc[abNode](tr)
	hr := a.NewRegion()
	h := rcgo.Alloc[abNode](hr)
	for i := 0; i < iters; i++ {
		t := t0
		if i&1 == 1 {
			t = t1
		}
		if err := rcgo.SetRef(h, &h.Value.next, t); err != nil {
			return err
		}
	}
	if err := rcgo.SetRef(h, &h.Value.next, nil); err != nil {
		return err
	}
	if err := hr.Delete(); err != nil {
		return err
	}
	return tr.Delete()
}

func ownSetRefOwned(a *rcgo.Arena, _ *rcgo.Region, iters int) error {
	tr := a.NewRegion()
	t0, t1 := rcgo.Alloc[abNode](tr), rcgo.Alloc[abNode](tr)
	own, err := a.NewRegion().TryAcquire()
	if err != nil {
		return err
	}
	h, err := rcgo.TryAllocOwned[abNode](own)
	if err != nil {
		return err
	}
	for i := 0; i < iters; i++ {
		t := t0
		if i&1 == 1 {
			t = t1
		}
		if err := rcgo.SetRefOwned(own, h, &h.Value.next, t); err != nil {
			return err
		}
	}
	if err := rcgo.SetRefOwned(own, h, &h.Value.next, nil); err != nil {
		return err
	}
	if err := own.Delete(); err != nil {
		return err
	}
	return tr.Delete()
}

// sameStore hammers annotated sameregion stores between two objects of
// the shared region — the fast path the advisor's disarmed bound
// guards.
func sameStore(_ *rcgo.Arena, shared *rcgo.Region, iters int) error {
	h, v := rcgo.Alloc[abNode](shared), rcgo.Alloc[abNode](shared)
	for i := 0; i < iters; i++ {
		rcgo.MustSetSame(h, &h.Value.next, v)
	}
	return nil
}

// sharedRefStore alternates a counted store of one object of the shared
// region with a nil store, from a holder in a private region: every
// worker's increments land on the one shared target count.
func sharedRefStore(a *rcgo.Arena, shared *rcgo.Region, iters int) error {
	target := rcgo.Alloc[abNode](shared)
	h := rcgo.Alloc[abNode](a.NewRegion())
	for i := 0; i < iters; i++ {
		t := target
		if i&1 == 1 {
			t = nil
		}
		rcgo.MustSetRef(h, &h.Value.next, t)
	}
	return nil
}

// acquireCycle acquires and releases the shared region iters times. The
// TryAcquire form is only ever run single-worker, so it cannot lose a
// race and every error is real; the AcquireContext form parks on the
// wait queue when contended and is woken by the previous owner's
// hand-off.
func acquireCycle(blocking bool) abBody {
	ctx := context.Background()
	return func(_ *rcgo.Arena, hub *rcgo.Region, iters int) error {
		for i := 0; i < iters; i++ {
			var own *rcgo.Owner
			var err error
			if blocking {
				own, err = hub.AcquireContext(ctx)
			} else {
				own, err = hub.TryAcquire()
			}
			if err != nil {
				return err
			}
			if err := own.Release(); err != nil {
				return err
			}
		}
		return nil
	}
}

// slabBatch is the slab build loop: allocate the pointer-free payload
// into a private region, deleting it every batch allocations. With
// links, each payload follows a pointer-carrying abNode in the same
// region (GC-heap chunked on both sides), so every region allocates two
// types alternately, the way grobner interleaves terms and
// coefficients.
func slabBatch(batch int, links bool) abBody {
	return func(a *rcgo.Arena, _ *rcgo.Region, iters int) error {
		r := a.NewRegion()
		n := 0
		for i := 0; i < iters; i++ {
			if links {
				rcgo.Alloc[abNode](r)
			}
			o := rcgo.Alloc[slabBench](r)
			o.Value.K, o.Value.V = int64(i), int64(n)
			if n++; n == batch {
				if err := r.Delete(); err != nil {
					return err
				}
				r = a.NewRegion()
				n = 0
			}
		}
		return r.Delete()
	}
}

// fabricBackdrop is the live population every fabric run carries: this
// many regions, each holding one object, loading the id registry and
// population counters the way a region-per-request server would.
const fabricBackdrop = 256

// withBackdrop returns an arena constructor for the given options that
// populates the fabric backdrop.
func withBackdrop(opts ...rcgo.Option) func() *rcgo.Arena {
	return func() *rcgo.Arena {
		a := rcgo.NewArena(opts...)
		for i := 0; i < fabricBackdrop; i++ {
			rcgo.Alloc[abNode](a.NewRegion())
		}
		return a
	}
}

// arenaWith returns an arena constructor for the given options.
func arenaWith(opts ...rcgo.Option) func() *rcgo.Arena {
	return func() *rcgo.Arena { return rcgo.NewArena(opts...) }
}

// workCPUs caps the worker count a scenario's run size scales with: at
// most four 2-CPU runs' garbage, about 200 MiB, per quiesced run.
const workCPUs = 4

// abScenarios is the scenario table at cpu workers. store is the slab
// store every slab run shares, so pages freed by one run recycle into
// the next and the slab side is not charged a cold map per round that
// the baseline's warm Go heap never pays. Iteration counts size one run
// at roughly 30-300 ms on a 2-CPU machine, with the garbage a quiesced
// run piles up kept near 100 MiB. Counts scale with the worker count up
// to workCPUs workers' worth and no further, so a quiesced run's heap
// growth stays bounded on any core count.
func abScenarios(cpu int, store rcgo.BackingStore) []abScenario {
	// The fabric and hand-off questions need two shards or two
	// contenders to mean anything.
	two := max(2, cpu)
	work := func(perWorker int) int { return perWorker * min(cpu, workCPUs) }
	side := func(arena func() *rcgo.Arena, body abBody) sideSpec {
		return sideSpec{arena: arena, workers: cpu, body: body}
	}
	plain := arenaWith()
	advisor := arenaWith(rcgo.WithAdvisor())
	slabs := arenaWith(rcgo.WithBackingStore(store))
	oneShard, fabric := withBackdrop(rcgo.WithShards(1)), withBackdrop(rcgo.WithShards(two))
	q := GCQuiesced
	return []abScenario{
		// fabric: one shard vs a fabric, under the live backdrop.
		{"fabric-parallel-alloc", "fabric", work(300_000), q, side(oneShard, allocBatch(0, 8)), side(fabric, allocBatch(0, 8))},
		{"fabric-parallel-alloc-setsame", "fabric", work(300_000), q, side(oneShard, allocBatch(1, 8)), side(fabric, allocBatch(1, 8))},
		{"fabric-parallel-delete", "fabric", work(60_000), q, side(oneShard, churn), side(fabric, churn)},
		// advisor: disarmed vs armed from birth.
		{"parallel-setsame", "advisor", work(1_000_000), q, side(plain, sameStore), side(advisor, sameStore)},
		{"parallel-setref", "advisor", work(600_000), q, side(plain, sharedRefStore), side(advisor, sharedRefStore)},
		// own: the shared path vs the same work through an Owner token.
		{"own-alloc-setsame", "own", work(800_000), q, side(plain, allocBatch(1, 8192)), side(plain, ownAllocOwned(8192))},
		{"own-build-delete", "own", work(300_000), q, side(plain, allocBatch(1, 8)), side(plain, ownAllocOwned(8))},
		{"own-setref", "own", work(1_500_000), q, side(plain, ownSetRefShared), side(plain, ownSetRefOwned)},
		// contend: the uncontended TryAcquire cycle vs AcquireContext,
		// alone and under a hand-off storm.
		{"acquire-fastpath", "contend", 200_000, q,
			sideSpec{plain, 1, acquireCycle(false)}, sideSpec{plain, 1, acquireCycle(true)}},
		{"contend-handoff", "contend", 120_000, q,
			sideSpec{plain, 1, acquireCycle(false)}, sideSpec{plain, two, acquireCycle(true)}},
		// slab: GC-heap chunks vs the slab store; the last cell leaves the
		// collector live to measure what the others quiesce away.
		{"slab-alloc", "slab", work(400_000), q, side(plain, slabBatch(1<<20, false)), side(slabs, slabBatch(1<<20, false))},
		{"slab-build-delete", "slab", work(600_000), q, side(plain, slabBatch(64, false)), side(slabs, slabBatch(64, false))},
		{"slab-interleaved", "slab", work(300_000), q, side(plain, slabBatch(512, true)), side(slabs, slabBatch(512, true))},
		{"slab-gc-pressure", "slab", work(1_500_000), GCLive, side(plain, slabBatch(64, false)), side(slabs, slabBatch(64, false))},
	}
}

// selectAB picks the scenarios a -ab spec names: "all", or a comma
// list of scenario names and group names, kept in table order.
func selectAB(table []abScenario, spec string) ([]abScenario, error) {
	want := make(map[string]bool)
	for _, s := range strings.Split(spec, ",") {
		if s = strings.TrimSpace(s); s != "" {
			want[s] = true
		}
	}
	if len(want) == 0 {
		return nil, fmt.Errorf("-ab: empty scenario list")
	}
	known := map[string]bool{"all": true}
	var out []abScenario
	for _, sc := range table {
		if want["all"] || want[sc.name] || want[sc.group] {
			out = append(out, sc)
		}
		known[sc.name], known[sc.group] = true, true
	}
	for s := range want {
		if !known[s] {
			return nil, fmt.Errorf("-ab: no scenario or group %q", s)
		}
	}
	return out, nil
}

// RunAB runs the A/B scenarios spec selects ("all", or a comma list of
// scenario and group names) over rounds ABBA rounds each, with as many
// workers as GOMAXPROCS.
func RunAB(spec string, rounds int) ([]ABCell, error) {
	if rounds <= 0 {
		return nil, fmt.Errorf("-ab: %d rounds, want > 0", rounds)
	}
	store := rcgo.NewSlabStore()
	defer store.Close()
	scs, err := selectAB(abScenarios(runtime.GOMAXPROCS(0), store), spec)
	if err != nil {
		return nil, err
	}
	var out []ABCell
	for _, sc := range scs {
		c, err := runScenario(sc, rounds)
		if err != nil {
			return nil, err
		}
		out = append(out, c)
	}
	return out, nil
}

// PrintAB renders A/B cells as a table: per side the median ns/op and
// its IQR as a percent of the median, then the paired-median delta and
// the rounds the treatment won, with the live-GC bracket under the
// cells that carry one.
func PrintAB(w io.Writer, cells []ABCell) {
	fmt.Fprintf(w, "%-30s %-8s %4s %6s %11s %6s %11s %6s %8s %5s\n",
		"scenario", "group", "cpu", "rounds", "base ns/op", "iqr", "treat ns/op", "iqr", "delta", "wins")
	for _, c := range cells {
		fmt.Fprintf(w, "%-30s %-8s %4d %6d %11.1f %5.1f%% %11.1f %5.1f%% %+7.1f%% %2d/%-2d\n",
			c.Name, c.Group, c.CPU, c.Rounds, c.Base.P50, c.Base.iqrPct(), c.Treat.P50, c.Treat.iqrPct(),
			c.DeltaPct, c.Wins, c.Rounds)
		if c.GC == GCLive {
			fmt.Fprintf(w, "%-30s base: %d MiB allocated, %d GCs, %.2f ms paused; treat: %d MiB, %d GCs, %.2f ms\n",
				"", c.Base.HeapBytes>>20, c.Base.NumGC, float64(c.Base.GCPauseNs)/1e6,
				c.Treat.HeapBytes>>20, c.Treat.NumGC, float64(c.Treat.GCPauseNs)/1e6)
		}
	}
}

// workloadStoresPerAlloc runs the named workload once through the
// compiler pipeline and distills its store-per-allocation ratio
// (annotated + unchecked stores over allocations, rounded), so the
// advisor replay carries the workload's real op mix rather than an
// invented one.
func workloadStoresPerAlloc(name string, scale int) (int, error) {
	w := workloads.ByName(name)
	if w == nil {
		return 0, fmt.Errorf("no workload %q", name)
	}
	c, err := compileAll(w, scale, rcgo.ModeInf)
	if err != nil {
		return 0, err
	}
	res, err := rcgo.Run(c.prog[rcgo.ModeInf], rcgo.RunConfig{Output: io.Discard})
	if err != nil {
		return 0, fmt.Errorf("%s: %w", name, err)
	}
	st := res.Region
	if st.Allocs == 0 {
		return 0, fmt.Errorf("%s: no allocations recorded", name)
	}
	stores := st.SameChecks + st.TradChecks + st.ParentChecks + st.UncheckedPtrs
	return int((stores + st.Allocs/2) / st.Allocs), nil
}
