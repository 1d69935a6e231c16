package main

import (
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"rcgo"
)

// procs is GOMAXPROCS, the CPU count of the machine the baselines were
// recorded on. One load goroutine drives each workload but lcc-handoff,
// whose two pipeline stages take one each, so on the other workloads
// the second CPU is left to the collector and the sampler rather than
// shared with them.
const procs = 2

var clockBase = time.Now()

// now is the benchmark's clock: monotonic nanoseconds since start.
func now() int64 { return int64(time.Since(clockBase)) }

// traceWindow is the length of the traced run's alternating untraced
// and traced windows (shorter in a run too short for four of them):
// alternating, rather than one half each, keeps a workload whose state
// drifts over the run (a growing heap) from biasing the tracing-overhead
// estimate.
const traceWindow = int64(250 * time.Millisecond)

// sampleEvery is the share of ops a traced window samples: 1 in 16.
const sampleEvery = 16

// phase is one stretch of load: a warmup or the timed phase.
type phase struct {
	start    int64
	deadline int64 // closed loops stop claiming ops here
	limit    int64 // ops to claim, 0 for no limit
	claimed  atomic.Int64
	trace    bool
	seed     uint64
	// The timed phase is cut into windows: an op's latency counts in
	// the window it started in, its completion in the window it
	// completed in. The reported throughput and latency percentiles are
	// medians over the windows, which keeps a stall of the machine in
	// one window from moving them.
	window int64 // ns, 0 for a single window
	nwin   int
	// The open loop keeps to its rate for the first openWins windows and
	// runs saturated for the rest, where the goroutine starts its next
	// op as soon as the last returns: that measures the highest rate the
	// runtime sustains, which at a fixed rate below it cannot show.
	openWins int
	traceW   int64 // length of a traced or untraced window, ns
}

// statWindow is the target length of a statistics window; a phase has
// at least four, so that its open loop has a window of each kind.
const statWindow = int64(time.Second)

func timedPhase(seconds float64, trace bool, seed uint64) *phase {
	p := &phase{trace: trace, seed: seed, nwin: max(int(math.Round(seconds*1e9/float64(statWindow))), 4)}
	p.openWins = p.nwin / 4
	p.start = now()
	p.deadline = p.start + int64(seconds*1e9)
	p.window = (p.deadline - p.start) / int64(p.nwin)
	p.traceW = min(traceWindow, (p.deadline-p.start)/4)
	return p
}

// openEnd is when the open loop stops keeping to its rate.
func (p *phase) openEnd() int64 { return p.start + int64(p.openWins)*p.window }

// claim reserves the next op of a closed-loop phase, reporting false
// once the phase is over.
func (p *phase) claim() bool {
	if p.limit > 0 {
		return p.claimed.Add(1) <= p.limit
	}
	return now() < p.deadline
}

// windowOf is the window of an op started at t.
func (p *phase) windowOf(t int64) int {
	if p.window == 0 {
		return 0
	}
	return min(max(int((t-p.start)/p.window), 0), p.nwin-1)
}

// tracing reports whether t falls in a traced window.
func (p *phase) tracing(t int64) bool {
	return p.trace && ((t-p.start)/p.traceW)%2 == 1
}

// sampled reports whether op id, started at t, records spans.
func (p *phase) sampled(t, id int64) bool {
	return p.tracing(t) && mix(p.seed^uint64(id))%sampleEvery == 0
}

// worker is the state of one load goroutine.
type worker struct {
	id       int
	wins     []*window
	late     hist    // open loop only: how late the generator started each op, ns
	svc      [3]hist // service time of ops in untraced windows, unsampled ops in traced windows, and sampled ops, ns
	ops      int64   // completed ops
	failed   int64
	rejected int64 // expected rejections (a counted store into a retired epoch)
	firstErr error
	tr       *tracer // nil outside the traced run
	pr       *probe  // nil outside the timed phase
	probeAt  int64   // when the next probe is due
}

// newWorkers makes the state of n load goroutines; in the traced run
// they record spans.
func newWorkers(n int, traced bool) []*worker {
	ws := make([]*worker, n)
	for i := range ws {
		ws[i] = &worker{id: i}
		if traced {
			ws[i].tr = newTracer()
		}
	}
	return ws
}

// window is a worker's record of one statistics window.
type window struct {
	lat     hist      // latency of the ops started in the window, ns
	done    int64     // ops completed in the window
	steps   []float64 // the probes' times per step, ns
	probeNs int64     // time spent in probes
}

// stepNs is the window's median probe time per step, or dflt for a
// window without a probe.
func (w *window) stepNs(dflt float64) float64 {
	if len(w.steps) == 0 {
		return dflt
	}
	return median(w.steps)
}

func (w *worker) win(k int) *window {
	for len(w.wins) <= k {
		w.wins = append(w.wins, new(window))
	}
	return w.wins[k]
}

// complete records an op of p that started (or was due) at t0,
// completed at t1 and took the given latency.
func (w *worker) complete(p *phase, t0, t1, latency int64) {
	w.win(p.windowOf(t0)).lat.add(latency)
	if k := p.windowOf(t1); t1 < p.deadline || p.window == 0 {
		w.win(k).done++
	}
	w.ops++
}

// probe runs the reference probe between two ops, at t, if one is due,
// and files it under t's window with the time it took.
func (w *worker) probe(p *phase, t int64) {
	if w.pr == nil || t < w.probeAt {
		return
	}
	step := w.pr.stepNs()
	t1 := now()
	win := w.win(p.windowOf(t))
	win.steps = append(win.steps, step)
	win.probeNs += t1 - t
	w.probeAt = t1 + probeEvery
}

func (w *worker) fail(err error) {
	w.failed++
	if w.firstErr == nil {
		w.firstErr = err
	}
}

// begin opens op id at t; a sampled op gets a root span of kind k.
func (w *worker) begin(id int64, k spanKind, sampled bool, t int64) {
	if w.tr != nil && sampled {
		w.tr.open(id, k, t)
	}
}

// end closes the op begun at t0 and files its service time under the
// untraced windows, the traced windows' unsampled ops or the sampled
// ops. A span buffer short of room for the next op is folded here,
// after the op's clock has stopped.
func (w *worker) end(traced bool, t0, t1 int64) {
	tr := w.tr
	i := 0
	switch {
	case tr != nil && tr.root >= 0:
		i = 2
	case traced:
		i = 1
	}
	w.svc[i].add(t1 - t0)
	if i < 2 {
		return
	}
	tr.buf[tr.root].end = t1
	tr.root = -1
	if len(tr.buf) > spanBufCap-spanHeadroom {
		tr.fold()
	}
}

// sp opens a child span of the current sampled op; -1 when not sampling.
func (w *worker) sp(k spanKind) int32 {
	tr := w.tr
	if tr == nil || tr.root < 0 {
		return -1
	}
	tr.buf = append(tr.buf, span{op: tr.op, kind: k, parent: tr.root, start: now()})
	return int32(len(tr.buf) - 1)
}

// done closes a span opened by sp.
func (w *worker) done(i int32) {
	if i >= 0 {
		w.tr.buf[i].end = now()
	}
}

// wait records a wait of the current sampled op that lies outside its
// busy time, such as a hand-off through a channel.
func (w *worker) wait(k spanKind, start, end int64) {
	if tr := w.tr; tr != nil && tr.root >= 0 {
		tr.buf = append(tr.buf, span{op: tr.op, kind: k, parent: -1, start: start, end: end})
	}
}

// closedLoop runs op on every worker, each starting its next op as soon
// as the last one returns, until the phase ends. next numbers the ops
// across phases.
func closedLoop(p *phase, ws []*worker, next *atomic.Int64, op func(*worker, int64) error) {
	var wg sync.WaitGroup
	for _, w := range ws {
		wg.Add(1)
		go func(w *worker) {
			defer wg.Done()
			for {
				if !p.claim() {
					return
				}
				id := next.Add(1)
				t0 := now()
				w.begin(id, spOp, p.sampled(t0, id), t0)
				err := op(w, id)
				t1 := now()
				w.end(p.tracing(t0), t0, t1)
				if err != nil {
					w.fail(fmt.Errorf("op %d: %w", id, err))
					continue
				}
				w.complete(p, t0, t1, t1-t0)
				w.probe(p, t1)
			}
		}(w)
	}
	wg.Wait()
}

// instance is one built workload.
type instance interface {
	// load drives the phase on the workers and returns once every
	// goroutine it started has stopped.
	load(p *phase, ws []*worker)
	// teardown deletes every workload region and checks the end-of-run
	// oracles, returning one message per failed check.
	teardown() []string
	arena() *rcgo.Arena
}

// workload is one benchmark workload.
type workload struct {
	name       string
	program    string // the paper program whose op mix the workload replays
	open       bool   // opens with an open loop, whose windows only diagnostics use
	goroutines int    // load goroutines
	warmOps    int64
	build      func(p *profile, seed uint64) instance
}

// baseline is an arena's population before a workload builds on it.
type baseline struct{ objects, regions int64 }

func snapshot(a *rcgo.Arena) baseline {
	return baseline{objects: a.LiveObjects(), regions: a.LiveRegions()}
}

// check returns the end-of-run oracle failures of a torn-down arena:
// the audit must be clean and the population back to its baseline.
func (b baseline) check(a *rcgo.Arena) []string {
	var bad []string
	if rep := a.Audit(); !rep.OK {
		bad = append(bad, rep.String())
	}
	if got := a.LiveObjects(); got != b.objects {
		bad = append(bad, fmt.Sprintf("live objects %d after teardown, %d before the run", got, b.objects))
	}
	if got := a.LiveRegions(); got != b.regions {
		bad = append(bad, fmt.Sprintf("live regions %d after teardown, %d before the run", got, b.regions))
	}
	if n := a.DeferredRegions(); n != 0 {
		bad = append(bad, fmt.Sprintf("%d deferred regions never reclaimed", n))
	}
	if n := a.OwnedRegions(); n != 0 {
		bad = append(bad, fmt.Sprintf("%d regions still owned", n))
	}
	return bad
}

// samplePeriod is how often the sampler reads the live heap. The live
// heap changes at every collection, tens of times a second on
// apache-requests, and swings from under 1 MB to over 10 MB between
// collections there, so a median needs a sample of most of them.
const samplePeriod = 10 * time.Millisecond

// sampler reads the live heap and the resident set every samplePeriod
// while load runs.
type sampler struct {
	a      *rcgo.Arena
	stop   chan struct{}
	done   chan struct{}
	live   []float64 // Go live heap plus slab bytes in use
	slab   []float64 // slab bytes in use
	mapped float64   // peak slab bytes mapped
	rss    float64   // peak resident set, bytes
}

func startSampler(a *rcgo.Arena) *sampler {
	s := &sampler{a: a, stop: make(chan struct{}), done: make(chan struct{})}
	s.take()
	go func() {
		defer close(s.done)
		t := time.NewTicker(samplePeriod)
		defer t.Stop()
		for {
			select {
			case <-s.stop:
				return
			case <-t.C:
				s.take()
			}
		}
	}()
	return s
}

func (s *sampler) take() {
	st, _ := s.a.SlabStats()
	s.live = append(s.live, liveHeap()+float64(st.InUseBytes))
	s.slab = append(s.slab, float64(st.InUseBytes))
	s.mapped = max(s.mapped, float64(st.MappedBytes))
	s.rss = max(s.rss, residentSet())
}

func (s *sampler) finish() {
	close(s.stop)
	<-s.done
}

func liveHeap() float64 {
	m := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(m)
	return float64(m[0].Value.Uint64())
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n := len(s); n%2 == 0 {
		return (s[n/2-1] + s[n/2]) / 2
	}
	return s[len(s)/2]
}

// gcSnap is the collector's cumulative counters at one instant.
type gcSnap struct {
	ms               runtime.MemStats
	gcCPU, totalCPU  float64
	pauseCounts      []uint64
	pauseBucketEdges []float64
}

func readGC() gcSnap {
	var g gcSnap
	runtime.ReadMemStats(&g.ms)
	m := []metrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
		{Name: "/sched/pauses/total/gc:seconds"},
	}
	metrics.Read(m)
	g.gcCPU = m[0].Value.Float64()
	g.totalCPU = m[1].Value.Float64()
	h := m[2].Value.Float64Histogram()
	g.pauseCounts = append([]uint64(nil), h.Counts...)
	g.pauseBucketEdges = h.Buckets
	return g
}

// pauseQuantile is the q-quantile of the stop-the-world GC pauses
// between two snapshots, in seconds, interpolated inside its bucket.
func pauseQuantile(a, b gcSnap, q float64) float64 {
	var n uint64
	d := make([]uint64, len(b.pauseCounts))
	for i := range d {
		d[i] = b.pauseCounts[i] - a.pauseCounts[i]
		n += d[i]
	}
	if n == 0 {
		return 0
	}
	rank := q * float64(n)
	var cum float64
	for i, c := range d {
		if c == 0 {
			continue
		}
		if cum+float64(c) >= rank {
			lo, hi := max(b.pauseBucketEdges[i], 0), b.pauseBucketEdges[i+1]
			if math.IsInf(hi, 1) {
				return lo
			}
			return lo + (hi-lo)*(rank-cum)/float64(c)
		}
		cum += float64(c)
	}
	return 0
}

// mix is the splitmix64 finaliser.
func mix(z uint64) uint64 {
	z = (z ^ z>>30) * 0xBF58476D1CE4E5B9
	z = (z ^ z>>27) * 0x94D049BB133111EB
	return z ^ z>>31
}

// rng is a splitmix64 stream. Every op draws from its own stream, keyed
// by the seed and the op's id, so an op's inputs do not depend on which
// goroutine runs it or when.
type rng uint64

func newRNG(seed uint64, id int64) rng { return rng(mix(seed ^ mix(uint64(id)))) }

func (r *rng) next() uint64 {
	*r += 0x9E3779B97F4A7C15
	return mix(uint64(*r))
}

func (r *rng) intn(n int) int { return int(r.next() % uint64(n)) }

func (r *rng) float() float64 { return float64(r.next()>>11) / (1 << 53) }

// value draws an object payload small enough that sums never overflow.
func (r *rng) value() int64 { return int64(r.next() >> 44) }

// count draws an integer whose mean is mean: its floor, plus one with
// the fractional part's probability.
func (r *rng) count(mean float64) int {
	n := int(mean)
	if r.float() < mean-float64(n) {
		n++
	}
	return n
}

// residentSet is the process's resident set in bytes, from
// /proc/self/statm; 0 where that file does not exist.
func residentSet() float64 {
	b, err := os.ReadFile("/proc/self/statm")
	if err != nil {
		return 0
	}
	f := strings.Fields(string(b))
	if len(f) < 2 {
		return 0
	}
	pages, err := strconv.ParseFloat(f[1], 64)
	if err != nil {
		return 0
	}
	return pages * float64(os.Getpagesize())
}
