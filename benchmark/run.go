package main

import (
	"errors"
	"fmt"
	"math"
	"runtime"

	"rcgo"
)

var errNoOps = errors.New("the timed phase completed no op")

// run sets the workload up cfg.setups times, keeps the last set-up,
// drives its timed phase, tears it down and reports its metrics: the
// end-to-end ones, or in the traced run the per-layer ones.
func run(wl *workload, cfg config) (*report, error) {
	rep := &report{workload: wl.name}
	pr := newProbe()
	var inst instance
	var prof *profile
	var setups, rawSetups []float64
	swept := 0
	for i := 0; i < cfg.setups; i++ {
		step := pr.medianStepNs(setupProbes)
		t0 := now()
		p, err := profileProgram(wl.program)
		if err != nil {
			return nil, err
		}
		in := wl.build(p, cfg.seed)
		ws := newWorkers(wl.goroutines, false)
		warm := &phase{start: now(), limit: wl.warmOps, seed: cfg.seed}
		in.load(warm, ws)
		runtime.GC()
		d := float64(now()-t0) / 1e9
		step = (step + pr.medianStepNs(setupProbes)) / 2
		rawSetups = append(rawSetups, d)
		setups = append(setups, d*refStepNs/step)
		rep.tally(ws)
		rep.oracles(2, p.bad) // the program's output on both backends
		if i == cfg.setups-1 {
			inst, prof = in, p
			break
		}
		swept += tearDown(rep, in)
		closeStore(rep, in.arena())
	}

	var cal calibration
	if cfg.trace {
		cal = calibrate()
	}
	m := &measured{ws: newWorkers(wl.goroutines, cfg.trace), g0: readGC()}
	m.ws[0].pr = pr
	for _, w := range m.ws[1:] {
		w.pr = newProbe()
	}
	smp := startSampler(inst.arena())
	m.p = timedPhase(cfg.seconds, cfg.trace, cfg.seed)
	inst.load(m.p, m.ws)
	smp.finish()
	m.smp = smp
	m.g1 = readGC()
	rep.tally(m.ws)
	if cfg.trace {
		cal = cal.lower(calibrate())
	}

	m.swept = swept + tearDown(rep, inst)
	runtime.GC()
	runtime.GC()
	st, _ := inst.arena().SlabStats()
	m.retained = liveHeap() + float64(st.InUseBytes)
	closeStore(rep, inst.arena())

	m.wins = make([]window, m.p.nwin)
	var steps []float64
	for _, w := range m.ws {
		m.ops += w.ops
		m.rejected += w.rejected
		for k, wk := range w.wins {
			m.wins[k].lat.merge(&wk.lat)
			m.wins[k].done += wk.done
			m.wins[k].steps = append(m.wins[k].steps, wk.steps...)
			m.wins[k].probeNs += wk.probeNs
			steps = append(steps, wk.steps...)
		}
		m.late.merge(&w.late)
	}
	if m.ops == 0 {
		return nil, errNoOps
	}
	m.step = refStepNs // a run too short for a probe is not scaled
	if len(steps) > 0 {
		m.step = median(steps)
	}
	if !cfg.trace {
		endToEnd(rep, wl, m, setups, rawSetups)
		return rep, nil
	}
	return rep, perLayer(rep, wl, m, prof, cal)
}

// setupProbes is how many probes are timed before and after each
// set-up; the set-up's time is scaled by the mean of the two medians of
// their time per step.
const setupProbes = 5

// tearDown reclaims the arena's stuck zombies, deletes every workload
// region, checks the end-of-run oracles and returns the zombies it
// reclaimed. A deferred-deleted region whose last reference drops while
// DeleteDeferred is still deciding is never drained by the runtime: the
// drop sees the region dying, not yet a zombie, and skips the drain. A
// server recovers such regions with Arena.SweepZombies, the runtime's
// recovery path for lost drains, and so does the benchmark, which reports
// how many it found rather than failing the run on the runtime's audit.
func tearDown(rep *report, in instance) int {
	n := in.arena().SweepZombies()
	rep.oracles(1, in.teardown())
	return n
}

// measured is what a timed phase leaves for the report.
type measured struct {
	p             *phase
	ws            []*worker
	wins          []window // the workers' windows, merged
	late          hist
	ops, rejected int64
	smp           *sampler
	g0, g1        gcSnap
	retained      float64 // bytes
	swept         int     // zombie regions SweepZombies reclaimed, set-ups included
	step          float64 // the run's median probe time per step, ns
}

func (m *measured) perOp(x float64) float64 { return x / float64(m.ops) }

func (m *measured) allocated() float64 { return float64(m.g1.ms.TotalAlloc - m.g0.ms.TotalAlloc) }

func (m *measured) cycles() float64 { return float64(m.g1.ms.NumGC - m.g0.ms.NumGC) }

// endToEnd reports the untraced run's metrics. Throughput and latency
// percentiles are medians over the windows of each window's value,
// scaled by the window's probes to the reference core (see probe.go);
// the unscaled values are printed beside them. A window's throughput
// leaves out the time its probes took. On apache-requests the gated
// metrics come from the saturated windows, so throughput is the highest
// rate the runtime sustains; its open-loop windows give diagnostics.
func endToEnd(rep *report, wl *workload, m *measured, setups, rawSetups []float64) {
	wins, open := m.wins, []window(nil)
	if wl.open {
		open, wins = m.wins[:m.p.openWins], m.wins[m.p.openWins:]
	}
	var all hist
	for k := range wins {
		all.merge(&wins[k].lat)
	}
	// A window's speed: its probes' time per step over the reference's.
	speed := func(w *window) float64 { return w.stepNs(m.step) / refStepNs }
	rate := func(w *window) float64 { return float64(w.done) * 1e9 / float64(m.p.window-w.probeNs) }
	pct := func(wins []window, q float64, scaled bool) float64 {
		return windowMedian(wins, func(w *window) float64 {
			v := w.lat.quantile(q) / 1e3
			if scaled {
				v /= speed(w)
			}
			return v
		})
	}
	rep.gate("setup_s", median(setups), "s")
	rep.gate("throughput_ops_s", windowMedian(wins, func(w *window) float64 { return rate(w) * speed(w) }), "ops/s")
	rep.gate("latency_p50_us", pct(wins, 0.50, true), "us")
	rep.gate("latency_p90_us", pct(wins, 0.90, true), "us")
	rep.diag("latency_p99_us", pct(wins, 0.99, true), "us")
	rep.diag("latency_p999_us", pct(wins, 0.999, true), "us")
	rep.diag("latency_samples", float64(all.n), "count")
	rep.diag("latency_windows", float64(len(wins)), "count")
	rep.diag("raw.setup_s", median(rawSetups), "s")
	rep.diag("raw.throughput_ops_s", windowMedian(wins, rate), "ops/s")
	rep.diag("raw.latency_p50_us", pct(wins, 0.50, false), "us")
	rep.diag("raw.latency_p90_us", pct(wins, 0.90, false), "us")
	rep.diag("probe.step_ns", m.step, "ns")
	if wl.open {
		// Unscaled: a request's latency here runs from its due time, so
		// it holds its wait in the queue as well as its service.
		rep.diag("open.latency_p50_us", pct(open, 0.50, false), "us")
		rep.diag("open.latency_p90_us", pct(open, 0.90, false), "us")
		rep.diag("open.latency_p99_us", pct(open, 0.99, false), "us")
		rep.diag("gen.late_us_p50", m.late.quantile(0.50)/1e3, "us")
		rep.diag("gen.late_us_p99", m.late.quantile(0.99)/1e3, "us")
	}
	rep.diag("error_rate", float64(rep.failed)/float64(max(rep.attempted, 1)), "failed/attempted")
	rep.diag("gc_alloc_b_per_op", m.perOp(m.allocated()), "B")
	rep.diag("gc_cycles_per_kop", m.perOp(m.cycles()*1000), "cycles/kop")
	rep.gate("live_mb_median", median(m.smp.live)/1e6, "MB")
	rep.gate("heap_retained_mb", m.retained/1e6, "MB")
	rep.diag("rss_peak_mb", m.smp.rss/1e6, "MB")
	rep.diag("lifecycle.zombies_swept", float64(m.swept), "count")
}

// perLayer reports the traced run's metrics, and checks that the layers'
// self fractions and the harness's add up to the sampled ops' time.
// cal, the lower of the calibrations taken before and after the timed
// phase, turns the spans' raw durations into self times.
func perLayer(rep *report, wl *workload, m *measured, prof *profile, cal calibration) error {
	var agg traceAgg
	var svc [3]hist
	for _, w := range m.ws {
		w.tr.fold()
		agg.merge(&w.tr.agg)
		for i := range svc {
			svc[i].merge(&w.svc[i])
		}
	}
	h := &agg.hist
	opTime := agg.opTime(cal)
	frac := func(l layer) float64 { return ratio(agg.self(l, cal), opTime) }
	ns := func(k spanKind, q float64) float64 { return agg.callNs(k, q, cal) }
	calls := func(ks ...spanKind) float64 {
		var n int64
		for _, k := range ks {
			n += h[k].n
		}
		return ratio(float64(n), float64(agg.ops))
	}
	rep.gate("lifecycle.new_region_ns_p50", ns(spNewRegion, 0.5), "ns")
	rep.gate("lifecycle.new_region_ns_p99", ns(spNewRegion, 0.99), "ns")
	rep.gate("lifecycle.delete_ns_p50", ns(spDelete, 0.5), "ns")
	rep.gate("lifecycle.delete_ns_p99", ns(spDelete, 0.99), "ns")
	rep.gate("lifecycle.delete_deferred_ns_p50", ns(spDeleteDeferred, 0.5), "ns")
	rep.gate("lifecycle.self_frac", frac(layerLifecycle), "fraction")
	rep.gate("lifecycle.calls_per_op", calls(spNewRegion, spDelete, spDeleteDeferred), "calls/op")

	rep.gate("alloc.ns_p50", ns(spAlloc, 0.5), "ns")
	rep.gate("alloc.ns_p99", ns(spAlloc, 0.99), "ns")
	rep.gate("alloc.owned_ns_p50", ns(spAllocOwned, 0.5), "ns")
	rep.gate("alloc.self_frac", frac(layerAlloc), "fraction")
	rep.gate("alloc.calls_per_op", calls(spAlloc, spAllocOwned), "calls/op")
	rep.gate("backing.slab_in_use_mb_median", median(m.smp.slab)/1e6, "MB")
	rep.gate("backing.slab_mapped_mb_peak", m.smp.mapped/1e6, "MB")

	rep.gate("store.ref_ns_p50", ns(spSetRef, 0.5), "ns")
	rep.gate("store.ref_ns_p99", ns(spSetRef, 0.99), "ns")
	rep.gate("store.same_ns_p50", ns(spSetSame, 0.5), "ns")
	rep.gate("store.trad_ns_p50", ns(spSetTrad, 0.5), "ns")
	rep.gate("store.parent_ns_p50", ns(spSetParent, 0.5), "ns")
	rep.gate("store.owned_ns_p50", ns(spStoreOwned, 0.5), "ns")
	rep.gate("store.rejected_per_op", m.perOp(float64(m.rejected)), "count/op")
	rep.gate("store.self_frac", frac(layerStore), "fraction")
	rep.gate("store.calls_per_op", calls(spSetRef, spSetSame, spSetTrad, spSetParent, spPin, spStoreOwned), "calls/op")
	rep.gate("read.ns_p50", ns(spRead, 0.5), "ns")
	rep.gate("read.self_frac", frac(layerRead), "fraction")

	rep.gate("owner.acquire_ns_p50", ns(spAcquire, 0.5), "ns")
	rep.gate("owner.acquire_wait_ns_p99", ns(spAcquireCtx, 0.99), "ns")
	rep.gate("owner.delete_ns_p50", ns(spOwnerDelete, 0.5), "ns")
	rep.gate("owner.delete_ns_p99", ns(spOwnerDelete, 0.99), "ns")
	rep.gate("owner.handoff_wait_ns_p50", h[spHandoff].quantile(0.5), "ns")
	rep.gate("owner.self_frac", frac(layerOwner), "fraction")

	rep.gate("gc.pause_us_p99", pauseQuantile(m.g0, m.g1, 0.99)*1e6, "us")
	rep.gate("gc.pause_ms_total", float64(m.g1.ms.PauseTotalNs-m.g0.ms.PauseTotalNs)/1e6, "ms")
	rep.gate("gc.cpu_frac", ratio(m.g1.gcCPU-m.g0.gcCPU, m.g1.totalCPU-m.g0.totalCPU), "fraction")
	rep.gate("gc.rss_peak_mb", m.smp.rss/1e6, "MB")
	rep.diag("gc.alloc_b_per_op", m.perOp(m.allocated()), "B")
	rep.diag("gc.cycles_per_kop", m.perOp(m.cycles()*1000), "cycles/kop")
	rep.diag("lifecycle.zombies_swept", float64(m.swept), "count")

	rep.gate("gen.late_us_p50", m.late.quantile(0.5)/1e3, "us")
	rep.gate("gen.late_us_p99", m.late.quantile(0.99)/1e3, "us")
	rep.gate("gen.bench_self_frac", ratio(agg.bench(cal), opTime), "fraction")

	parse, check, infer, comp, err := stageTimes(wl.program)
	if err != nil {
		return err
	}
	rep.gate("pipeline.parse_ms", parse.Seconds()*1e3, "ms")
	rep.gate("pipeline.check_ms", check.Seconds()*1e3, "ms")
	rep.gate("pipeline.infer_ms", infer.Seconds()*1e3, "ms")
	rep.gate("pipeline.compile_ms", comp.Seconds()*1e3, "ms")
	rep.gate("pipeline.vm_run_ms", prof.vmRun.Seconds()*1e3, "ms")
	rep.gate("pipeline.vm_instructions", float64(prof.instructions), "count")

	traced := svc[1]
	traced.merge(&svc[2])
	rep.gate("trace.overhead_pct", (ratio(traced.mean(), svc[0].mean())-1)*100, "%")
	rep.diag("trace.sampled_ops", float64(agg.ops), "count")
	rep.diag("trace.span_inside_ns", cal.inside, "ns")
	rep.diag("trace.span_whole_ns", cal.whole, "ns")

	// The reported layers' self fractions and the harness's add up to 1,
	// to rounding, unless a span kind is missing from the layer table.
	sum := agg.bench(cal)
	for l := layerLifecycle; l < numLayers; l++ {
		sum += agg.self(l, cal)
	}
	sum = ratio(sum, opTime)
	rep.diag("trace.frac_sum", sum, "fraction")
	// Not a check: the sampled ops' calibrated time against the service
	// time of the unsampled ops in the same windows, which shows how much
	// more tracing slows an op than the calibrated cost of its spans.
	rep.diag("trace.untraced_ratio", ratio(opTime/float64(max(agg.roots, 1)), svc[1].mean()), "fraction")
	var bad []string
	if agg.ops == 0 || math.Abs(sum-1) > 1e-6 {
		bad = append(bad, fmt.Sprintf("self fractions sum to %.9f of %d sampled ops, want 1", sum, agg.ops))
	}
	rep.oracles(1, bad)
	return nil
}

// closeStore unmaps a torn-down arena's slab store, if it has one.
func closeStore(rep *report, a *rcgo.Arena) {
	var bad []string
	if err := a.CloseBackingStore(); err != nil {
		bad = append(bad, "close the slab store: "+err.Error())
	}
	rep.oracles(1, bad)
}

// windowMedian is the median of f over the windows.
func windowMedian(wins []window, f func(*window) float64) float64 {
	v := make([]float64, len(wins))
	for k := range wins {
		v[k] = f(&wins[k])
	}
	return median(v)
}

// ratio is a/b, or 0 when b is 0, which happens for a layer or window
// the run never exercised.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
