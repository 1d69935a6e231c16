package main

import (
	"sort"
	"syscall"
	"unsafe"
)

// The traced run's span recorder. Spans are taken only around the
// benchmark's own calls into the runtime's public functions: the
// runtime itself is not instrumented. Each load goroutine owns one
// tracer; a sampled op opens a root span, every timed call inside it
// appends a child span, and the spans stay in the tracer's fixed buffer
// until it nears capacity between two ops or the run ends, when they are
// folded into per-kind histograms and per-layer sums.

// spanKind classifies a span by the call it times.
type spanKind uint8

const (
	spOp             spanKind = iota // root of a sampled op: all the harness does for it
	spOpCont                         // root of a sampled op's second half on another goroutine
	spNewRegion                      // Arena.NewRegion, Region.TryNewSubregion
	spDelete                         // Region.Delete
	spDeleteDeferred                 // Region.DeleteDeferred
	spAlloc                          // TryAlloc
	spAllocOwned                     // TryAllocOwned
	spSetRef                         // SetRef
	spSetSame                        // SetSame
	spSetTrad                        // SetTrad
	spSetParent                      // SetParent
	spPin                            // TryPin, and calling its unpin
	spStoreOwned                     // SetRefOwned, SetSameOwned
	spRead                           // Ref.Get and Obj.Use
	spAcquire                        // Region.TryAcquire
	spAcquireCtx                     // Region.AcquireContext, waiting included
	spRelease                        // Owner.Release
	spOwnerDelete                    // Owner.Delete
	spHandoff                        // an Owner's time in the hand-off channel: a wait, outside every op's busy time
	spCal                            // empty span, for calibration
	numKinds
)

// layer is the runtime layer a span's call lands in.
type layer uint8

const (
	layerNone layer = iota // roots, waits and calibration spans
	layerLifecycle
	layerAlloc
	layerStore
	layerRead
	layerOwner
	numLayers
)

var kindLayer = [numKinds]layer{
	spNewRegion:      layerLifecycle,
	spDelete:         layerLifecycle,
	spDeleteDeferred: layerLifecycle,
	spAlloc:          layerAlloc,
	spAllocOwned:     layerAlloc,
	spSetRef:         layerStore,
	spSetSame:        layerStore,
	spSetTrad:        layerStore,
	spSetParent:      layerStore,
	spPin:            layerStore,
	spStoreOwned:     layerStore,
	spRead:           layerRead,
	spAcquire:        layerOwner,
	spAcquireCtx:     layerOwner,
	spRelease:        layerOwner,
	spOwnerDelete:    layerOwner,
}

// span is one recorded interval. parent indexes the tracer's buffer
// (-1 for roots and waits); op is the id of the op the span belongs to,
// shared by the spans an op leaves on different goroutines.
type span struct {
	op         int64
	start, end int64
	parent     int32
	kind       spanKind
}

const (
	// spanBufCap holds the spans of thousands of ops, so the open loop
	// is seldom paused to fold them.
	spanBufCap = 1 << 18
	// spanHeadroom is the room kept for one op's spans: the largest op
	// (grobner-churn's region) records about 3,000.
	spanHeadroom = 8192
)

// calibration is the measured cost of an empty span: inside is the part
// that lands between its two clock reads (and so inside every measured
// span), whole is the full cost of opening and closing one, the rest of
// which lands in the enclosing span. Both in ns.
type calibration struct {
	inside, whole float64
}

type tracer struct {
	buf  []span
	root int32 // the current sampled op's root span, -1 when not sampling
	op   int64
	agg  traceAgg
}

// traceAgg is the folded form of a tracer's spans: raw durations, which
// the calibration, measured around the timed phase, turns into self
// times when the run reports.
type traceAgg struct {
	hist     [numKinds]hist     // raw durations of child spans and waits
	layerRaw [numLayers]float64 // summed raw durations of child spans, by layer
	layerN   [numLayers]int64   // child spans, by layer
	rootRaw  float64            // summed raw durations of roots
	children int64              // child spans
	roots    int64              // roots of either kind
	ops      int64              // sampled ops (spOp roots)
}

func newTracer() *tracer {
	return &tracer{buf: offHeap[span](spanBufCap)[:0], root: -1}
}

// offHeap returns n zero Ts in memory mapped outside the Go heap, so
// that the traced run's span buffers, 8 MB per goroutine, do not change
// how often the collector runs and so the gc layer's numbers. T must
// hold no pointers. The mapping lives as long as the process; where
// mapping fails, the buffers come from the heap.
func offHeap[T any](n int) []T {
	var t T
	b, err := syscall.Mmap(-1, 0, n*int(unsafe.Sizeof(t)), syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		return make([]T, n)
	}
	return unsafe.Slice((*T)(unsafe.Pointer(&b[0])), n)
}

// open starts a root span of the given kind at t.
func (tr *tracer) open(op int64, kind spanKind, t int64) {
	tr.buf = append(tr.buf, span{op: op, start: t, parent: -1, kind: kind})
	tr.root = int32(len(tr.buf) - 1)
	tr.op = op
}

// fold moves every finished span into agg and empties the buffer. It
// runs between ops, so every root in the buffer is closed.
func (tr *tracer) fold() {
	a := &tr.agg
	for i := range tr.buf {
		s := &tr.buf[i]
		d := s.end - s.start
		switch {
		case s.kind == spOp || s.kind == spOpCont:
			a.rootRaw += float64(d)
			a.roots++
			if s.kind == spOp {
				a.ops++
			}
		case s.parent < 0: // a wait
			a.hist[s.kind].add(d)
		default:
			a.hist[s.kind].add(d)
			l := kindLayer[s.kind]
			a.layerRaw[l] += float64(d)
			a.layerN[l]++
			a.children++
		}
	}
	tr.buf = tr.buf[:0]
	tr.root = -1
}

func (a *traceAgg) merge(b *traceAgg) {
	for k := range a.hist {
		a.hist[k].merge(&b.hist[k])
	}
	for l := range a.layerRaw {
		a.layerRaw[l] += b.layerRaw[l]
		a.layerN[l] += b.layerN[l]
	}
	a.rootRaw += b.rootRaw
	a.children += b.children
	a.roots += b.roots
	a.ops += b.ops
}

// self is layer l's self time: its spans' time less the in-span cost of
// each. A call shorter than that cost counts negative, so that short
// calls read low as often as high.
func (a *traceAgg) self(l layer, c calibration) float64 {
	return a.layerRaw[l] - float64(a.layerN[l])*c.inside
}

// bench is the harness's self time: the roots' time less their child
// spans and less the cost of every span outside its clock reads.
func (a *traceAgg) bench(c calibration) float64 {
	var raw float64
	for _, r := range a.layerRaw {
		raw += r
	}
	return a.rootRaw - raw - float64(a.children)*(c.whole-c.inside) - float64(a.roots)*c.whole
}

// opTime is the sampled ops' time less the whole cost of their spans.
// The layers' self times and the harness's add up to it when every child
// span's kind lands in a layer.
func (a *traceAgg) opTime(c calibration) float64 {
	return a.rootRaw - float64(a.children+a.roots)*c.whole
}

// callNs is the q-quantile of a call kind's duration less the in-span
// cost, 0 for a kind the run never called.
func (a *traceAgg) callNs(k spanKind, q float64, c calibration) float64 {
	if a.hist[k].n == 0 {
		return 0
	}
	return max(a.hist[k].quantile(q)-c.inside, 0)
}

// calibrate measures the cost of an empty span on this machine: the
// median over several rounds of many empty spans each.
func calibrate() calibration {
	const rounds, n = 9, 1 << 14
	var insides, wholes []float64
	ds := make([]int64, 0, n)
	w := &worker{tr: newTracer()}
	for r := 0; r < rounds; r++ {
		w.tr.buf = w.tr.buf[:0]
		w.tr.open(0, spOp, now())
		t0 := now()
		for i := 0; i < n; i++ {
			w.done(w.sp(spCal))
		}
		wholes = append(wholes, float64(now()-t0)/n)
		ds = ds[:0]
		for _, s := range w.tr.buf[1:] {
			ds = append(ds, s.end-s.start)
		}
		sort.Slice(ds, func(i, j int) bool { return ds[i] < ds[j] })
		insides = append(insides, float64(ds[len(ds)/2]))
	}
	return calibration{inside: median(insides), whole: median(wholes)}
}

// lower keeps the lower of two calibrations' costs. A disturbance of the
// machine only ever makes a calibration read high, so of one taken
// before the timed phase and one after, the lower is the likelier right.
func (c calibration) lower(o calibration) calibration {
	return calibration{inside: min(c.inside, o.inside), whole: min(c.whole, o.whole)}
}
