package main

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"rcgo"
)

// apache-requests: the paper's apache program as a server taking
// requests from independent users, so an open loop. Every request is a
// region with apache's per-region op mix: allocations, sameregion list
// links, counted stores (one into the current cache epoch, the other
// external ones into a long-lived server region, the rest local), pins,
// and for a share of requests a subrequest subregion pointing up through
// a parentptr. Every apacheEpochLen requests the cache epoch rotates:
// the old epoch is deferred-deleted and reclaims when the last request
// holding a counted reference into it is deleted.

const (
	apacheRate     = 25000 // requests per second
	apacheEpochLen = 5000  // requests per cache epoch
	apacheEntries  = 64    // objects in each cache epoch
	apacheConfs    = 256   // objects in the server region
)

type apReq struct {
	val   int64
	next  rcgo.Ref[apReq]   // sameregion: the request's list
	peer  rcgo.Ref[apReq]   // sameregion
	link  rcgo.Ref[apReq]   // counted, inside the request region
	conf  rcgo.Ref[apConf]  // counted, into the server region
	entry rcgo.Ref[apEntry] // counted, into the cache epoch
	up    rcgo.Ref[apReq]   // parentptr: subrequest to request
}

type apConf struct{ val int64 }

type apEntry struct{ val int64 }

type apEpoch struct {
	r       *rcgo.Region
	entries []*rcgo.Obj[apEntry]
}

type apache struct {
	a     *rcgo.Arena
	p     *profile
	seed  uint64
	base  baseline
	srv   *rcgo.Region
	confs []*rcgo.Obj[apConf]

	rotateMu sync.Mutex
	epoch    atomic.Pointer[apEpoch]

	next     atomic.Int64 // request ids, across phases
	cached   atomic.Int64
	uncached atomic.Int64
	nodes    []*rcgo.Obj[apReq] // the load goroutine's scratch
}

func buildApache(p *profile, seed uint64) instance {
	a := &apache{a: rcgo.NewArena(), p: p, seed: seed}
	a.base = snapshot(a.a)
	a.srv = a.a.NewRegion()
	rg := newRNG(seed, -1)
	for i := 0; i < apacheConfs; i++ {
		c := rcgo.Alloc[apConf](a.srv)
		c.Value.val = rg.value()
		a.confs = append(a.confs, c)
	}
	a.epoch.Store(a.newEpoch(&worker{}, &rg))
	return a
}

func (a *apache) arena() *rcgo.Arena { return a.a }

func (a *apache) newEpoch(w *worker, rg *rng) *apEpoch {
	s := w.sp(spNewRegion)
	ep := &apEpoch{r: a.a.NewRegion()}
	w.done(s)
	for i := 0; i < apacheEntries; i++ {
		s = w.sp(spAlloc)
		e := rcgo.Alloc[apEntry](ep.r)
		w.done(s)
		e.Value.val = rg.value()
		ep.entries = append(ep.entries, e)
	}
	return ep
}

// rotate starts a new cache epoch and defer-deletes the old one.
func (a *apache) rotate(w *worker, rg *rng) {
	a.rotateMu.Lock()
	defer a.rotateMu.Unlock()
	old := a.epoch.Swap(a.newEpoch(w, rg))
	s := w.sp(spDeleteDeferred)
	old.r.DeleteDeferred()
	w.done(s)
}

// load serves the phase's requests on the load goroutine. A warm-up
// serves its limit's worth back to back, so that set-up time is all
// work. The timed phase serves the rate's worth until its open loop
// ends, and then as many as it can until the deadline. In the open loop
// the goroutine waits for a request's due time by spinning, and a
// request's latency runs from its due time, so a stall delays every
// request queued behind it. The probe runs only in the saturated
// windows, where it delays no request.
func (a *apache) load(p *phase, ws []*worker) {
	w := ws[0]
	if p.limit > 0 {
		for k := int64(0); k < p.limit; k++ {
			a.serve(p, w, now())
		}
		return
	}
	total := int64(float64(p.openEnd()-p.start) * apacheRate / 1e9)
	for k := int64(0); k < total; k++ {
		due := p.start + int64(float64(k)*1e9/apacheRate)
		for now() < due {
			runtime.Gosched()
		}
		w.late.add(now() - due)
		a.serve(p, w, due)
	}
	for now() < p.openEnd() {
		runtime.Gosched()
	}
	for t := now(); t < p.deadline; t = now() {
		w.probe(p, a.serve(p, w, t))
	}
}

// serve serves one request that was due at due and returns when it
// completed.
func (a *apache) serve(p *phase, w *worker, due int64) int64 {
	t0 := now()
	id := a.next.Add(1)
	rotates := id%apacheEpochLen == 0
	// Rotations are rare, so a traced window samples every one.
	w.begin(id, spOp, p.sampled(t0, id) || (rotates && p.tracing(t0)), t0)
	err := a.request(w, id, rotates)
	t1 := now()
	w.end(p.tracing(t0), t0, t1)
	if err != nil {
		w.fail(fmt.Errorf("request %d: %w", id, err))
		return t1
	}
	w.complete(p, due, t1, t1-due)
	return t1
}

func (a *apache) request(w *worker, id int64, rotates bool) error {
	p := a.p
	rg := newRNG(a.seed, id)
	if rotates {
		a.rotate(w, &rg)
	}
	s := w.sp(spNewRegion)
	r := a.a.NewRegion()
	w.done(s)

	sub := rg.float() < p.parent
	n := max(rg.count(p.allocs), 2)
	if sub {
		n-- // the subrequest's record is one of the request's allocations
	}
	nodes := a.nodes[:0]
	for k := 0; k < n; k++ {
		s = w.sp(spAlloc)
		o, err := rcgo.TryAlloc[apReq](r)
		w.done(s)
		if err != nil {
			return err
		}
		o.Value.val = rg.value()
		nodes = append(nodes, o)
	}
	a.nodes = nodes

	// Sameregion stores: first the list through next, then peer links.
	same := rg.count(p.same)
	listLen := min(same, n-1) + 1
	var want int64
	for _, o := range nodes[:listLen] {
		want += o.Value.val
	}
	for k := 0; k < same; k++ {
		h, t := nodes[k%n], nodes[(k+1)%n]
		slot := &h.Value.next
		if k >= n-1 {
			h, t = nodes[rg.intn(n)], nodes[rg.intn(n)]
			slot = &h.Value.peer
		}
		s = w.sp(spSetSame)
		err := rcgo.SetSame(h, slot, t)
		w.done(s)
		if err != nil {
			return err
		}
	}

	// Counted stores: the first goes into the cache epoch, the other
	// external ones into the server region, the rest stay local.
	refs := max(rg.count(p.refs), 1)
	cross := min(max(rg.count(p.cross), 1), refs)
	for k := 0; k < refs; k++ {
		h := nodes[k%n]
		var err error
		switch {
		case k == 0:
			ep := a.epoch.Load()
			e := ep.entries[rg.intn(len(ep.entries))]
			s = w.sp(spSetRef)
			err = rcgo.SetRef(h, &h.Value.entry, e)
			w.done(s)
			if errors.Is(err, rcgo.ErrRegionDeleted) {
				// The epoch retired between the load and the store: the
				// request is served uncached.
				w.rejected++
				a.uncached.Add(1)
				err = nil
			} else if err == nil {
				a.cached.Add(1)
			}
		case k < cross:
			c := a.confs[rg.intn(len(a.confs))]
			s = w.sp(spSetRef)
			err = rcgo.SetRef(h, &h.Value.conf, c)
			w.done(s)
		default:
			t := nodes[rg.intn(n)]
			s = w.sp(spSetRef)
			err = rcgo.SetRef(h, &h.Value.link, t)
			w.done(s)
		}
		if err != nil {
			return err
		}
	}

	if sub {
		if err := a.subrequest(w, r, nodes[0], &rg); err != nil {
			return err
		}
	}

	for k, pins := 0, rg.count(p.pins); k < pins; k++ {
		o := nodes[rg.intn(n)]
		s = w.sp(spPin)
		unpin, err := rcgo.TryPin(o)
		w.done(s)
		if err != nil {
			return err
		}
		s = w.sp(spRead)
		o.Use()
		w.done(s)
		s = w.sp(spPin)
		unpin()
		w.done(s)
	}

	var got int64
	for o := nodes[0]; o != nil; {
		s = w.sp(spRead)
		v := o.Use()
		got += v.val
		o = v.next.Get()
		w.done(s)
	}
	if got != want {
		return fmt.Errorf("list walk sums to %d, want %d", got, want)
	}
	clear(nodes) // let the collector have the request's objects
	s = w.sp(spDelete)
	err := r.Delete()
	w.done(s)
	return err
}

func (a *apache) subrequest(w *worker, r *rcgo.Region, head *rcgo.Obj[apReq], rg *rng) error {
	s := w.sp(spNewRegion)
	sr, err := r.TryNewSubregion()
	w.done(s)
	if err != nil {
		return err
	}
	s = w.sp(spAlloc)
	so, err := rcgo.TryAlloc[apReq](sr)
	w.done(s)
	if err != nil {
		return err
	}
	so.Value.val = rg.value()
	s = w.sp(spSetParent)
	err = rcgo.SetParent(so, &so.Value.up, head)
	w.done(s)
	if err != nil {
		return err
	}
	s = w.sp(spRead)
	up := so.Use().up.Get()
	w.done(s)
	if up != head {
		return errors.New("subrequest uplink does not lead to the request")
	}
	s = w.sp(spDelete)
	err = sr.Delete()
	w.done(s)
	return err
}

func (a *apache) teardown() []string {
	var bad []string
	if sent, c, u := a.next.Load(), a.cached.Load(), a.uncached.Load(); c+u != sent {
		bad = append(bad, fmt.Sprintf("%d cached + %d uncached requests, %d sent", c, u, sent))
	}
	if err := a.epoch.Load().r.Delete(); err != nil {
		bad = append(bad, "delete the cache epoch: "+err.Error())
	}
	if err := a.srv.Delete(); err != nil {
		bad = append(bad, "delete the server region: "+err.Error())
	}
	a.confs, a.nodes = nil, nil
	a.epoch.Store(nil)
	return append(bad, a.base.check(a.a)...)
}
