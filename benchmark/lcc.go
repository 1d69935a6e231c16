package main

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"rcgo"
)

// lcc-handoff: the paper's lcc program as a two-stage pipeline over
// owned regions. Per batch, the producer acquires a fresh region and
// writes lcc's per-region mix through the owned path: allocations, a
// sameregion list, and counted stores into a shared symbol region. It
// hands the Owner token to the consumer through a channel; the consumer
// walks the list, appends to it and deletes the region through the
// token. Every lccInternEvery-th batch both stages also take a shared
// intern region with AcquireContext, so they sometimes queue on it.

const (
	// lccQueue is the hand-off channel's capacity: the pipeline depth
	// of a compiler front end feeding its back end a few functions ahead.
	lccQueue       = 4
	lccSyms        = 512 // objects in the symbol region
	lccAppend      = 2   // nodes the consumer appends to each batch
	lccInternEvery = 32
)

type lccNode struct {
	val  int64
	next rcgo.Ref[lccNode] // sameregion: the batch's list
	peer rcgo.Ref[lccNode] // sameregion
	sym  rcgo.Ref[lccSym]  // counted, into the symbol region
}

type lccSym struct{ val int64 }

type lccIntern struct{ uses int64 }

// lccBatch is what the producer hands over: the token, the list and
// the values the consumer checks it against.
type lccBatch struct {
	id         int64
	o          *rcgo.Owner
	head, tail *rcgo.Obj[lccNode]
	want       int64
	start      int64 // when the producer began the batch
	sent       int64
	sampled    bool
	tracing    bool
}

type lcc struct {
	a        *rcgo.Arena
	p        *profile
	seed     uint64
	base     baseline
	symR     *rcgo.Region
	syms     []*rcgo.Obj[lccSym]
	internR  *rcgo.Region
	intern   *rcgo.Obj[lccIntern]
	interned atomic.Int64 // intern acquisitions by either stage
	next     atomic.Int64
	nodes    []*rcgo.Obj[lccNode] // producer scratch
}

func buildLcc(p *profile, seed uint64) instance {
	l := &lcc{a: rcgo.NewArena(), p: p, seed: seed}
	l.base = snapshot(l.a)
	rg := newRNG(seed, -1)
	l.symR = l.a.NewRegion()
	for i := 0; i < lccSyms; i++ {
		s := rcgo.Alloc[lccSym](l.symR)
		s.Value.val = rg.value()
		l.syms = append(l.syms, s)
	}
	l.internR = l.a.NewRegion()
	l.intern = rcgo.Alloc[lccIntern](l.internR)
	return l
}

func (l *lcc) arena() *rcgo.Arena { return l.a }

// load runs the producer on ws[0] and the consumer on ws[1]. An op is
// one batch; its latency runs from the producer's start to the
// consumer's delete, so it includes the batch's wait in the channel.
// Each stage runs its own probe between batches, so a window's speed is
// both CPUs'.
// The stages poll the channel rather than block on it: a stage parked
// on it would be woken through the operating system on every batch, and
// on a virtual machine that wake-up costs more than a batch's work and
// varies from run to run by more than the benchmark's bounds.
func (l *lcc) load(p *phase, ws []*worker) {
	ch := make(chan *lccBatch, lccQueue)
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		defer close(ch)
		w := ws[0]
		for {
			if !p.claim() {
				return
			}
			id := l.next.Add(1)
			t0 := now()
			b := &lccBatch{id: id, start: t0, sampled: p.sampled(t0, id), tracing: p.tracing(t0)}
			w.begin(id, spOp, b.sampled, t0)
			err := l.produce(w, b)
			t1 := now()
			w.end(b.tracing, t0, t1)
			if err != nil {
				w.fail(fmt.Errorf("batch %d: %w", id, err))
				continue
			}
			b.sent = now()
			for sent := false; !sent; {
				select {
				case ch <- b:
					sent = true
				default:
					runtime.Gosched()
				}
			}
			w.probe(p, now())
		}
	}()
	go func() {
		defer wg.Done()
		w := ws[1]
		for {
			var b *lccBatch
			select {
			case x, ok := <-ch:
				if !ok {
					return
				}
				b = x
			default:
				runtime.Gosched()
				continue
			}
			t0 := now()
			w.begin(b.id, spOpCont, b.sampled, t0)
			w.wait(spHandoff, b.sent, t0)
			err := l.consume(w, b)
			t1 := now()
			// Filed under the window the batch started in, like the
			// producer's half.
			w.end(b.tracing, t0, t1)
			if err != nil {
				w.fail(fmt.Errorf("batch %d: %w", b.id, err))
				continue
			}
			w.complete(p, b.start, t1, t1-b.start)
			w.probe(p, t1)
		}
	}()
	wg.Wait()
}

func (l *lcc) produce(w *worker, b *lccBatch) error {
	rg := newRNG(l.seed, b.id)
	s := w.sp(spNewRegion)
	r := l.a.NewRegion()
	w.done(s)
	s = w.sp(spAcquire)
	o, err := r.TryAcquire()
	w.done(s)
	if err != nil {
		return errors.Join(err, r.Delete())
	}
	b.o = o
	err = l.fill(w, b, &rg)
	if err == nil && b.id%lccInternEvery == 0 {
		err = l.useIntern(w)
	}
	if err != nil {
		// Nothing was handed over: the region is the producer's to drop.
		return errors.Join(err, o.Delete())
	}
	return nil
}

// fill writes the batch's allocations and stores through its token.
func (l *lcc) fill(w *worker, b *lccBatch, rg *rng) error {
	p, o := l.p, b.o
	n := max(rg.count(p.allocs), 2)
	nodes := l.nodes[:0]
	for k := 0; k < n; k++ {
		s := w.sp(spAllocOwned)
		x, err := rcgo.TryAllocOwned[lccNode](o)
		w.done(s)
		if err != nil {
			return err
		}
		x.Value.val = rg.value()
		nodes = append(nodes, x)
	}
	l.nodes = nodes
	same := rg.count(p.same)
	listLen := min(same, n-1) + 1
	for _, x := range nodes[:listLen] {
		b.want += x.Value.val
	}
	b.head, b.tail = nodes[0], nodes[listLen-1]
	for k := 0; k < same; k++ {
		h, t := nodes[k%n], nodes[(k+1)%n]
		slot := &h.Value.next
		if k >= n-1 {
			h, t = nodes[rg.intn(n)], nodes[rg.intn(n)]
			slot = &h.Value.peer
		}
		s := w.sp(spStoreOwned)
		err := rcgo.SetSameOwned(o, h, slot, t)
		w.done(s)
		if err != nil {
			return err
		}
	}
	for k, refs := 0, rg.count(p.refs); k < refs; k++ {
		h := nodes[rg.intn(n)]
		s := w.sp(spStoreOwned)
		err := rcgo.SetRefOwned(o, h, &h.Value.sym, l.syms[rg.intn(lccSyms)])
		w.done(s)
		if err != nil {
			return err
		}
	}
	clear(nodes)
	return nil
}

func (l *lcc) consume(w *worker, b *lccBatch) error {
	o := b.o
	var got int64
	var last *rcgo.Obj[lccNode]
	for x := b.head; x != nil; {
		s := w.sp(spRead)
		v := x.Use()
		got += v.val
		last, x = x, v.next.Get()
		w.done(s)
	}
	var err error
	if got != b.want || last != b.tail {
		err = fmt.Errorf("list walk sums to %d, want %d", got, b.want)
	}
	for k := 0; err == nil && k < lccAppend; k++ {
		s := w.sp(spAllocOwned)
		x, aerr := rcgo.TryAllocOwned[lccNode](o)
		w.done(s)
		if aerr != nil {
			err = aerr
			break
		}
		s = w.sp(spStoreOwned)
		err = rcgo.SetSameOwned(o, last, &last.Value.next, x)
		w.done(s)
		last = x
	}
	if err == nil && b.id%lccInternEvery == 0 {
		err = l.useIntern(w)
	}
	s := w.sp(spOwnerDelete)
	derr := o.Delete()
	w.done(s)
	return errors.Join(err, derr)
}

// useIntern takes the intern region, waiting for the other stage if it
// holds it, and counts one use under ownership.
func (l *lcc) useIntern(w *worker) error {
	s := w.sp(spAcquireCtx)
	o, err := l.internR.AcquireContext(context.Background())
	w.done(s)
	if err != nil {
		return err
	}
	l.intern.Use().uses++
	l.interned.Add(1)
	s = w.sp(spRelease)
	err = o.Release()
	w.done(s)
	return err
}

func (l *lcc) teardown() []string {
	var bad []string
	if got, want := l.intern.Use().uses, l.interned.Load(); got != want {
		bad = append(bad, fmt.Sprintf("intern region counted %d uses, the stages made %d", got, want))
	}
	for _, r := range []*rcgo.Region{l.symR, l.internR} {
		if err := r.Delete(); err != nil {
			bad = append(bad, "delete a shared region: "+err.Error())
		}
	}
	l.syms, l.nodes, l.intern = nil, nil, nil
	return append(bad, l.base.check(l.a)...)
}
