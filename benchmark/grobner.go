package main

import (
	"fmt"
	"sync/atomic"

	"rcgo"
)

// grobner-churn: the paper's grobner program as a closed loop of region
// lifetimes on an arena with off-heap slabs. Each op is one region with
// grobner's per-region mix: about 1,040 allocations, 880 of them terms
// linked into a list by sameregion stores, the rest pointer-free
// coefficients, which the slab store backs. The op walks what it built,
// checks the sums and deletes the region. Almost every call lands in the
// alloc cache and the backing store; there are no counted stores.

type grobTerm struct {
	val  int64
	next rcgo.Ref[grobTerm] // sameregion
}

// grobCoef is pointer-free, so the arena carves it from slab pages.
type grobCoef struct{ c [4]int64 }

type grobner struct {
	a     *rcgo.Arena
	p     *profile
	seed  uint64
	base  baseline
	next  atomic.Int64
	coefs []*rcgo.Obj[grobCoef] // the load goroutine's scratch
}

func buildGrobner(p *profile, seed uint64) instance {
	g := &grobner{a: rcgo.NewArena(rcgo.WithOffHeapSlabs()), p: p, seed: seed}
	g.base = snapshot(g.a)
	return g
}

func (g *grobner) arena() *rcgo.Arena { return g.a }

func (g *grobner) load(p *phase, ws []*worker) { closedLoop(p, ws, &g.next, g.op) }

func (g *grobner) op(w *worker, id int64) error {
	rg := newRNG(g.seed, id)
	s := w.sp(spNewRegion)
	r := g.a.NewRegion()
	w.done(s)

	n := rg.count(g.p.allocs)
	terms := max(min(rg.count(g.p.same), n), 1)
	coefs := n - terms
	var want int64
	var head, prev *rcgo.Obj[grobTerm]
	cs := g.coefs[:0]
	for k := 0; k < terms; k++ {
		s = w.sp(spAlloc)
		t, err := rcgo.TryAlloc[grobTerm](r)
		w.done(s)
		if err != nil {
			return err
		}
		t.Value.val = rg.value()
		want += t.Value.val
		if prev == nil {
			head = t
		} else {
			s = w.sp(spSetSame)
			err = rcgo.SetSame(prev, &prev.Value.next, t)
			w.done(s)
			if err != nil {
				return err
			}
		}
		prev = t
		// Interleave the coefficients with the terms evenly.
		for len(cs) < (k+1)*coefs/terms {
			s = w.sp(spAlloc)
			c, err := rcgo.TryAlloc[grobCoef](r)
			w.done(s)
			if err != nil {
				return err
			}
			v := rg.value()
			c.Value.c[len(cs)%4] = v
			want += v
			cs = append(cs, c)
		}
	}
	// Terminate the list explicitly, as the C program does.
	s = w.sp(spSetSame)
	err := rcgo.SetSame(prev, &prev.Value.next, nil)
	w.done(s)
	if err != nil {
		return err
	}

	var got int64
	for t := head; t != nil; {
		s = w.sp(spRead)
		v := t.Use()
		got += v.val
		t = v.next.Get()
		w.done(s)
	}
	for i, c := range cs {
		s = w.sp(spRead)
		got += c.Use().c[i%4]
		w.done(s)
	}
	if got != want {
		return fmt.Errorf("region walk sums to %d, want %d", got, want)
	}
	clear(cs)
	g.coefs = cs
	s = w.sp(spDelete)
	err = r.Delete()
	w.done(s)
	return err
}

func (g *grobner) teardown() []string { return g.base.check(g.a) }
