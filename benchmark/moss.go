package main

import (
	"fmt"
	"math"
	"slices"
	"sync/atomic"

	"rcgo"
)

// moss-stores: the paper's moss program's long-lived regions under a
// closed loop of slot operations. Setup builds moss's regions and
// objects; each op is mossSlotOps slot operations on random objects of
// the hot regions: half are reads (Get and Use), the rest stores split
// between traditional, sameregion and counted stores into another hot
// region, with the traditional:sameregion ratio of moss's profile.
// Nothing is allocated or deleted while timed. A shadow of every slot is
// kept, and every read is checked against it.
//
// The hot regions are mossHot of them, drawn afresh every mossPhaseOps
// ops, as moss works through one document at a time, so that over a run
// every region is used. Ops drawn over all 108,000 objects at once
// would wait on a cache miss and a page walk at almost every slot, and
// measure the machine's memory, which other guests share, more than the
// store path.

const (
	mossSlotOps   = 64
	mossReadShare = 0.50
	mossRefShare  = 0.10
	mossTrads     = 256  // objects in the traditional region
	mossHot       = 4    // regions an op works on
	mossPhaseOps  = 8192 // ops before the hot regions change
)

type mossObj struct {
	val  int64
	next rcgo.Ref[mossObj]  // sameregion
	trad rcgo.Ref[mossTrad] // traditional
	ext  rcgo.Ref[mossObj]  // counted, into another region
}

type mossTrad struct{ val int64 }

type moss struct {
	a       *rcgo.Arena
	seed    uint64
	base    baseline
	regions []*rcgo.Region
	per     int // objects per region
	objs    []*rcgo.Obj[mossObj]
	trads   []*rcgo.Obj[mossTrad]
	tradCut float64 // op-kind thresholds on a uniform draw
	sameCut float64
	next    atomic.Int64
	shNext  []int32 // shadow of each object's slots: target indices
	shTrad  []int32
	shExt   []int32
}

func buildMoss(p *profile, seed uint64) instance {
	m := &moss{a: rcgo.NewArena(), seed: seed}
	rg := newRNG(seed, -1)
	for i := 0; i < mossTrads; i++ {
		t := rcgo.Alloc[mossTrad](m.a.Traditional())
		t.Value.val = rg.value()
		m.trads = append(m.trads, t)
	}
	// The traditional region's objects are immortal, so the baseline
	// comes after them.
	m.base = snapshot(m.a)

	nreg := int(p.regions)
	m.per = int(math.Round(float64(p.objects) / float64(nreg)))
	storeShare := 1 - mossReadShare - mossRefShare
	tradFrac := p.trad / (p.trad + p.same)
	m.tradCut = mossReadShare + storeShare*tradFrac
	m.sameCut = mossReadShare + storeShare

	total := nreg * m.per
	m.objs = make([]*rcgo.Obj[mossObj], total)
	m.shNext = make([]int32, total)
	m.shTrad = make([]int32, total)
	m.shExt = make([]int32, total)
	for ri := 0; ri < nreg; ri++ {
		r := m.a.NewRegion()
		m.regions = append(m.regions, r)
		for k := 0; k < m.per; k++ {
			o := rcgo.Alloc[mossObj](r)
			o.Value.val = m.value(ri*m.per + k)
			m.objs[ri*m.per+k] = o
		}
	}
	// Each region's objects form a ring through next; every object has
	// a traditional target and a counted reference into another region.
	for j, o := range m.objs {
		ri := j / m.per
		nx := ri*m.per + (j+1)%m.per
		t := rg.intn(mossTrads)
		x := m.otherRegion(j, &rg)
		rcgo.MustSetSame(o, &o.Value.next, m.objs[nx])
		rcgo.MustSetTrad(o, &o.Value.trad, m.trads[t])
		rcgo.MustSetRef(o, &o.Value.ext, m.objs[x])
		m.shNext[j], m.shTrad[j], m.shExt[j] = int32(nx), int32(t), int32(x)
	}
	return m
}

func (m *moss) arena() *rcgo.Arena { return m.a }

// value is object j's payload, which never changes.
func (m *moss) value(j int) int64 { return int64(mix(m.seed^uint64(j)) >> 44) }

// otherRegion draws an object outside object j's region.
func (m *moss) otherRegion(j int, rg *rng) int {
	nreg := len(m.regions)
	ri := (j/m.per + 1 + rg.intn(nreg-1)) % nreg
	return ri*m.per + rg.intn(m.per)
}

func (m *moss) load(p *phase, ws []*worker) { closedLoop(p, ws, &m.next, m.op) }

// hot returns the regions the ops of a phase work on: mossHot distinct
// regions drawn from the seed and the phase.
func (m *moss) hot(phase int64) [mossHot]int {
	rg := newRNG(m.seed, -2-phase) // apart from the ops' ids and the build's -1
	var h [mossHot]int
	for n := 0; n < mossHot; {
		if r := rg.intn(len(m.regions)); !slices.Contains(h[:n], r) {
			h[n] = r
			n++
		}
	}
	return h
}

func (m *moss) op(w *worker, id int64) error {
	hot := m.hot(id / mossPhaseOps)
	rg := newRNG(m.seed, id)
	var got, want int64
	for i := 0; i < mossSlotOps; i++ {
		h := rg.intn(mossHot)
		j := hot[h]*m.per + rg.intn(m.per)
		o := m.objs[j]
		u := rg.float()
		switch {
		case u < mossReadShare:
			s := w.sp(spRead)
			v := o.Use()
			val, nx, tr := v.val, v.next.Get(), v.trad.Get()
			w.done(s)
			got += val
			want += m.value(j)
			if nx != m.objs[m.shNext[j]] || tr != m.trads[m.shTrad[j]] {
				return fmt.Errorf("object %d: slots disagree with their shadow", j)
			}
		case u < m.tradCut:
			t := rg.intn(mossTrads)
			s := w.sp(spSetTrad)
			err := rcgo.SetTrad(o, &o.Value.trad, m.trads[t])
			w.done(s)
			if err != nil {
				return err
			}
			m.shTrad[j] = int32(t)
		case u < m.sameCut:
			nx := j/m.per*m.per + rg.intn(m.per)
			s := w.sp(spSetSame)
			err := rcgo.SetSame(o, &o.Value.next, m.objs[nx])
			w.done(s)
			if err != nil {
				return err
			}
			m.shNext[j] = int32(nx)
		default:
			x := hot[(h+1+rg.intn(mossHot-1))%mossHot]*m.per + rg.intn(m.per)
			s := w.sp(spSetRef)
			err := rcgo.SetRef(o, &o.Value.ext, m.objs[x])
			w.done(s)
			if err != nil {
				return err
			}
			m.shExt[j] = int32(x)
		}
	}
	if got != want {
		return fmt.Errorf("reads sum to %d, want %d", got, want)
	}
	return nil
}

func (m *moss) teardown() []string {
	var bad []string
	for j, o := range m.objs {
		if o.Value.ext.Get() != m.objs[m.shExt[j]] {
			bad = append(bad, fmt.Sprintf("object %d: counted slot disagrees with its shadow", j))
			break
		}
	}
	// Counted references run between the regions in every direction:
	// clear them all before the first delete.
	for _, o := range m.objs {
		if err := rcgo.SetRef(o, &o.Value.ext, nil); err != nil {
			bad = append(bad, "clear a counted slot: "+err.Error())
			break
		}
	}
	for _, r := range m.regions {
		if err := r.Delete(); err != nil {
			bad = append(bad, "delete a moss region: "+err.Error())
		}
	}
	m.objs, m.regions, m.shNext, m.shTrad, m.shExt = nil, nil, nil, nil, nil
	return append(bad, m.base.check(m.a)...)
}
