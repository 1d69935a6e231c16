package chaos

import (
	"errors"
	"fmt"
	"math/rand"

	"rcgo"
	"rcgo/internal/failpoint"
)

// node is the object type every chaos workload allocates: one counted
// slot, one sameregion slot and one parentptr slot, so every store
// flavour has a place to land.
type node struct {
	Other rcgo.Ref[node]
	Same  rcgo.Ref[node]
	Up    rcgo.Ref[node]
}

// OpKind enumerates the operations the harness can apply. Each op maps
// to exactly one public runtime call plus its reference-model shadow.
type OpKind int

const (
	OpNewRegion OpKind = iota
	OpNewSubregion
	OpAlloc
	OpPin
	OpUnpin
	OpSetRef
	OpClearRef
	OpSetSame
	OpDelete
	OpDeleteDeferred
	OpAcquire
	OpRelease
	OpOwnedAlloc
	OpOwnedSetRef
	OpOwnedStore
	OpOwnedDelete
	numOpKinds
)

// String names the op kind.
func (k OpKind) String() string {
	switch k {
	case OpNewRegion:
		return "new-region"
	case OpNewSubregion:
		return "new-subregion"
	case OpAlloc:
		return "alloc"
	case OpPin:
		return "pin"
	case OpUnpin:
		return "unpin"
	case OpSetRef:
		return "set-ref"
	case OpClearRef:
		return "clear-ref"
	case OpSetSame:
		return "set-same"
	case OpDelete:
		return "delete"
	case OpDeleteDeferred:
		return "delete-deferred"
	case OpAcquire:
		return "acquire"
	case OpRelease:
		return "release"
	case OpOwnedAlloc:
		return "owned-alloc"
	case OpOwnedSetRef:
		return "owned-set-ref"
	case OpOwnedStore:
		return "owned-store"
	case OpOwnedDelete:
		return "owned-delete"
	}
	return fmt.Sprintf("OpKind(%d)", int(k))
}

// Op is one operation: a kind and two operand selectors, interpreted
// modulo the current population (region index, object index, pin index
// — whichever the kind needs).
type Op struct {
	Kind OpKind
	A, B int
}

func (op Op) String() string { return fmt.Sprintf("%s(%d,%d)", op.Kind, op.A, op.B) }

// DecodeOps turns a fuzzer byte string into an op sequence: three bytes
// per op (kind, A, B). Any input decodes to a valid sequence.
func DecodeOps(data []byte) []Op {
	ops := make([]Op, 0, len(data)/3)
	for i := 0; i+2 < len(data); i += 3 {
		ops = append(ops, Op{
			Kind: OpKind(int(data[i]) % int(numOpKinds)),
			A:    int(data[i+1]),
			B:    int(data[i+2]),
		})
	}
	return ops
}

// outcome is the error class of one operation — the granularity at
// which the runtime and the reference model must agree.
type outcome int

const (
	outOK outcome = iota
	outInUse
	outDeleted
	outBadRef
	outInjected
	outOwned
)

func (o outcome) String() string {
	switch o {
	case outOK:
		return "ok"
	case outInUse:
		return "in-use"
	case outDeleted:
		return "deleted"
	case outBadRef:
		return "bad-ref"
	case outInjected:
		return "injected"
	case outOwned:
		return "owned"
	}
	return fmt.Sprintf("outcome(%d)", int(o))
}

// classify maps a runtime error to its outcome class. Injected is
// checked first: a failpoint can fire before the operation reaches the
// check the model predicts, so an injected error always means "the
// operation did not happen", whatever the model expected.
func classify(err error) (outcome, error) {
	switch {
	case err == nil:
		return outOK, nil
	case errors.Is(err, rcgo.ErrInjected):
		return outInjected, nil
	case errors.Is(err, rcgo.ErrRegionInUse):
		return outInUse, nil
	case errors.Is(err, rcgo.ErrRegionDeleted):
		return outDeleted, nil
	case errors.Is(err, rcgo.ErrBadRef):
		return outBadRef, nil
	case errors.Is(err, rcgo.ErrRegionOwned):
		return outOwned, nil
	}
	return 0, fmt.Errorf("unclassifiable error: %w", err)
}

// mState is the reference model's region state.
type mState int

const (
	mAlive mState = iota
	mZombie
	mDead
	mOwned
)

// mRegion shadows one runtime region.
type mRegion struct {
	real     *rcgo.Region
	parent   *mRegion
	state    mState
	rc       int64 // pins + external counted slots pointing here
	pins     int64
	children int64
	objs     int64 // flushed objects; an owned region's token-local allocs are ownerObjs

	// owner is the live Owner token while state == mOwned; ownerObjs
	// counts its unflushed owned allocations, merged into objs at
	// Release exactly as the runtime flushes (verify compares objs
	// against the runtime's flushed count, so this split checks the
	// flush-at-release exactness contract op by op).
	owner     *rcgo.Owner
	ownerObjs int64
}

// mObj shadows one runtime object: where it lives and what its counted
// slot currently references.
type mObj struct {
	real   *rcgo.Obj[node]
	region *mRegion
	other  *mObj // counted-slot target, nil when the slot is null
}

// mPin is one outstanding pin.
type mPin struct {
	unpin  func()
	region *mRegion
}

// Harness drives one arena and its reference model through an op
// sequence, checking after every op that the two agree on every
// region's state and counters. It is strictly sequential; the
// concurrent phase (concurrent.go) uses invariant checks instead of a
// model.
type Harness struct {
	arena   *rcgo.Arena
	regions []*mRegion // every region ever created, dead ones included
	objs    []*mObj    // every object ever allocated
	pins    []mPin     // outstanding pins only

	// maxRegions/maxObjs bound the population so long op sequences churn
	// instead of growing without bound.
	maxRegions, maxObjs int

	// sweepEachOp force-drains after every op so a zombie.drain
	// failpoint skip cannot make the runtime lag the (eagerly draining)
	// model. Set whenever failpoints are armed.
	sweepEachOp bool

	applied int
	counts  map[outcome]int
	trace   []string // ring of recent ops, for divergence reports
}

// NewHarness creates a harness over a fresh arena.
func NewHarness() *Harness {
	return &Harness{
		arena:      rcgo.NewArena(),
		maxRegions: 96,
		maxObjs:    2048,
		counts:     make(map[outcome]int),
	}
}

// Arena exposes the arena under test (for final end-state checks).
func (h *Harness) Arena() *rcgo.Arena { return h.arena }

// Applied returns the number of ops applied (skips excluded).
func (h *Harness) Applied() int { return h.applied }

// Outcomes returns the per-outcome op counts, keyed by outcome name.
func (h *Harness) Outcomes() map[string]int {
	out := make(map[string]int, len(h.counts))
	for o, n := range h.counts {
		out[o.String()] = n
	}
	return out
}

func (h *Harness) note(format string, args ...any) {
	if len(h.trace) >= 20 {
		h.trace = h.trace[1:]
	}
	h.trace = append(h.trace, fmt.Sprintf(format, args...))
}

func (h *Harness) divergence(format string, args ...any) error {
	msg := fmt.Sprintf(format, args...)
	return fmt.Errorf("divergence at op %d: %s\nrecent ops:\n  %s",
		h.applied, msg, joinLines(h.trace))
}

func joinLines(lines []string) string {
	out := ""
	for i, l := range lines {
		if i > 0 {
			out += "\n  "
		}
		out += l
	}
	return out
}

func pick[T any](list []T, idx int) T { return list[idx%len(list)] }

// aliveRegions returns the model regions currently alive, including the
// exclusively owned (an owned region is alive — the population caps
// cover it too).
func (h *Harness) aliveRegions() []*mRegion {
	var out []*mRegion
	for _, r := range h.regions {
		if r.state == mAlive || r.state == mOwned {
			out = append(out, r)
		}
	}
	return out
}

// ownedRegions returns the model regions currently held through a token.
func (h *Harness) ownedRegions() []*mRegion {
	var out []*mRegion
	for _, r := range h.regions {
		if r.state == mOwned {
			out = append(out, r)
		}
	}
	return out
}

// objsIn returns the model objects living in r.
func (h *Harness) objsIn(r *mRegion) []*mObj {
	var out []*mObj
	for _, o := range h.objs {
		if o.region == r {
			out = append(out, o)
		}
	}
	return out
}

// Step applies one op to both the runtime and the model, then verifies
// they agree. It returns a divergence error, or nil.
func (h *Harness) Step(op Op) error {
	if err := h.apply(op); err != nil {
		return err
	}
	h.applied++
	if h.sweepEachOp {
		// Heal failpoint-skipped drains so the runtime catches up with
		// the eagerly-draining model before the comparison.
		h.arena.SweepZombies()
	}
	return h.verify()
}

// expect compares a real outcome against the model's prediction; the
// model transition fn runs only when both agree the op succeeded.
func (h *Harness) expect(op Op, err error, predicted outcome, transition func()) error {
	got, cerr := classify(err)
	if cerr != nil {
		return h.divergence("%s: %v", op, cerr)
	}
	h.counts[got]++
	h.note("%s -> %s", op, got)
	if got == outInjected {
		// The failpoint unwound the op before it took effect: the model
		// applies nothing, whatever it predicted.
		return nil
	}
	if got != predicted {
		return h.divergence("%s: runtime %s (%v), model predicted %s", op, got, err, predicted)
	}
	if got == outOK && transition != nil {
		transition()
	}
	return nil
}

func (h *Harness) apply(op Op) error {
	switch op.Kind {
	case OpNewRegion:
		if len(h.aliveRegions()) >= h.maxRegions {
			h.note("%s -> skipped (region cap)", op)
			return nil
		}
		r := h.arena.NewRegion()
		h.regions = append(h.regions, &mRegion{real: r, state: mAlive})
		h.counts[outOK]++
		h.note("%s -> ok (region %d)", op, r.ID())
		return nil

	case OpNewSubregion:
		if len(h.regions) == 0 {
			return nil
		}
		if len(h.aliveRegions()) >= h.maxRegions {
			h.note("%s -> skipped (region cap)", op)
			return nil
		}
		parent := pick(h.regions, op.A)
		sub, err := parent.real.TryNewSubregion()
		predicted := outOK
		switch {
		case parent.state == mOwned:
			predicted = outOwned
		case parent.state != mAlive:
			predicted = outDeleted
		}
		return h.expect(op, err, predicted, func() {
			parent.children++
			h.regions = append(h.regions, &mRegion{real: sub, parent: parent, state: mAlive})
		})

	case OpAlloc:
		if len(h.regions) == 0 {
			return nil
		}
		if len(h.objs) >= h.maxObjs {
			h.note("%s -> skipped (object cap)", op)
			return nil
		}
		r := pick(h.regions, op.A)
		o, err := rcgo.TryAlloc[node](r.real)
		predicted := outOK
		switch {
		case r.state == mOwned:
			predicted = outOwned
		case r.state != mAlive:
			predicted = outDeleted
		}
		return h.expect(op, err, predicted, func() {
			r.objs++
			h.objs = append(h.objs, &mObj{real: o, region: r})
		})

	case OpPin:
		if len(h.objs) == 0 {
			return nil
		}
		o := pick(h.objs, op.A)
		unpin, err := rcgo.TryPin(o.real)
		predicted := outOK
		switch {
		case o.region.state == mOwned:
			predicted = outOwned
		case o.region.state != mAlive:
			predicted = outDeleted
		}
		return h.expect(op, err, predicted, func() {
			o.region.rc++
			o.region.pins++
			h.pins = append(h.pins, mPin{unpin: unpin, region: o.region})
		})

	case OpUnpin:
		if len(h.pins) == 0 {
			return nil
		}
		i := op.A % len(h.pins)
		p := h.pins[i]
		h.pins = append(h.pins[:i], h.pins[i+1:]...)
		p.unpin()
		p.region.rc--
		p.region.pins--
		h.mMaybeDrain(p.region)
		h.counts[outOK]++
		h.note("%s -> ok (region %d)", op, p.region.real.ID())
		return nil

	case OpSetRef, OpClearRef:
		if len(h.objs) == 0 {
			return nil
		}
		holder := pick(h.objs, op.A)
		var target *mObj
		if op.Kind == OpSetRef {
			target = pick(h.objs, op.B)
		}
		var treal *rcgo.Obj[node]
		if target != nil {
			treal = target.real
		}
		err := rcgo.SetRef(holder.real, &holder.real.Value.Other, treal)
		external := target != nil && target.region != holder.region
		// Prediction order mirrors the runtime: the external target's
		// incRC decides first (owned beats deleted there too), then the
		// holder's state check under the registry lock.
		predicted := holderRule(holder.region, target == nil)
		switch {
		case external && target.region.state == mOwned:
			predicted = outOwned
		case external && target.region.state != mAlive:
			predicted = outDeleted
		}
		return h.expect(op, err, predicted, func() {
			old := holder.other
			holder.other = target
			if external {
				target.region.rc++
			}
			if old != nil && old.region != holder.region {
				old.region.rc--
				h.mMaybeDrain(old.region)
			}
		})

	case OpSetSame:
		if len(h.objs) == 0 {
			return nil
		}
		holder := pick(h.objs, op.A)
		// One index past the end draws a nil target: an annotated nil
		// store obeys the same holder rule as a counted one.
		var target *mObj
		var treal *rcgo.Obj[node]
		if i := op.B % (len(h.objs) + 1); i < len(h.objs) {
			target = h.objs[i]
			treal = target.real
		}
		err := rcgo.SetSame(holder.real, &holder.real.Value.Same, treal)
		predicted := holderRule(holder.region, target == nil)
		if target != nil && target.region != holder.region {
			predicted = outBadRef
		}
		// The sameregion slot is never counted: no model transition.
		return h.expect(op, err, predicted, nil)

	case OpDelete:
		if len(h.regions) == 0 {
			return nil
		}
		r := pick(h.regions, op.A)
		err := r.real.Delete()
		predicted := outOK
		switch {
		case r.state == mOwned:
			predicted = outOwned
		case r.state != mAlive:
			predicted = outDeleted
		case r.children > 0 || r.rc > 0:
			predicted = outInUse
		}
		return h.expect(op, err, predicted, func() { h.mReclaim(r) })

	case OpDeleteDeferred:
		if len(h.regions) == 0 {
			return nil
		}
		r := pick(h.regions, op.A)
		r.real.DeleteDeferred()
		h.counts[outOK]++
		h.note("%s -> ok (region %d)", op, r.real.ID())
		if r.state != mAlive {
			return nil
		}
		if r.rc == 0 && r.children == 0 {
			h.mReclaim(r)
		} else {
			r.state = mZombie
		}
		return nil

	case OpAcquire:
		if len(h.regions) == 0 {
			return nil
		}
		r := pick(h.regions, op.A)
		own, err := r.real.TryAcquire()
		predicted := outOK
		switch {
		case r.state == mOwned:
			predicted = outOwned
		case r.state != mAlive:
			predicted = outDeleted
		}
		return h.expect(op, err, predicted, func() {
			r.state = mOwned
			r.owner = own
		})

	case OpRelease:
		owned := h.ownedRegions()
		if len(owned) == 0 {
			return nil
		}
		r := pick(owned, op.A)
		err := r.owner.Release()
		// An injected own.release error leaves the region owned and the
		// token valid (nothing flushed); expect applies no transition on
		// outInjected, so model and runtime stay in step.
		return h.expect(op, err, outOK, func() {
			r.objs += r.ownerObjs
			r.ownerObjs = 0
			r.state = mAlive
			r.owner = nil
		})

	case OpOwnedAlloc:
		owned := h.ownedRegions()
		if len(owned) == 0 {
			return nil
		}
		if len(h.objs) >= h.maxObjs {
			h.note("%s -> skipped (object cap)", op)
			return nil
		}
		r := pick(owned, op.A)
		o, err := rcgo.TryAllocOwned[node](r.owner)
		return h.expect(op, err, outOK, func() {
			r.ownerObjs++
			h.objs = append(h.objs, &mObj{real: o, region: r})
		})

	case OpOwnedSetRef:
		owned := h.ownedRegions()
		if len(owned) == 0 || len(h.objs) == 0 {
			return nil
		}
		r := pick(owned, op.A)
		holders := h.objsIn(r)
		if len(holders) == 0 {
			return nil
		}
		holder := pick(holders, op.A)
		target := pick(h.objs, op.B)
		err := rcgo.SetRefOwned(r.owner, holder.real, &holder.real.Value.Other, target.real)
		external := target.region != r
		predicted := outOK
		switch {
		case external && target.region.state == mOwned:
			predicted = outOwned
		case external && target.region.state != mAlive:
			predicted = outDeleted
		}
		return h.expect(op, err, predicted, func() {
			old := holder.other
			holder.other = target
			if external {
				target.region.rc++
			}
			if old != nil && old.region != r {
				old.region.rc--
				h.mMaybeDrain(old.region)
			}
		})

	case OpOwnedStore:
		owned := h.ownedRegions()
		if len(owned) == 0 || len(h.objs) == 0 {
			return nil
		}
		r := pick(owned, op.A)
		holders := h.objsIn(r)
		if len(holders) == 0 {
			return nil
		}
		holder := pick(holders, op.A)
		target := pick(h.objs, op.B)
		err := rcgo.SetSameOwned(r.owner, holder.real, &holder.real.Value.Same, target.real)
		predicted := outOK
		if target.region != r {
			predicted = outBadRef
		}
		// Never counted: no model transition.
		return h.expect(op, err, predicted, nil)

	case OpOwnedDelete:
		owned := h.ownedRegions()
		if len(owned) == 0 {
			return nil
		}
		r := pick(owned, op.A)
		err := r.owner.Delete()
		predicted := outOK
		if r.children > 0 || r.rc > 0 {
			predicted = outInUse
		}
		if e := h.expect(op, err, predicted, func() {
			r.ownerObjs = 0
			r.owner = nil
			h.mReclaim(r)
		}); e != nil {
			return e
		}
		if errors.Is(err, rcgo.ErrRegionInUse) {
			// Owner.Delete flushes before deciding: a blocked delete
			// leaves the region owned with the token's deltas already
			// merged — mirror the early flush or the object counts
			// diverge on the very next verify.
			r.objs += r.ownerObjs
			r.ownerObjs = 0
		}
		return nil
	}
	return nil
}

// holderRule predicts the holder-state rule every shared store obeys,
// whatever its flavour: the holder's region must be alive, except that
// a nil store from a zombie holder is legal.
func holderRule(r *mRegion, nilStore bool) outcome {
	switch {
	case r.state == mOwned:
		return outOwned
	case r.state != mAlive && !(r.state == mZombie && nilStore):
		return outDeleted
	}
	return outOK
}

// mReclaim is the model's reclaim: release the region's outbound
// counted references (cascading drains), drop its objects, and detach
// from the parent, mirroring Region.reclaim.
func (h *Harness) mReclaim(r *mRegion) {
	r.state = mDead
	r.objs = 0
	for _, o := range h.objs {
		if o.region != r || o.other == nil {
			continue
		}
		t := o.other
		o.other = nil
		if t.region != r {
			t.region.rc--
			h.mMaybeDrain(t.region)
		}
	}
	if p := r.parent; p != nil {
		p.children--
		h.mMaybeDrain(p)
	}
}

// mMaybeDrain is the model's zombie drain.
func (h *Harness) mMaybeDrain(r *mRegion) {
	if r.state == mZombie && r.rc == 0 && r.children == 0 {
		h.mReclaim(r)
	}
}

// verify compares every model region against the runtime and the
// arena-wide totals against the model's sums.
func (h *Harness) verify() error {
	var alive, zombie, owned, objTotal int64
	for _, r := range h.regions {
		st := r.real.Stats()
		switch r.state {
		case mAlive:
			if st.Deleted || st.Owned {
				return h.divergence("region %d: model alive, runtime %+v", st.ID, st)
			}
			alive++
		case mOwned:
			if st.Deleted || !st.Owned {
				return h.divergence("region %d: model owned, runtime %+v", st.ID, st)
			}
			// Counts as alive in the population totals; the counter
			// comparison below checks the flushed objs only (r.objs
			// excludes ownerObjs), which is exactly what the runtime
			// exposes while the token holds the rest.
			alive++
			owned++
		case mZombie:
			if !st.Deferred || st.Reclaimed {
				return h.divergence("region %d: model zombie, runtime %+v", st.ID, st)
			}
			zombie++
		case mDead:
			if !st.Reclaimed {
				return h.divergence("region %d: model dead, runtime %+v", st.ID, st)
			}
			continue
		}
		objTotal += r.objs
		if st.RC != r.rc || st.Pins != r.pins || st.Objects != r.objs || st.Subregions != r.children {
			return h.divergence(
				"region %d: runtime rc=%d pins=%d objs=%d children=%d, model rc=%d pins=%d objs=%d children=%d",
				st.ID, st.RC, st.Pins, st.Objects, st.Subregions, r.rc, r.pins, r.objs, r.children)
		}
	}
	ast := h.arena.Stats()
	if ast.LiveObjects != objTotal {
		return h.divergence("arena LiveObjects=%d, model %d", ast.LiveObjects, objTotal)
	}
	// +1: the traditional region, which the model never touches.
	if ast.LiveRegions != alive+1 {
		return h.divergence("arena LiveRegions=%d, model %d", ast.LiveRegions, alive+1)
	}
	if ast.DeferredRegions != zombie {
		return h.divergence("arena DeferredRegions=%d, model %d", ast.DeferredRegions, zombie)
	}
	if ast.OwnedRegions != owned {
		return h.divergence("arena OwnedRegions=%d, model %d", ast.OwnedRegions, owned)
	}
	return nil
}

// Drain unwinds the workload: every pin released, every counted slot
// cleared, every region deferred-deleted, every zombie swept. A
// correct runtime ends with only the traditional region alive and
// nothing live or deferred; anything else is a divergence.
func (h *Harness) Drain() error {
	// Release every outstanding token first: counted slots cannot be
	// cleared through the shared path while their holder is owned.
	// RunSeq disarms failpoints before draining, so Release cannot be
	// injected here.
	for _, r := range h.regions {
		if r.state != mOwned {
			continue
		}
		if err := r.owner.Release(); err != nil {
			return h.divergence("drain release: %v", err)
		}
		r.objs += r.ownerObjs
		r.ownerObjs = 0
		r.state = mAlive
		r.owner = nil
	}
	for _, p := range h.pins {
		p.unpin()
		p.region.rc--
		p.region.pins--
		h.mMaybeDrain(p.region)
	}
	h.pins = nil
	for _, o := range h.objs {
		if o.region.state == mDead || o.other == nil {
			continue
		}
		if err := rcgo.SetRef(o.real, &o.real.Value.Other, nil); err != nil {
			return h.divergence("drain clear: %v", err)
		}
		t := o.other
		o.other = nil
		if t.region != o.region {
			t.region.rc--
			h.mMaybeDrain(t.region)
		}
	}
	for _, r := range h.regions {
		if r.state != mAlive {
			continue
		}
		r.real.DeleteDeferred()
		if r.rc == 0 && r.children == 0 {
			h.mReclaim(r)
		} else {
			r.state = mZombie
		}
	}
	h.arena.SweepZombies()
	if err := h.verify(); err != nil {
		return err
	}
	for _, r := range h.regions {
		if r.state != mDead {
			return h.divergence("region %d not reclaimed after drain (model state %d)",
				r.real.ID(), r.state)
		}
	}
	if got := h.arena.LiveObjects(); got != 0 {
		return h.divergence("LiveObjects=%d after drain", got)
	}
	return nil
}

// RandomOps generates n ops from the seed with workload-shaped
// weights: allocation and stores dominate, lifecycle ops churn
// underneath.
func RandomOps(seed int64, n int) []Op {
	rng := rand.New(rand.NewSource(seed))
	ops := make([]Op, 0, n)
	for i := 0; i < n; i++ {
		var k OpKind
		switch p := rng.Intn(100); {
		case p < 14:
			k = OpAlloc
		case p < 28:
			k = OpSetRef
		case p < 36:
			k = OpClearRef
		case p < 43:
			k = OpSetSame
		case p < 51:
			k = OpPin
		case p < 59:
			k = OpUnpin
		case p < 65:
			k = OpNewSubregion
		case p < 69:
			k = OpNewRegion
		case p < 75:
			k = OpDelete
		case p < 78:
			k = OpDeleteDeferred
		case p < 83:
			k = OpAcquire
		case p < 86:
			k = OpRelease
		case p < 91:
			k = OpOwnedAlloc
		case p < 94:
			k = OpOwnedSetRef
		case p < 97:
			k = OpOwnedStore
		default:
			k = OpOwnedDelete
		}
		ops = append(ops, Op{Kind: k, A: rng.Intn(1 << 20), B: rng.Intn(1 << 20)})
	}
	return ops
}

// SeqRules arms every instrumented site with a deterministic
// error-injection rule derived from seed. Error actions are the right
// sequential chaos: they exercise every unwind path, and the harness's
// per-op sweep heals the drains they suppress. The one exception is
// rcgo/alloc.refill, which gets a yield rule: the site is evaluated
// only at the chunk-refill edge, on a park miss, and when a parked
// chunk runs out depends on how far the chunks the sync.Pool hands
// back were already consumed — pool and GC state — so an error rule
// there would make the injected outcome counts irreproducible across
// same-seed runs. Its error path
// is exercised by the concurrent alloc-churn phase (concurrent.go)
// and by unit tests instead.
func SeqRules(seed uint64) map[string]failpoint.Rule {
	return map[string]failpoint.Rule{
		"rcgo/alloc.admission": {Action: failpoint.ActionError, Num: 1, Den: 13, Seed: seed},
		"rcgo/incrc.validate":  {Action: failpoint.ActionError, Num: 1, Den: 11, Seed: seed},
		"rcgo/delete.dying":    {Action: failpoint.ActionError, Num: 1, Den: 7, Seed: seed},
		"rcgo/zombie.drain":    {Action: failpoint.ActionError, Num: 1, Den: 5, Seed: seed},
		"rcgo/slot.insert":     {Action: failpoint.ActionError, Num: 1, Den: 9, Seed: seed},
		"rcgo/alloc.refill":    {Action: failpoint.ActionYield, Num: 1, Den: 3, Seed: seed},
		"rcgo/own.release":     {Action: failpoint.ActionError, Num: 1, Den: 6, Seed: seed},
	}
}

// RunSeq runs a sequential model-checked phase: ops applied one at a
// time, every op's outcome and every region's counters compared against
// the reference model, Arena.Audit clean every auditEvery ops and after
// the final drain. rules (nil for none) arms failpoints for the run and
// disarms them before the drain.
func RunSeq(h *Harness, ops []Op, rules map[string]failpoint.Rule, auditEvery int) error {
	if len(rules) > 0 {
		h.sweepEachOp = true
		for name, r := range rules {
			if err := failpoint.Enable(name, r); err != nil {
				return err
			}
		}
		defer failpoint.DisableAll()
	}
	for i, op := range ops {
		if err := h.Step(op); err != nil {
			return err
		}
		if auditEvery > 0 && (i+1)%auditEvery == 0 {
			if rep := h.arena.Audit(); !rep.OK {
				return h.divergence("mid-run audit failed:\n%s", rep)
			}
		}
	}
	failpoint.DisableAll()
	h.sweepEachOp = false
	if err := h.Drain(); err != nil {
		return err
	}
	if rep := h.arena.Audit(); !rep.OK {
		return h.divergence("final audit failed:\n%s", rep)
	}
	return nil
}
