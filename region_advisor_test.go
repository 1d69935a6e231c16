package rcgo

import (
	"encoding/json"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
)

// advTestNode carries one slot per flavour plus a second counted slot,
// so one holder can exercise distinct call sites without mixing them.
type advTestNode struct {
	same   Ref[advTestNode]
	up     Ref[advTestNode]
	cross  Ref[advTestNode]
	cross2 Ref[advTestNode]
}

func findSite(t *testing.T, rep AdvisorReport, used, rec StoreFlavour) *AdvisorSite {
	t.Helper()
	var found *AdvisorSite
	for i := range rep.Sites {
		s := &rep.Sites[i]
		if s.Used == used && s.Recommended == rec {
			if found != nil {
				t.Fatalf("two sites with used=%v recommended=%v:\n%s", used, rec, rep)
			}
			found = s
		}
	}
	if found == nil {
		t.Fatalf("no site with used=%v recommended=%v:\n%s", used, rec, rep)
	}
	return found
}

// TestAdvisorLattice drives every classification of the flavour lattice
// through distinct call sites and checks the report recommends the
// cheapest legal flavour at each, with exact counts and the
// wasted-rc-updates tally on the counted upgrades only.
func TestAdvisorLattice(t *testing.T) {
	a := NewArena(WithAdvisor())
	if !a.AdvisorEnabled() {
		t.Fatal("WithAdvisor did not arm the advisor")
	}
	parent := a.NewRegion()
	sub := parent.NewSubregion()
	other := a.NewRegion()

	h := Alloc[advTestNode](sub)
	self := Alloc[advTestNode](sub)
	upObj := Alloc[advTestNode](parent)
	tradObj := Alloc[advTestNode](a.Traditional())
	otherObj := Alloc[advTestNode](other)

	const n = 5
	for i := 0; i < n; i++ {
		MustSetRef(h, &h.Value.cross, self) // same-region via SetRef: free upgrade
	}
	for i := 0; i < n; i++ {
		MustSetRef(h, &h.Value.cross2, tradObj) // traditional via SetRef: counted upgrade
	}
	for i := 0; i < n; i++ {
		MustSetRef(h, &h.Value.up, upObj) // ancestor via SetRef: counted upgrade
	}
	for i := 0; i < n; i++ {
		MustSetRef(h, &h.Value.cross, otherObj) // unrelated region: SetRef is right
	}
	for i := 0; i < n; i++ {
		MustSetSame(h, &h.Value.same, self) // already the cheapest
	}
	// Nil stores are never profiled.
	MustSetRef(h, &h.Value.cross, nil)
	MustSetSame(h, &h.Value.same, nil)

	rep := a.AdvisorReport()
	if !rep.Enabled {
		t.Fatal("report not enabled")
	}
	if rep.Observations != 5*n {
		t.Fatalf("Observations = %d, want %d\n%s", rep.Observations, 5*n, rep)
	}
	if len(rep.Sites) != 5 {
		t.Fatalf("got %d sites, want 5:\n%s", len(rep.Sites), rep)
	}
	if rep.UpgradeCandidates != 3 {
		t.Fatalf("UpgradeCandidates = %d, want 3:\n%s", rep.UpgradeCandidates, rep)
	}

	sameUp := findSite(t, rep, FlavourRef, FlavourSame)
	if !sameUp.Upgrade || sameUp.Count != n || sameUp.WastedRCUpdates != 0 {
		t.Errorf("same-region upgrade site wrong: %+v", *sameUp)
	}
	tradUp := findSite(t, rep, FlavourRef, FlavourTrad)
	if !tradUp.Upgrade || tradUp.Count != n || tradUp.WastedRCUpdates != 2*n {
		t.Errorf("traditional upgrade site wrong: %+v", *tradUp)
	}
	parentUp := findSite(t, rep, FlavourRef, FlavourParent)
	if !parentUp.Upgrade || parentUp.Count != n || parentUp.WastedRCUpdates != 2*n {
		t.Errorf("parentptr upgrade site wrong: %+v", *parentUp)
	}
	keepRef := findSite(t, rep, FlavourRef, FlavourRef)
	if keepRef.Upgrade || keepRef.Count != n {
		t.Errorf("keep-SetRef site wrong: %+v", *keepRef)
	}
	keepSame := findSite(t, rep, FlavourSame, FlavourSame)
	if keepSame.Upgrade || keepSame.Count != n || keepSame.LegalSame != n {
		t.Errorf("keep-SetSame site wrong: %+v", *keepSame)
	}
	if rep.WastedRCUpdates != 4*n {
		t.Errorf("report WastedRCUpdates = %d, want %d", rep.WastedRCUpdates, 4*n)
	}

	// Every site resolves into this test file, never into a MustSet*
	// wrapper frame.
	checkSites := func(rep AdvisorReport) {
		t.Helper()
		for _, s := range rep.Sites {
			if !strings.Contains(s.File, "region_advisor_test.go") || s.Line == 0 {
				t.Errorf("site not attributed to the caller: %+v", s)
			}
			if strings.Contains(s.Func, "MustSet") {
				t.Errorf("site attributed to a wrapper: %+v", s)
			}
		}
	}
	checkSites(rep)

	// So do direct calls of every shared flavour and the owned stores,
	// one call site each.
	b := NewArena(WithAdvisor())
	btop := b.NewRegion()
	bsub := btop.NewSubregion()
	bh := Alloc[advTestNode](bsub)
	bv := Alloc[advTestNode](bsub)
	bup := Alloc[advTestNode](btop)
	btrad := Alloc[advTestNode](b.Traditional())
	for _, err := range []error{
		SetRef(bh, &bh.Value.cross, bup),
		SetSame(bh, &bh.Value.same, bv),
		SetTrad(bh, &bh.Value.cross2, btrad),
		SetParent(bh, &bh.Value.up, bup),
	} {
		if err != nil {
			t.Fatal(err)
		}
	}
	own, err := b.NewRegion().TryAcquire()
	if err != nil {
		t.Fatal(err)
	}
	oh := AllocOwned[advTestNode](own)
	ov := AllocOwned[advTestNode](own)
	if err := SetRefOwned(own, oh, &oh.Value.cross, bup); err != nil {
		t.Fatal(err)
	}
	if err := SetSameOwned(own, oh, &oh.Value.same, ov); err != nil {
		t.Fatal(err)
	}
	if err := own.Release(); err != nil {
		t.Fatal(err)
	}
	brep := b.AdvisorReport()
	if len(brep.Sites) != 6 {
		t.Fatalf("got %d sites, want 6:\n%s", len(brep.Sites), brep)
	}
	checkSites(brep)

	// The report round-trips through JSON, flavour names included.
	blob, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	var back AdvisorReport
	if err := json.Unmarshal(blob, &back); err != nil {
		t.Fatal(err)
	}
	if len(back.Sites) != len(rep.Sites) || back.Sites[0].Used != rep.Sites[0].Used {
		t.Errorf("JSON round-trip changed the report")
	}
}

// TestAdvisorMixedSite: a call site whose stores are only sometimes
// same-region must NOT be recommended SetSame — an upgraded store
// would fail ErrBadRef on the cross-region case. The recommendation is
// the lattice meet over every observation.
func TestAdvisorMixedSite(t *testing.T) {
	a := NewArena(WithAdvisor())
	r := a.NewRegion()
	other := a.NewRegion()
	h := Alloc[advTestNode](r)
	targets := []*Obj[advTestNode]{Alloc[advTestNode](r), Alloc[advTestNode](other)}
	for i := 0; i < 10; i++ {
		MustSetRef(h, &h.Value.cross, targets[i%2])
	}
	rep := a.AdvisorReport()
	if len(rep.Sites) != 1 {
		t.Fatalf("got %d sites, want 1:\n%s", len(rep.Sites), rep)
	}
	s := rep.Sites[0]
	if s.Upgrade || s.Recommended != FlavourRef {
		t.Errorf("mixed site must keep SetRef: %+v", s)
	}
	if s.Count != 10 || s.LegalSame != 5 {
		t.Errorf("mixed site counts wrong: %+v", s)
	}
}

// TestAdvisorDisabledTable: an arena built without WithAdvisor observes
// no store, and the human table names the arming knob instead of
// rendering an empty report.
func TestAdvisorDisabledTable(t *testing.T) {
	a := NewArena()
	r := a.NewRegion()
	h := Alloc[advTestNode](r)
	MustSetSame(h, &h.Value.same, Alloc[advTestNode](r))
	if a.AdvisorEnabled() {
		t.Fatal("advisor armed without opting in")
	}
	if rep := a.AdvisorReport(); rep.Enabled || len(rep.Sites) != 0 {
		t.Fatalf("disarmed report not empty: %+v", rep)
	}
	table := a.AdvisorReport().String()
	if !strings.Contains(table, "advisor disabled") || !strings.Contains(table, "WithAdvisor") {
		t.Errorf("disabled table missing the arming hint:\n%s", table)
	}
}

// TestAdvisorTraceOncePerSite: the first downgrade-worthy store at a
// site emits one TraceStoreUpgradeable event; repeats stay silent.
func TestAdvisorTraceOncePerSite(t *testing.T) {
	ring := NewRingTracer(256)
	a := NewArena(WithAdvisor(), WithTracer(ring))
	r := a.NewRegion()
	h := Alloc[advTestNode](r)
	v := Alloc[advTestNode](r)
	for i := 0; i < 50; i++ {
		MustSetRef(h, &h.Value.cross, v) // upgradeable every time
		MustSetSame(h, &h.Value.same, v) // never upgradeable
	}
	events := 0
	for _, ev := range ring.Events() {
		if ev.Kind == TraceStoreUpgradeable {
			events++
			if ev.Region != r.ID() {
				t.Errorf("event names region %d, want holder %d", ev.Region, r.ID())
			}
		}
	}
	if events != 1 {
		t.Errorf("TraceStoreUpgradeable fired %d times, want 1", events)
	}
}

// TestAdvisorExactUnderStress holds the advisor to the counters'
// exact-at-quiesce contract on a multi-shard fabric: concurrent workers
// hammer four distinct call sites, each worker tallies its own
// successes, and the quiesced table must match both per flavour and per
// site. Run under -race this doubles as the table's race exerciser.
func TestAdvisorExactUnderStress(t *testing.T) {
	ring := NewRingTracer(1 << 12)
	a := NewArena(WithShards(8), WithAdvisor(), WithTracer(ring))
	parent := a.NewRegion()
	sub := parent.NewSubregion()
	upObj := Alloc[advTestNode](parent)
	shared := a.NewRegion()
	sharedObj := Alloc[advTestNode](shared)

	const workers = 8
	ops := 2000
	if testing.Short() {
		ops = 200
	}
	var sameN, parentN, refN, upRefN atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			h := Alloc[advTestNode](sub)
			self := Alloc[advTestNode](sub)
			for i := 0; i < ops; i++ {
				MustSetSame(h, &h.Value.same, self)
				sameN.Add(1)
				MustSetParent(h, &h.Value.up, upObj)
				parentN.Add(1)
				MustSetRef(h, &h.Value.cross, sharedObj) // unrelated region: keep
				refN.Add(1)
				MustSetRef(h, &h.Value.cross2, upObj) // ancestor: counted upgrade
				upRefN.Add(1)
			}
			// Clear the counted slots so teardown stays clean; nil stores
			// are not profiled.
			MustSetRef(h, &h.Value.cross, nil)
			MustSetRef(h, &h.Value.cross2, nil)
		}()
	}
	wg.Wait()

	rep := a.AdvisorReport()
	var got [flavourCount]int64
	for _, s := range rep.Sites {
		got[s.Used] += s.Count
	}
	if got[FlavourSame] != sameN.Load() || got[FlavourParent] != parentN.Load() ||
		got[FlavourRef] != refN.Load()+upRefN.Load() {
		t.Fatalf("advisor drift at quiesce: got same=%d parent=%d ref=%d, want same=%d parent=%d ref=%d\n%s",
			got[FlavourSame], got[FlavourParent], got[FlavourRef],
			sameN.Load(), parentN.Load(), refN.Load()+upRefN.Load(), rep)
	}
	if len(rep.Sites) != 4 {
		t.Fatalf("got %d sites, want 4 (one per source line):\n%s", len(rep.Sites), rep)
	}
	up := findSite(t, rep, FlavourRef, FlavourParent)
	if !up.Upgrade || up.Count != upRefN.Load() || up.WastedRCUpdates != 2*upRefN.Load() {
		t.Errorf("counted-upgrade site wrong under stress: %+v", *up)
	}
	keep := findSite(t, rep, FlavourRef, FlavourRef)
	if keep.Upgrade || keep.Count != refN.Load() {
		t.Errorf("keep site wrong under stress: %+v", *keep)
	}

	// Exactly one trace event despite every worker racing the first
	// upgradeable store.
	events := 0
	for _, ev := range ring.Events() {
		if ev.Kind == TraceStoreUpgradeable {
			events++
		}
	}
	if events != 1 {
		t.Errorf("TraceStoreUpgradeable fired %d times under race, want 1", events)
	}

	if err := sub.Delete(); err != nil {
		t.Fatal(err)
	}
	if err := parent.Delete(); err != nil {
		t.Fatal(err)
	}
}

// TestAdvisorDisarmedOverhead is the cost-contract regression mirror of
// the metrics gate bound: a disarmed advisor must stay a pointer load
// and branch on the store path. If the gate ever grew a stack walk, the
// disarmed side would land near the armed side's cost instead of near
// the metrics-only cost, and the generous factor here would trip.
// Single-run wall-clock comparisons are noisy, so each side is the best
// of five testing.Benchmark runs; skipped in -short.
func TestAdvisorDisarmedOverhead(t *testing.T) {
	if testing.Short() {
		t.Skip("timing comparison; skipped in -short")
	}
	measure := func(opts ...Option) float64 {
		best := 0.0
		for i := 0; i < 5; i++ {
			res := testing.Benchmark(func(b *testing.B) {
				a := NewArena(opts...)
				r := a.NewRegion()
				h := Alloc[advTestNode](r)
				v := Alloc[advTestNode](r)
				b.ResetTimer()
				for j := 0; j < b.N; j++ {
					MustSetSame(h, &h.Value.same, v)
				}
			})
			ns := float64(res.T.Nanoseconds()) / float64(res.N)
			if best == 0 || ns < best {
				best = ns
			}
		}
		return best
	}
	disarmed := measure()
	metrics := measure(WithMetrics())
	armed := measure(WithAdvisor())
	t.Logf("SetSame ns/op: disarmed=%.2f metrics=%.2f advisor-armed=%.2f", disarmed, metrics, armed)
	// The armed side pays runtime.Callers; the disarmed side must stay
	// within a generous factor of the metrics-enabled store (one atomic
	// add), nowhere near the armed cost.
	if disarmed > metrics*3 {
		t.Errorf("disarmed advisor store %.2f ns/op vs metrics-enabled %.2f ns/op: the disarmed gate is no longer a single load+branch",
			disarmed, metrics)
	}
	if armed < disarmed {
		t.Logf("armed (%.2f) measured under disarmed (%.2f): timing noise, tolerated", armed, disarmed)
	}
}
