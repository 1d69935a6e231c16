package rcgo

import (
	"context"
	"encoding/json"
	"expvar"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"
)

// findRegion walks a hierarchy report for the node with the given id.
func findRegion(nodes []*RegionInfo, id int64) *RegionInfo {
	for _, n := range nodes {
		if n.ID == id {
			return n
		}
		if c := findRegion(n.Children, id); c != nil {
			return c
		}
	}
	return nil
}

func TestArenaStatsLiveDeferredConsistency(t *testing.T) {
	a := NewArena()
	if got := a.LiveRegions(); got != 1 {
		t.Fatalf("fresh arena LiveRegions = %d, want 1 (traditional)", got)
	}

	r1 := a.NewRegion()
	r2 := a.NewRegion()
	sub := r1.NewSubregion()
	if got := a.LiveRegions(); got != 4 {
		t.Fatalf("LiveRegions = %d, want 4", got)
	}

	if err := sub.Delete(); err != nil {
		t.Fatal(err)
	}
	if got := a.LiveRegions(); got != 3 {
		t.Fatalf("after sub delete LiveRegions = %d, want 3", got)
	}

	// Hold a counted reference into r2, then defer-delete it: it must
	// move from live to deferred, and back out on release.
	h := Alloc[traceNode](r1)
	MustSetRef(h, &h.Value.cross, Alloc[traceNode](r2))
	r2.DeleteDeferred()
	if live, def := a.LiveRegions(), a.DeferredRegions(); live != 2 || def != 1 {
		t.Fatalf("after deferred delete live=%d deferred=%d, want 2/1", live, def)
	}
	MustSetRef(h, &h.Value.cross, nil)
	if live, def := a.LiveRegions(), a.DeferredRegions(); live != 2 || def != 0 {
		t.Fatalf("after release live=%d deferred=%d, want 2/0", live, def)
	}

	// Immediate DeleteDeferred (no references) never becomes a zombie.
	r3 := a.NewRegion()
	r3.DeleteDeferred()
	if live, def := a.LiveRegions(), a.DeferredRegions(); live != 2 || def != 0 {
		t.Fatalf("after immediate deferred delete live=%d deferred=%d, want 2/0", live, def)
	}

	st := a.Stats()
	if st.LiveRegions != 2 || st.DeferredRegions != 0 {
		t.Fatalf("ArenaStats live=%d deferred=%d, want 2/0", st.LiveRegions, st.DeferredRegions)
	}
}

func TestHierarchyAndDot(t *testing.T) {
	a := NewArena()
	top := a.NewRegion()
	kid := top.NewSubregion()
	grand := kid.NewSubregion()
	Alloc[traceNode](grand)

	// A zombie with a counted reference held into it.
	zombie := a.NewRegion()
	h := Alloc[traceNode](top)
	MustSetRef(h, &h.Value.cross, Alloc[traceNode](zombie))
	zombie.DeleteDeferred()

	roots := a.Hierarchy()
	if len(roots) != 3 {
		t.Fatalf("got %d roots, want 3 (traditional, top, zombie)", len(roots))
	}
	// Roots sort by id, and ids are shard-encoded, so the traditional
	// region may sit at any position: find it by its flag.
	var trad []*RegionInfo
	for _, n := range roots {
		if n.Traditional {
			trad = append(trad, n)
		}
	}
	if len(trad) != 1 || trad[0].State != "alive" {
		t.Fatalf("want exactly one root, alive, flagged traditional; got %+v", trad)
	}
	tn := findRegion(roots, top.ID())
	if tn == nil || len(tn.Children) != 1 || tn.Children[0].ID != kid.ID() {
		t.Fatalf("top region node wrong: %+v", tn)
	}
	gn := findRegion(roots, grand.ID())
	if gn == nil || gn.Objects != 1 || gn.Parent != kid.ID() {
		t.Fatalf("grandchild node wrong: %+v", gn)
	}
	zn := findRegion(roots, zombie.ID())
	if zn == nil || zn.State != "deferred" || zn.RC != 1 {
		t.Fatalf("zombie node wrong: %+v", zn)
	}

	dot := a.HierarchyDot()
	for _, want := range []string{
		"digraph regions {",
		"(traditional)",
		"style=dashed, color=red",
	} {
		if !strings.Contains(dot, want) {
			t.Errorf("dot output missing %q:\n%s", want, dot)
		}
	}
	for _, edge := range [][2]int64{{top.ID(), kid.ID()}, {kid.ID(), grand.ID()}} {
		want := "r" + itoa(edge[0]) + " -> r" + itoa(edge[1]) + ";"
		if !strings.Contains(dot, want) {
			t.Errorf("dot output missing edge %q:\n%s", want, dot)
		}
	}
}

func itoa(n int64) string {
	b, _ := json.Marshal(n)
	return string(b)
}

func TestBlockedDeleters(t *testing.T) {
	a := NewArena()
	if got := a.BlockedDeleters(); got != nil {
		t.Fatalf("fresh arena blocked report = %v, want nil", got)
	}

	epoch := a.NewRegion()
	e1 := Alloc[traceNode](epoch)
	e2 := Alloc[traceNode](epoch)

	// Two slot references from holder1, one from holder2, one pin.
	holder1 := a.NewRegion()
	holder2 := a.NewRegion()
	h1 := Alloc[traceNode](holder1)
	h2 := Alloc[traceNode](holder2)
	MustSetRef(h1, &h1.Value.cross, e1)
	MustSetRef(h1, &h1.Value.same, e2) // counted slot despite the field name
	MustSetRef(h2, &h2.Value.cross, e1)
	unpin := Pin(e2)

	epoch.DeleteDeferred()
	report := a.BlockedDeleters()
	if len(report) != 1 {
		t.Fatalf("blocked report has %d entries, want 1: %+v", len(report), report)
	}
	br := report[0]
	if br.ID != epoch.ID() || br.RC != 4 || br.Pins != 1 {
		t.Fatalf("blocked entry wrong: %+v", br)
	}
	if len(br.Holders) != 2 ||
		br.Holders[0] != (BlockedHolder{HolderRegion: holder1.ID(), Slots: 2}) ||
		br.Holders[1] != (BlockedHolder{HolderRegion: holder2.ID(), Slots: 1}) {
		t.Fatalf("holders wrong: %+v", br.Holders)
	}
	if br.Unaccounted != 0 {
		t.Fatalf("Unaccounted = %d, want 0", br.Unaccounted)
	}

	// Release everything: the zombie reclaims and leaves the report.
	MustSetRef(h1, &h1.Value.cross, nil)
	MustSetRef(h1, &h1.Value.same, nil)
	MustSetRef(h2, &h2.Value.cross, nil)
	unpin()
	if !epoch.Deleted() || epoch.Deferred() {
		t.Fatal("epoch region should have reclaimed")
	}
	if got := a.BlockedDeleters(); got != nil {
		t.Fatalf("blocked report after release = %+v, want nil", got)
	}
}

func TestDebugHandlerEndpoints(t *testing.T) {
	a := NewArena(WithMetrics())
	top := a.NewRegion()
	sub := top.NewSubregion()
	Alloc[traceNode](sub)

	h := Alloc[traceNode](top)
	zombie := a.NewRegion()
	MustSetRef(h, &h.Value.cross, Alloc[traceNode](zombie))
	zombie.DeleteDeferred()

	srv := httptest.NewServer(a.DebugHandler())
	defer srv.Close()

	get := func(path string) (string, string) {
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: status %d", path, resp.StatusCode)
		}
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		return string(body), resp.Header.Get("Content-Type")
	}

	index, _ := get("/")
	if !strings.Contains(index, "rcgo arena debug") || !strings.Contains(index, "/blocked") {
		t.Errorf("index page wrong:\n%s", index)
	}

	body, ct := get("/hierarchy")
	if ct != "application/json" {
		t.Errorf("/hierarchy content type = %q", ct)
	}
	var hier struct {
		Stats   ArenaStats    `json:"stats"`
		Regions []*RegionInfo `json:"regions"`
	}
	if err := json.Unmarshal([]byte(body), &hier); err != nil {
		t.Fatalf("/hierarchy: %v\n%s", err, body)
	}
	if hier.Stats.LiveRegions != 3 || hier.Stats.DeferredRegions != 1 {
		t.Errorf("/hierarchy stats = %+v", hier.Stats)
	}
	if findRegion(hier.Regions, sub.ID()) == nil {
		t.Errorf("/hierarchy missing subregion %d:\n%s", sub.ID(), body)
	}
	if z := findRegion(hier.Regions, zombie.ID()); z == nil || z.State != "deferred" {
		t.Errorf("/hierarchy zombie wrong: %+v", z)
	}

	dot, ct := get("/hierarchy.dot")
	if !strings.HasPrefix(ct, "text/vnd.graphviz") || !strings.Contains(dot, "digraph regions") {
		t.Errorf("/hierarchy.dot wrong (%q):\n%s", ct, dot)
	}

	// The arena counts from birth; this is its first annotated store.
	MustSetSame(h, &h.Value.up, h)
	body, _ = get("/counters")
	var counters struct {
		Stats    ArenaStats    `json:"stats"`
		Counters ArenaCounters `json:"counters"`
	}
	if err := json.Unmarshal([]byte(body), &counters); err != nil {
		t.Fatalf("/counters: %v\n%s", err, body)
	}
	if counters.Counters.SameChecks != 1 {
		t.Errorf("/counters shows %d same checks after one MustSetSame, want 1:\n%s", counters.Counters.SameChecks, body)
	}

	body, _ = get("/blocked")
	var blocked struct {
		Blocked []BlockedRegion `json:"blocked"`
	}
	if err := json.Unmarshal([]byte(body), &blocked); err != nil {
		t.Fatalf("/blocked: %v\n%s", err, body)
	}
	if len(blocked.Blocked) != 1 || blocked.Blocked[0].ID != zombie.ID() ||
		len(blocked.Blocked[0].Holders) != 1 ||
		blocked.Blocked[0].Holders[0].HolderRegion != top.ID() {
		t.Errorf("/blocked wrong:\n%s", body)
	}
}

// /owners reports every held region with the evidence an operator
// needs — holder age, acquire site, queue depth — plus the arena-wide
// waiter gauge and the top-contended table.
func TestDebugHandlerOwners(t *testing.T) {
	a := NewArena()
	NewOwnerWatchdog(a, time.Hour) // the arena records acquire sites from here on
	r := a.NewRegion()
	own, err := r.TryAcquire()
	if err != nil {
		t.Fatal(err)
	}
	parked := make(chan error, 1)
	go func() {
		tok, err := r.AcquireContext(context.Background())
		if err == nil {
			err = tok.Release()
		}
		parked <- err
	}()
	deadline := time.Now().Add(10 * time.Second)
	for a.AcquireWaiters() < 1 {
		if time.Now().After(deadline) {
			t.Fatal("waiter never parked")
		}
		time.Sleep(100 * time.Microsecond)
	}

	srv := httptest.NewServer(a.DebugHandler())
	defer srv.Close()
	resp, err := http.Get(srv.URL + "/owners")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	var rep OwnersReport
	if err := json.Unmarshal(body, &rep); err != nil {
		t.Fatalf("/owners: %v\n%s", err, body)
	}
	if len(rep.Owned) != 1 || rep.Owned[0].ID != r.ID() {
		t.Fatalf("/owners owned = %+v, want exactly region %d", rep.Owned, r.ID())
	}
	if rep.Owned[0].QueueDepth != 1 {
		t.Errorf("/owners queue depth = %d, want 1", rep.Owned[0].QueueDepth)
	}
	if rep.Owned[0].HeldFor <= 0 {
		t.Errorf("/owners held_ns = %d, want > 0", rep.Owned[0].HeldFor)
	}
	if !strings.Contains(rep.Owned[0].AcquireSite, "region_debug_test.go") {
		t.Errorf("/owners acquire site = %q, want the acquiring test frame", rep.Owned[0].AcquireSite)
	}
	if rep.TotalWaiters != 1 {
		t.Errorf("/owners total waiters = %d, want 1", rep.TotalWaiters)
	}
	if len(rep.TopContended) == 0 || rep.TopContended[0].ID != r.ID() {
		t.Errorf("/owners top contended = %+v, want region %d first", rep.TopContended, r.ID())
	}

	if err := own.Release(); err != nil {
		t.Fatal(err)
	}
	if err := <-parked; err != nil {
		t.Fatalf("parked waiter: %v", err)
	}
	// Quiesced: the report empties but keeps the contention history.
	rep = a.Owners()
	if len(rep.Owned) != 0 || rep.TotalWaiters != 0 {
		t.Errorf("quiesced owners report = %+v, want empty", rep)
	}
	if len(rep.TopContended) == 0 || rep.TopContended[0].Waits != 1 {
		t.Errorf("quiesced top contended = %+v, want region %d with 1 wait", rep.TopContended, r.ID())
	}
	if err := r.Delete(); err != nil {
		t.Fatal(err)
	}
}

// The inspector must stay readable while the arena churns: hammer the
// endpoints concurrently with region create/store/delete traffic. Run
// under -race this doubles as the inspector's data-race exerciser.
func TestDebugHandlerUnderChurn(t *testing.T) {
	a := NewArena()
	handler := a.DebugHandler()

	done := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				r := a.NewRegion()
				sub := r.NewSubregion()
				o := Alloc[traceNode](sub)
				MustSetSame(o, &o.Value.same, o)
				h := Alloc[traceNode](r)
				MustSetRef(h, &h.Value.cross, o)
				sub.DeleteDeferred() // zombie until h's slot is released
				MustSetRef(h, &h.Value.cross, nil)
				if err := r.Delete(); err != nil {
					t.Errorf("delete: %v", err)
					return
				}
			}
		}()
	}
	for _, path := range []string{
		"/hierarchy", "/hierarchy.dot", "/counters", "/blocked",
		"/audit", "/advisor", "/advisor.txt", "/owners", "/trace",
	} {
		for i := 0; i < 20; i++ {
			req := httptest.NewRequest("GET", path, nil)
			rec := httptest.NewRecorder()
			handler.ServeHTTP(rec, req)
			if rec.Code != http.StatusOK {
				t.Errorf("GET %s: status %d", path, rec.Code)
			}
		}
	}
	close(done)
	wg.Wait()
}

// TestDebugHandlerIndexComplete parses the endpoint list off the index
// page and GETs every entry: the index is generated from the same table
// the mux is registered from, so every listed path must serve 200 and
// the new inspector endpoints must be listed.
func TestDebugHandlerIndexComplete(t *testing.T) {
	a := NewArena()
	srv := httptest.NewServer(a.DebugHandler())
	defer srv.Close()

	resp, err := http.Get(srv.URL + "/")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	var listed []string
	for _, line := range strings.Split(string(body), "\n") {
		f := strings.Fields(line)
		if len(f) >= 2 && strings.HasPrefix(f[0], "/") {
			listed = append(listed, f[0])
		}
	}
	for _, want := range []string{"/hierarchy", "/hierarchy.dot", "/counters", "/blocked", "/audit", "/advisor", "/advisor.txt", "/owners", "/trace"} {
		found := false
		for _, p := range listed {
			if p == want {
				found = true
			}
		}
		if !found {
			t.Errorf("index page does not list %s:\n%s", want, body)
		}
	}
	for _, p := range listed {
		r, err := http.Get(srv.URL + p)
		if err != nil {
			t.Fatalf("GET %s: %v", p, err)
		}
		r.Body.Close()
		if r.StatusCode != http.StatusOK {
			t.Errorf("index lists %s but GET returns %d", p, r.StatusCode)
		}
	}
}

// TestDebugHandlerAdvisor covers both sides of the /advisor endpoints:
// a disarmed arena reports enabled=false (the handler must NOT silently
// arm the stack-walking profiler), and an armed arena's JSON decodes
// back into an AdvisorReport naming the upgrade candidate.
func TestDebugHandlerAdvisor(t *testing.T) {
	get := func(t *testing.T, srv *httptest.Server, path string) string {
		t.Helper()
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: status %d", path, resp.StatusCode)
		}
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return string(body)
	}

	t.Run("disarmed", func(t *testing.T) {
		a := NewArena()
		srv := httptest.NewServer(a.DebugHandler())
		defer srv.Close()
		if a.AdvisorEnabled() {
			t.Fatal("DebugHandler must not arm the advisor")
		}
		var rep AdvisorReport
		if err := json.Unmarshal([]byte(get(t, srv, "/advisor")), &rep); err != nil {
			t.Fatal(err)
		}
		if rep.Enabled || len(rep.Sites) != 0 {
			t.Errorf("disarmed /advisor report: %+v", rep)
		}
		if txt := get(t, srv, "/advisor.txt"); !strings.Contains(txt, "advisor disabled") {
			t.Errorf("/advisor.txt missing the disabled hint:\n%s", txt)
		}
	})

	t.Run("armed", func(t *testing.T) {
		a := NewArena(WithAdvisor())
		r := a.NewRegion()
		h := Alloc[traceNode](r)
		for i := 0; i < 3; i++ {
			MustSetRef(h, &h.Value.cross, h) // same-region: upgrade candidate
		}
		srv := httptest.NewServer(a.DebugHandler())
		defer srv.Close()
		var rep AdvisorReport
		if err := json.Unmarshal([]byte(get(t, srv, "/advisor")), &rep); err != nil {
			t.Fatal(err)
		}
		if !rep.Enabled || rep.UpgradeCandidates != 1 || len(rep.Sites) != 1 ||
			rep.Sites[0].Recommended != FlavourSame || rep.Sites[0].Count != 3 {
			t.Errorf("armed /advisor report wrong: %+v", rep)
		}
		txt := get(t, srv, "/advisor.txt")
		if !strings.Contains(txt, "upgrade candidates") || !strings.Contains(txt, "SetSame") {
			t.Errorf("/advisor.txt table wrong:\n%s", txt)
		}
		// The index page carries the advisor summary line when armed.
		if idx := get(t, srv, "/"); !strings.Contains(idx, "advisor_upgrade_candidates=1") {
			t.Errorf("index missing advisor summary:\n%s", idx)
		}
	})
}

// TestDebugHandlerTrace covers /trace with and without a ring tracer
// attached, including the ?n= window limit and JSON round-trip of the
// TraceKind names.
func TestDebugHandlerTrace(t *testing.T) {
	type traceDoc struct {
		Attached bool         `json:"attached"`
		Stats    *TraceStats  `json:"stats"`
		Events   []TraceEvent `json:"events"`
	}
	get := func(t *testing.T, srv *httptest.Server, path string) traceDoc {
		t.Helper()
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: status %d", path, resp.StatusCode)
		}
		var doc traceDoc
		if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		return doc
	}

	t.Run("detached", func(t *testing.T) {
		a := NewArena()
		srv := httptest.NewServer(a.DebugHandler())
		defer srv.Close()
		doc := get(t, srv, "/trace")
		if doc.Attached || doc.Stats != nil || len(doc.Events) != 0 {
			t.Errorf("detached /trace doc: %+v", doc)
		}
	})

	t.Run("attached", func(t *testing.T) {
		ring := NewRingTracer(64)
		a := NewArena(WithTracer(ring))
		for i := 0; i < 3; i++ {
			r := a.NewRegion()
			if err := r.Delete(); err != nil {
				t.Fatal(err)
			}
		}
		srv := httptest.NewServer(a.DebugHandler())
		defer srv.Close()

		doc := get(t, srv, "/trace")
		if !doc.Attached || doc.Stats == nil {
			t.Fatalf("/trace not attached: %+v", doc)
		}
		// 3 × (created + deleted + reclaimed), and the tracer was attached
		// at construction so it saw the traditional region's creation too.
		if doc.Stats.Total != 10 || len(doc.Events) != 10 {
			t.Errorf("/trace stats=%+v events=%d, want total=10", doc.Stats, len(doc.Events))
		}
		kinds := map[TraceKind]int{}
		for _, ev := range doc.Events {
			kinds[ev.Kind]++
		}
		if kinds[TraceRegionCreated] != 4 || kinds[TraceRegionDeleted] != 3 || kinds[TraceRegionReclaimed] != 3 {
			t.Errorf("/trace kinds wrong (names failed to round-trip?): %v", kinds)
		}

		limited := get(t, srv, "/trace?n=2")
		if len(limited.Events) != 2 || limited.Stats.Total != 10 {
			t.Errorf("/trace?n=2 returned %d events (total %d)", len(limited.Events), limited.Stats.Total)
		}
		if limited.Events[0].Seq != doc.Events[8].Seq {
			t.Errorf("?n=2 did not keep the most recent events: %+v", limited.Events)
		}
	})
}

func TestPublishExpvar(t *testing.T) {
	a := NewArena()
	a.NewRegion()
	const name = "rcgo.test.arena"
	if err := a.PublishExpvar(name); err != nil {
		t.Fatal(err)
	}
	if err := a.PublishExpvar(name); err == nil {
		t.Fatal("duplicate publish should fail")
	}
	v := expvar.Get(name)
	if v == nil {
		t.Fatal("expvar not published")
	}
	var snap struct {
		Stats    ArenaStats     `json:"stats"`
		Counters *ArenaCounters `json:"counters"`
	}
	if err := json.Unmarshal([]byte(v.String()), &snap); err != nil {
		t.Fatalf("expvar value not JSON: %v\n%s", err, v.String())
	}
	if snap.Stats.LiveRegions != 2 {
		t.Errorf("expvar live_regions = %d, want 2", snap.Stats.LiveRegions)
	}
	if snap.Counters != nil || a.MetricsEnabled() {
		t.Errorf("publishing armed metrics on an arena built without WithMetrics: %+v", snap.Counters)
	}

	// An advisor-armed arena's expvar doc carries the advisor summary.
	armed := NewArena(WithAdvisor())
	r := armed.NewRegion()
	h := Alloc[traceNode](r)
	MustSetRef(h, &h.Value.cross, h)
	const armedName = "rcgo.test.arena.advisor"
	if err := armed.PublishExpvar(armedName); err != nil {
		t.Fatal(err)
	}
	var armedSnap struct {
		Advisor *AdvisorStats `json:"advisor"`
	}
	if err := json.Unmarshal([]byte(expvar.Get(armedName).String()), &armedSnap); err != nil {
		t.Fatal(err)
	}
	if armedSnap.Advisor == nil || armedSnap.Advisor.Sites != 1 || armedSnap.Advisor.UpgradeCandidates != 1 {
		t.Errorf("expvar advisor summary wrong: %+v", armedSnap.Advisor)
	}
}

// Mounting the inspector and publishing expvar mid-life must not break
// the identities ArenaCounters documents. Built without WithMetrics, the
// arena stays uncounted and /counters omits the counters; built with
// it, every acquire and slab refill is counted from birth, so the
// identities hold at quiesce however late the handlers are mounted.
func TestInspectorKeepsCounterIdentities(t *testing.T) {
	for _, tc := range []struct {
		name string
		opts []Option
	}{
		{"without-metrics", nil},
		{"with-metrics", []Option{WithMetrics()}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			a := NewArena(append([]Option{WithOffHeapSlabs()}, tc.opts...)...)
			defer a.CloseBackingStore()
			owned := a.NewRegion()
			tok, err := owned.TryAcquire()
			if err != nil {
				t.Fatal(err)
			}
			AllocOwned[traceNode](tok)
			slab := a.NewRegion()
			for i := 0; i < 64; i++ {
				Alloc[slabVal](slab)
			}

			srv := httptest.NewServer(a.DebugHandler())
			defer srv.Close()
			// expvar names are process-global; the published arena stays
			// reachable, so its address keeps the name unique under -count.
			if err := a.PublishExpvar(fmt.Sprintf("rcgo.test.identities.%p", a)); err != nil {
				t.Fatal(err)
			}

			if err := tok.Release(); err != nil {
				t.Fatal(err)
			}
			for _, r := range []*Region{slab, owned} {
				if err := r.Delete(); err != nil {
					t.Fatal(err)
				}
			}

			resp, err := http.Get(srv.URL + "/counters")
			if err != nil {
				t.Fatal(err)
			}
			defer resp.Body.Close()
			var doc map[string]json.RawMessage
			if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
				t.Fatal(err)
			}
			_, hasCounters := doc["counters"]
			if !a.MetricsEnabled() {
				if hasCounters {
					t.Fatalf("/counters carries counters on an arena built without WithMetrics: %s", doc["counters"])
				}
				return
			}
			if !hasCounters {
				t.Fatal("/counters omits the counters of an arena built WithMetrics")
			}
			c := a.Counters()
			if c.Acquires != c.Releases+c.OwnerRevocations {
				t.Errorf("acquires=%d releases=%d revocations=%d, want acquires == releases + revocations",
					c.Acquires, c.Releases, c.OwnerRevocations)
			}
			if c.SlabRefills == 0 || c.SlabRefills != c.SlabReleases {
				t.Errorf("slab_refills=%d slab_releases=%d, want equal and nonzero", c.SlabRefills, c.SlabReleases)
			}
		})
	}
}
