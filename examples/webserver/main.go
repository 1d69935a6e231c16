// Webserver: the paper's Apache pattern at production shape, on the
// concurrent Go-native runtime — a real net/http server where
//
//   - every request is handled in its own region by whatever goroutine
//     the http package runs it on, and freed wholesale when the response
//     is written;
//   - internal subrequests (the paper's Apache subrequests) run in
//     subregions whose data points UP to the request via parentptr
//     references, which are checked but never counted;
//   - server configuration lives in the arena's traditional region and
//     is referenced through SetTrad slots — also never counted;
//   - a shared cache epoch is a region of its own, referenced from
//     request data through counted SetRef slots. Rotation retires the
//     old epoch with DeleteDeferred: it reclaims the instant the last
//     in-flight request releases its reference (via the request region's
//     delete-time unscan), and requests that lose the race to a rotation
//     see ErrRegionDeleted and simply serve uncached — a zombie epoch
//     can never be resurrected.
//
// The server also mounts the arena's live debug inspector under
// /debug/regions/ (hierarchy as JSON and Graphviz dot, cumulative op
// counters, the blocked-deleters report, the annotation-advisor
// profile, and the trace ring), publishes the same counters on
// /debug/vars via expvar, and records region lifecycle events in a
// lock-free ring tracer — the observability layer a real deployment
// would curl to answer "why is that retired epoch still alive, and who
// is pinning it?".
//
// Two of the request path's stores are left deliberately un-annotated
// (plain SetRef), the way freshly ported code usually is: a same-region
// self-link and a subrequest-to-request uplink. The arena runs with
// the annotation advisor armed (rcgo.WithAdvisor), and the run ends by
// curling /debug/regions/advisor to show the advisor naming both call
// sites, with the cheaper flavour each one could use and the rc
// updates the uplink wasted.
package main

import (
	"encoding/json"
	"expvar"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"

	"rcgo"
)

type config struct {
	name string
}

type cacheEntry struct {
	payload string
}

// request is the per-request record; subrequests reuse the same type one
// region below.
type request struct {
	conf   rcgo.Ref[config]     // traditional: server config, never counted
	entry  rcgo.Ref[cacheEntry] // counted: pins the cache epoch until the request dies
	parent rcgo.Ref[request]    // parentptr: subrequest -> request, never counted
	// self and owner are stored through plain SetRef — the conservative
	// ported-code choice the annotation advisor exists to flag: self is
	// always same-region (upgradeable to SetSame, free), owner always
	// points up to the enclosing request (upgradeable to SetParent,
	// currently paying two rc updates per subrequest).
	self   rcgo.Ref[request]
	owner  rcgo.Ref[request]
	id     int64
	status int
}

type server struct {
	arena *rcgo.Arena
	trace *rcgo.RingTracer
	conf  *rcgo.Obj[config]

	mu      sync.Mutex
	epoch   *rcgo.Region
	entry   *rcgo.Obj[cacheEntry]
	retired []*rcgo.Region

	nextID   atomic.Int64
	served   atomic.Int64
	cached   atomic.Int64
	uncached atomic.Int64
	subs     atomic.Int64
}

func newServer() *server {
	trace := rcgo.NewRingTracer(1 << 16)
	// Every instrument is fixed at construction, so the tracer sees every
	// epoch, request and subrequest lifecycle event — including the
	// arena's own traditional region — and the counters the inspector and
	// expvar serve cover the arena's whole life.
	arena := rcgo.NewArena(rcgo.WithMetrics(), rcgo.WithTracer(trace), rcgo.WithAdvisor())
	s := &server{arena: arena, trace: trace}
	s.conf = rcgo.Alloc[config](s.arena.Traditional())
	s.conf.Value.name = "rcgo-demo"
	s.rotate()
	return s
}

// rotate starts a fresh cache epoch and defer-deletes the old one: it
// stays a zombie while in-flight requests hold counted references and
// reclaims on the last release.
func (s *server) rotate() {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.epoch != nil {
		s.retired = append(s.retired, s.epoch)
		s.epoch.DeleteDeferred()
	}
	s.epoch = s.arena.NewRegion()
	s.entry = rcgo.Alloc[cacheEntry](s.epoch)
	s.entry.Value.payload = "cached-content"
}

func (s *server) lookup() *rcgo.Obj[cacheEntry] {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.entry
}

// handleSub is an internal subrequest: a subregion whose data may point
// up to the enclosing request for free.
func (s *server) handleSub(r *rcgo.Region, rq *rcgo.Obj[request], depth int) {
	if depth == 0 {
		return
	}
	sub := r.NewSubregion()
	sr := rcgo.Alloc[request](sub)
	sr.Value.id = rq.Value.id*10 + int64(depth)
	rcgo.MustSetParent(sr, &sr.Value.parent, rq)
	rcgo.MustSetTrad(sr, &sr.Value.conf, s.conf)
	// The un-annotated uplink: counted today, parentptr-upgradeable —
	// the advisor tallies the wasted rc update pair per subrequest.
	rcgo.MustSetRef(sr, &sr.Value.owner, rq)
	s.subs.Add(1)
	s.handleSub(sub, sr, depth-1)
	if err := sub.Delete(); err != nil {
		panic(err) // subregions always die before the request
	}
}

func (s *server) ServeHTTP(w http.ResponseWriter, _ *http.Request) {
	r := s.arena.NewRegion()
	// Deleting the request region releases its outbound counted
	// references (the cache entry) via the delete-time unscan; nothing
	// references the request from outside, so this cannot fail.
	defer func() {
		if err := r.Delete(); err != nil {
			panic(err)
		}
	}()

	rq := rcgo.Alloc[request](r)
	rq.Value.id = s.nextID.Add(1)
	rcgo.MustSetTrad(rq, &rq.Value.conf, s.conf)
	// The un-annotated self-link: same-region, so the counted protocol
	// never actually counts — but every store still pays its checks.
	rcgo.MustSetRef(rq, &rq.Value.self, rq)

	body := "generated-content"
	if ent := s.lookup(); ent != nil {
		// The epoch can rotate between lookup and store; a counted store
		// into the retired (zombie) epoch is rejected, never resurrected.
		if err := rcgo.SetRef(rq, &rq.Value.entry, ent); err == nil {
			body = rq.Value.entry.Get().Use().payload
			s.cached.Add(1)
		} else {
			s.uncached.Add(1)
		}
	}

	s.handleSub(r, rq, 2)
	rq.Value.status = http.StatusOK
	w.WriteHeader(rq.Value.status)
	fmt.Fprintf(w, "%s: %s\n", rq.Value.conf.Get().Use().name, body)
	s.served.Add(1)
}

func main() {
	const clients = 8
	const perClient = 25

	s := newServer()

	// The production mux: the application at /, the region inspector at
	// /debug/regions/ and the expvar counters at /debug/vars — all three
	// plain GET endpoints (curl $URL/debug/regions/blocked).
	if err := s.arena.PublishExpvar("rcgo.webserver.arena"); err != nil {
		panic(err)
	}
	mux := http.NewServeMux()
	mux.Handle("/", s)
	mux.Handle("/debug/regions/", http.StripPrefix("/debug/regions", s.arena.DebugHandler()))
	mux.Handle("/debug/vars", expvar.Handler())
	ts := httptest.NewServer(mux)

	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < perClient; i++ {
				resp, err := http.Get(ts.URL)
				if err != nil {
					panic(err)
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					panic(fmt.Sprintf("status %d", resp.StatusCode))
				}
				// One client rotates the cache epoch mid-traffic.
				if c == 0 && i%8 == 4 {
					s.rotate()
				}
			}
		}(c)
	}
	wg.Wait()

	fmt.Printf("served %d requests (%d subrequests) across %d client goroutines\n",
		s.served.Load(), s.subs.Load(), clients)
	fmt.Println("cache hits + rotation misses == served:",
		s.cached.Load()+s.uncached.Load() == s.served.Load())

	// All request regions are gone; retired epochs reclaimed the moment
	// their last in-flight reference was released.
	reclaimed := 0
	for _, ep := range s.retired {
		if ep.Stats().Reclaimed {
			reclaimed++
		}
	}
	fmt.Printf("retired cache epochs reclaimed: %d/%d\n", reclaimed, len(s.retired))

	// --- The debug inspector, over plain HTTP. A session region holds a
	// counted reference into the current epoch across a rotation: the
	// retired epoch becomes a zombie the blocked-deleters report can
	// explain, naming the session region as the holder.
	session := s.arena.NewRegion()
	sess := rcgo.Alloc[request](session)
	rcgo.MustSetRef(sess, &sess.Value.entry, s.lookup())
	s.rotate()

	getJSON := func(path string, v any) {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			panic(err)
		}
		defer resp.Body.Close()
		if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
			panic(fmt.Sprintf("GET %s: %v", path, err))
		}
	}

	var hier struct {
		Stats   rcgo.ArenaStats    `json:"stats"`
		Regions []*rcgo.RegionInfo `json:"regions"`
	}
	getJSON("/debug/regions/hierarchy", &hier)
	fmt.Printf("inspector hierarchy: %d roots, %d live regions, %d deferred\n",
		len(hier.Regions), hier.Stats.LiveRegions, hier.Stats.DeferredRegions)

	resp, err := http.Get(ts.URL + "/debug/regions/hierarchy.dot")
	if err != nil {
		panic(err)
	}
	dot, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	fmt.Println("inspector dot: graphviz output served:",
		strings.HasPrefix(string(dot), "digraph regions"))

	var blocked struct {
		Blocked []rcgo.BlockedRegion `json:"blocked"`
	}
	getJSON("/debug/regions/blocked", &blocked)
	for _, br := range blocked.Blocked {
		fmt.Printf("blocked epoch: rc=%d pins=%d, pinned by %d holder region(s) via %d counted slot(s)\n",
			br.RC, br.Pins, len(br.Holders), br.Holders[0].Slots)
	}

	// Releasing the session's reference reclaims the zombie on the spot.
	rcgo.MustSetRef(sess, &sess.Value.entry, nil)
	getJSON("/debug/regions/blocked", &blocked)
	fmt.Println("blocked report empty after release:", len(blocked.Blocked) == 0)

	var vars map[string]json.RawMessage
	getJSON("/debug/vars", &vars)
	_, ok := vars["rcgo.webserver.arena"]
	fmt.Println("expvar rcgo.webserver.arena published:", ok)

	// --- The annotation advisor, over the same inspector. The two
	// deliberately un-annotated request-path stores surface as upgrade
	// candidates: the subrequest uplink as a SetParent that has been
	// paying two rc updates per subrequest, the self-link as a free
	// SetSame.
	var advRep rcgo.AdvisorReport
	getJSON("/debug/regions/advisor", &advRep)
	fmt.Printf("advisor: %d observations over %d call sites, upgrade candidates found: %v\n",
		advRep.Observations, len(advRep.Sites), advRep.UpgradeCandidates > 0)
	for _, site := range advRep.Sites {
		if site.Upgrade {
			fmt.Printf("advisor candidate: %s -> %s (%d stores, %d wasted rc updates)\n",
				site.Used, site.Recommended, site.Count, site.WastedRCUpdates)
		}
	}

	// --- The trace ring over the same inspector: /trace serves the
	// ring's occupancy and its most recent lifecycle events.
	var tr struct {
		Attached bool              `json:"attached"`
		Stats    *rcgo.TraceStats  `json:"stats"`
		Events   []rcgo.TraceEvent `json:"events"`
	}
	getJSON("/debug/regions/trace?n=4", &tr)
	fmt.Printf("trace endpoint: attached=%v, %d events traced, last %d served\n",
		tr.Attached, tr.Stats.Total, len(tr.Events))

	ts.Close()

	// Tear down the session and the live epoch: config in the
	// traditional region remains.
	if err := session.Delete(); err != nil {
		panic(err)
	}
	if err := s.epoch.Delete(); err != nil {
		panic(err)
	}
	fmt.Println("live objects after shutdown (config only):", s.arena.LiveObjects())

	// Every region lifecycle event of the run is in the ring tracer:
	// creations and reclaims must balance once the arena quiesces — up to
	// the arena's own traditional region, whose creation a
	// construction-time tracer witnesses and which lives as long as the
	// arena.
	tally := make(map[rcgo.TraceKind]int)
	evs := s.trace.Events()
	for _, ev := range evs {
		tally[ev.Kind]++
	}
	fmt.Printf("tracer: %d events (%d dropped), created=%d reclaimed=%d balanced=%v\n",
		len(evs), s.trace.Total()-uint64(len(evs)),
		tally[rcgo.TraceRegionCreated], tally[rcgo.TraceRegionReclaimed],
		tally[rcgo.TraceRegionCreated] == tally[rcgo.TraceRegionReclaimed]+1)
}
