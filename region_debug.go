package rcgo

import (
	"encoding/json"
	"expvar"
	"fmt"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

// Live debug inspector for the concurrent Go-native runtime: the region
// hierarchy as JSON and Graphviz dot, the cumulative op counters, and a
// blocked-deleters report that names which counted slots pin a zombie
// region. Everything here reads the arena's sharded registries with at
// most one shard lock held at a time, so the inspector can run against
// a fully loaded arena without stalling the store or delete paths.

// RegionInfo is one node of the live hierarchy report.
type RegionInfo struct {
	ID int64 `json:"id"`
	// Parent is the parent region's id, 0 for top-level regions.
	Parent int64 `json:"parent,omitempty"`
	// Traditional marks the arena's distinguished traditional region.
	Traditional bool `json:"traditional,omitempty"`
	// State is "alive", "owned" (exclusively held through an Owner
	// token, region_owner.go) or "deferred" (reclaimed regions leave
	// the registry and never appear).
	State      string        `json:"state"`
	RC         int64         `json:"rc"`
	Pins       int64         `json:"pins"`
	Objects    int64         `json:"objects"`
	Subregions int64         `json:"subregions"`
	Children   []*RegionInfo `json:"children,omitempty"`
}

// Hierarchy returns the live region forest: the traditional region and
// every top-level region as roots, children nested below their parents,
// all sorted by id. Zombie (deferred-deleted) regions are included with
// State "deferred" — they are exactly the regions the blocked-deleters
// report diagnoses. The snapshot is taken shard by shard; under
// concurrent churn a region created or reclaimed mid-walk may be
// missing, and a child observed without its parent is promoted to a
// root rather than dropped.
func (a *Arena) Hierarchy() []*RegionInfo {
	nodes := make(map[int64]*RegionInfo)
	a.EachRegion(func(r *Region) {
		st := r.Stats()
		state := "alive"
		switch {
		case st.Deferred:
			state = "deferred"
		case st.Owned:
			state = "owned"
		}
		var parent int64
		if r.parent != nil {
			parent = r.parent.id
		}
		nodes[r.id] = &RegionInfo{
			ID:          r.id,
			Parent:      parent,
			Traditional: r == a.trad,
			State:       state,
			RC:          st.RC,
			Pins:        st.Pins,
			Objects:     st.Objects,
			Subregions:  st.Subregions,
		}
	})
	var roots []*RegionInfo
	for _, n := range nodes {
		if p := nodes[n.Parent]; n.Parent != 0 && p != nil {
			p.Children = append(p.Children, n)
		} else {
			roots = append(roots, n)
		}
	}
	var sortRec func([]*RegionInfo)
	sortRec = func(ns []*RegionInfo) {
		sort.Slice(ns, func(i, j int) bool { return ns[i].ID < ns[j].ID })
		for _, n := range ns {
			sortRec(n.Children)
		}
	}
	sortRec(roots)
	return roots
}

// HierarchyDot renders the live region forest as a Graphviz digraph:
// one box per region labelled with its id, state and counters, edges
// from parent to child, zombies dashed and red.
func (a *Arena) HierarchyDot() string {
	var b strings.Builder
	b.WriteString("digraph regions {\n")
	b.WriteString("  rankdir=TB;\n")
	b.WriteString("  node [shape=box, fontname=\"monospace\"];\n")
	var emit func(n *RegionInfo)
	emit = func(n *RegionInfo) {
		attrs := ""
		switch n.State {
		case "deferred":
			attrs = ", style=dashed, color=red"
		case "owned":
			attrs = ", style=bold, color=blue"
		}
		name := fmt.Sprintf("r%d", n.ID)
		if n.Traditional {
			name += " (traditional)"
		}
		fmt.Fprintf(&b, "  r%d [label=\"%s\\n%s rc=%d pins=%d objs=%d\"%s];\n",
			n.ID, name, n.State, n.RC, n.Pins, n.Objects, attrs)
		for _, c := range n.Children {
			fmt.Fprintf(&b, "  r%d -> r%d;\n", n.ID, c.ID)
			emit(c)
		}
	}
	for _, root := range a.Hierarchy() {
		emit(root)
	}
	b.WriteString("}\n")
	return b.String()
}

// BlockedHolder names one region whose counted slots pin a blocked
// region.
type BlockedHolder struct {
	// HolderRegion is the id of the region whose objects hold the slots.
	HolderRegion int64 `json:"holder_region"`
	// Slots is the number of registered counted slots in that region
	// currently pointing into the blocked region.
	Slots int `json:"slots"`
}

// BlockedRegion is one entry of the blocked-deleters report: a zombie
// (deferred-deleted) region that has not reclaimed, with the references
// that pin it broken down by where they come from.
type BlockedRegion struct {
	ID   int64 `json:"id"`
	RC   int64 `json:"rc"`
	Pins int64 `json:"pins"`
	// Subregions counts live children; a zombie cannot reclaim while
	// any remain, even at rc 0.
	Subregions int64 `json:"subregions,omitempty"`
	// Holders lists the regions whose registered counted slots point
	// into this region, sorted by slot count descending.
	Holders []BlockedHolder `json:"holders,omitempty"`
	// Unaccounted is RC - Pins - slot references: references that exist
	// but are not registered slots, i.e. in-flight stores or counted
	// references about to be withdrawn. Transient by construction.
	Unaccounted int64 `json:"unaccounted,omitempty"`
}

// BlockedDeleters reports every zombie region and what pins it, by
// scanning the slot registries of all live and zombie regions. A region
// appears with empty Holders and zero Pins when only its live
// subregions (or in-flight references) block the reclaim. Registry
// locks are taken one at a time, so the scan never blocks the runtime.
func (a *Arena) BlockedDeleters() []BlockedRegion {
	var zombies []*Region
	var all []*Region
	a.EachRegion(func(r *Region) {
		all = append(all, r)
		if r.state.Load() == stateZombie {
			zombies = append(zombies, r)
		}
	})
	if len(zombies) == 0 {
		return nil
	}
	// holders[zombie][holder region id] = pinning slot count.
	holders := make(map[*Region]map[int64]int, len(zombies))
	for _, z := range zombies {
		holders[z] = make(map[int64]int)
	}
	for _, holder := range all {
		for _, w := range holder.slots.snapshot() {
			if t := slotTarget(w); t != nil && t != holder {
				if h, ok := holders[t]; ok {
					h[holder.id]++
				}
			}
		}
	}
	report := make([]BlockedRegion, 0, len(zombies))
	for _, z := range zombies {
		st := z.Stats()
		if st.Reclaimed {
			continue // drained while we were scanning
		}
		br := BlockedRegion{ID: z.id, RC: st.RC, Pins: st.Pins, Subregions: st.Subregions}
		var slotRefs int64
		for id, n := range holders[z] {
			br.Holders = append(br.Holders, BlockedHolder{HolderRegion: id, Slots: n})
			slotRefs += int64(n)
		}
		sort.Slice(br.Holders, func(i, j int) bool {
			if br.Holders[i].Slots != br.Holders[j].Slots {
				return br.Holders[i].Slots > br.Holders[j].Slots
			}
			return br.Holders[i].HolderRegion < br.Holders[j].HolderRegion
		})
		if u := st.RC - st.Pins - slotRefs; u > 0 {
			br.Unaccounted = u
		}
		report = append(report, br)
	}
	sort.Slice(report, func(i, j int) bool { return report[i].ID < report[j].ID })
	return report
}

// OwnedRegionInfo is one currently-owned region in the Owners report:
// who holds it, for how long, and how many contenders queue behind it.
type OwnedRegionInfo struct {
	ID int64 `json:"id"`
	// HeldFor is how long the current token has been held.
	HeldFor time.Duration `json:"held_ns"`
	// AcquireSite is the "file:line (func)" that minted the current
	// token; empty if no frames were captured.
	AcquireSite string `json:"acquire_site,omitempty"`
	// QueueDepth is the number of AcquireContext waiters parked behind
	// the holder.
	QueueDepth int `json:"queue_depth"`
}

// ContendedRegion is one row of the Owners report's top-contended
// table: a region ranked by how many AcquireContext waiters have ever
// parked on it.
type ContendedRegion struct {
	ID int64 `json:"id"`
	// Waits is the cumulative number of waiters ever parked on the
	// region (monotone; survives releases).
	Waits int64 `json:"waits"`
	// QueueDepth is the number currently parked.
	QueueDepth int `json:"queue_depth"`
}

// OwnersReport is the ownership picture of the arena at a glance
// (region_owner.go): every currently-owned region with its holder's
// age, acquire site and queue depth, the arena-wide count of parked
// waiters, and the most contended regions by lifetime wait count.
type OwnersReport struct {
	Owned []OwnedRegionInfo `json:"owned"`
	// TotalWaiters is the number of AcquireContext waiters currently
	// parked across the arena: the queue depths this walk read, the
	// same sum as Arena.AcquireWaiters. Zero at quiesce.
	TotalWaiters int `json:"total_waiters"`
	// TopContended ranks regions by cumulative waiters parked,
	// descending, capped at the top ten; regions never contended are
	// omitted.
	TopContended []ContendedRegion `json:"top_contended,omitempty"`
}

// Owners scans the registry and assembles the ownership report. Like
// every other inspector walk it samples regions one at a time (each
// under its own mu), so under concurrent churn the rows are a
// consistent per-region snapshot, not an atomic cut.
func (a *Arena) Owners() OwnersReport {
	rep := OwnersReport{Owned: []OwnedRegionInfo{}}
	now := time.Now()
	a.EachRegion(func(r *Region) {
		held, _, since, site, depth := r.ownerInfo()
		rep.TotalWaiters += depth
		if held {
			rep.Owned = append(rep.Owned, OwnedRegionInfo{
				ID:          r.id,
				HeldFor:     now.Sub(since),
				AcquireSite: site,
				QueueDepth:  depth,
			})
		}
		if waits := r.contendedWaits.Load(); waits > 0 {
			rep.TopContended = append(rep.TopContended, ContendedRegion{
				ID: r.id, Waits: waits, QueueDepth: depth,
			})
		}
	})
	sort.Slice(rep.Owned, func(i, j int) bool { return rep.Owned[i].ID < rep.Owned[j].ID })
	sort.Slice(rep.TopContended, func(i, j int) bool {
		if rep.TopContended[i].Waits != rep.TopContended[j].Waits {
			return rep.TopContended[i].Waits > rep.TopContended[j].Waits
		}
		return rep.TopContended[i].ID < rep.TopContended[j].ID
	})
	if len(rep.TopContended) > 10 {
		rep.TopContended = rep.TopContended[:10]
	}
	return rep
}

// debugEndpoint is one registration of the DebugHandler mux: the index
// page iterates the same table the mux is built from, so the endpoint
// list can never drift from the routes actually served.
type debugEndpoint struct {
	path    string
	desc    string
	handler http.HandlerFunc
}

// debugEndpoints builds the endpoint table the DebugHandler serves and
// indexes.
func (a *Arena) debugEndpoints() []debugEndpoint {
	writeJSON := func(w http.ResponseWriter, v any) {
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		enc.Encode(v)
	}
	return []debugEndpoint{
		{"/hierarchy", "live region forest as JSON", func(w http.ResponseWriter, req *http.Request) {
			writeJSON(w, struct {
				Stats   ArenaStats    `json:"stats"`
				Regions []*RegionInfo `json:"regions"`
			}{a.Stats(), a.Hierarchy()})
		}},
		{"/hierarchy.dot", "the same forest as Graphviz dot", func(w http.ResponseWriter, req *http.Request) {
			w.Header().Set("Content-Type", "text/vnd.graphviz; charset=utf-8")
			fmt.Fprint(w, a.HierarchyDot())
		}},
		{"/counters", "arena stats + cumulative counters (+ trace and advisor summaries) as JSON", func(w http.ResponseWriter, req *http.Request) {
			writeJSON(w, a.countersDoc())
		}},
		{"/blocked", "blocked-deleters report as JSON", func(w http.ResponseWriter, req *http.Request) {
			blocked := a.BlockedDeleters()
			if blocked == nil {
				blocked = []BlockedRegion{}
			}
			writeJSON(w, struct {
				Blocked []BlockedRegion `json:"blocked"`
			}{blocked})
		}},
		{"/audit", "whole-arena invariant audit as JSON", func(w http.ResponseWriter, req *http.Request) {
			rep := a.Audit()
			if rep.Violations == nil {
				rep.Violations = []AuditViolation{}
			}
			writeJSON(w, rep)
		}},
		{"/advisor", "annotation-advisor call-site profile as JSON", func(w http.ResponseWriter, req *http.Request) {
			writeJSON(w, a.AdvisorReport())
		}},
		{"/advisor.txt", "the same profile as a human table, upgrade candidates first", func(w http.ResponseWriter, req *http.Request) {
			w.Header().Set("Content-Type", "text/plain; charset=utf-8")
			a.AdvisorReport().WriteTable(w)
		}},
		{"/owners", "owned regions (holder age, acquire site, queue depth) and top-contended table as JSON", func(w http.ResponseWriter, req *http.Request) {
			writeJSON(w, a.Owners())
		}},
		{"/slabs", "off-heap backing-store accounting and per-region slab page counts as JSON", func(w http.ResponseWriter, req *http.Request) {
			writeJSON(w, a.slabsDoc())
		}},
		{"/trace", "ring-tracer occupancy and recent lifecycle events as JSON (?n= limits to the last n)", func(w http.ResponseWriter, req *http.Request) {
			doc := struct {
				Attached bool         `json:"attached"`
				Stats    *TraceStats  `json:"stats,omitempty"`
				Events   []TraceEvent `json:"events"`
			}{Events: []TraceEvent{}}
			if ts, ok := a.traceStats(); ok {
				doc.Attached = true
				doc.Stats = &ts
			}
			if evs, ok := a.traceEvents(); ok {
				doc.Attached = true
				if q := req.URL.Query().Get("n"); q != "" {
					if n, err := strconv.Atoi(q); err == nil && n >= 0 && n < len(evs) {
						evs = evs[len(evs)-n:]
					}
				}
				doc.Events = evs
			}
			writeJSON(w, doc)
		}},
	}
}

// DebugHandler returns an http.Handler exposing the arena's live state,
// meant to be mounted on an internal/debug mux. The index page at /
// lists every endpoint with a one-line description; the list is
// generated from the same table the routes are registered from, so it
// is always complete. The endpoints:
//
//	/hierarchy      live region forest as JSON ({"stats": ..., "regions": ...})
//	/hierarchy.dot  the same forest as Graphviz dot
//	/counters       ArenaStats + cumulative ArenaCounters (when built
//	                WithMetrics) + ring-tracer occupancy and advisor
//	                summary (when attached) as JSON
//	/blocked        blocked-deleters report as JSON
//	/audit          whole-arena invariant audit (region_audit.go) as JSON;
//	                exact when the arena is quiesced, advisory under load
//	/advisor        annotation-advisor call-site profile (AdvisorReport)
//	                as JSON; reports enabled=false unless the arena was
//	                built WithAdvisor
//	/advisor.txt    the same profile as a human table, upgrade candidates
//	                ranked by wasted rc updates first
//	/owners         ownership report (region_owner.go) as JSON: every
//	                owned region with holder age, acquire site and queue
//	                depth, the arena-wide parked-waiter count, and the
//	                top-contended regions by lifetime wait count
//	/slabs          off-heap backing-store report (region_slab.go) as
//	                JSON: enabled flag, the store's page/byte accounting
//	                (SlabStats), and per-region tracked page counts —
//	                reports enabled=false until a store is attached with
//	                WithOffHeapSlabs or WithBackingStore
//	/trace          attached RingTracer's occupancy stats and buffered
//	                lifecycle events as JSON; ?n=K limits to the last K
//
// The handler only reads: it arms no instrument. Build the arena
// WithMetrics for /counters to carry the cumulative counters, and
// WithAdvisor or WithTracer for the advisor and trace endpoints.
func (a *Arena) DebugHandler() http.Handler {
	mux := http.NewServeMux()
	endpoints := a.debugEndpoints()
	for _, ep := range endpoints {
		mux.HandleFunc(ep.path, ep.handler)
	}
	mux.HandleFunc("/{$}", func(w http.ResponseWriter, req *http.Request) {
		st := a.Stats()
		fmt.Fprintf(w, "rcgo arena debug\n\n")
		fmt.Fprintf(w, "live_regions=%d deferred_regions=%d owned_regions=%d live_objects=%d regions_created=%d shards=%d\n",
			st.LiveRegions, st.DeferredRegions, st.OwnedRegions, st.LiveObjects, st.RegionsCreated, st.Shards)
		if ts, ok := a.traceStats(); ok {
			fmt.Fprintf(w, "trace_events=%d trace_buffered=%d trace_dropped=%d\n",
				ts.Total, ts.Buffered, ts.Dropped)
		}
		if as, ok := a.advisorStats(); ok {
			fmt.Fprintf(w, "advisor_sites=%d advisor_upgrade_candidates=%d advisor_wasted_rc_updates=%d\n",
				as.Sites, as.UpgradeCandidates, as.WastedRCUpdates)
		}
		fmt.Fprintf(w, "\nendpoints:\n")
		for _, ep := range endpoints {
			fmt.Fprintf(w, "  %-15s %s\n", ep.path, ep.desc)
		}
	})
	return mux
}

// SlabRegionPages is one row of the /slabs report: a region and the
// backing-store pages its slab chunks currently occupy.
type SlabRegionPages struct {
	ID    int64 `json:"id"`
	Pages int64 `json:"pages"`
}

// SlabsReport is the /slabs document: whether a backing store is
// attached, its page/byte accounting, and the per-region tracked page
// counts (regions with zero pages are omitted). At quiesce the store's
// InUsePages equals the sum of the region rows — the same invariant
// the auditor's slab-pages-total rule enforces.
type SlabsReport struct {
	Enabled bool              `json:"enabled"`
	Stats   SlabStats         `json:"stats,omitempty"`
	Regions []SlabRegionPages `json:"regions"`
}

// slabsDoc assembles the /slabs report with the usual inspector
// discipline: one registry shard lock at a time, never blocking the
// runtime.
func (a *Arena) slabsDoc() SlabsReport {
	rep := SlabsReport{Regions: []SlabRegionPages{}}
	if a.backing == nil {
		return rep
	}
	rep.Enabled = true
	rep.Stats = a.backing.Stats()
	a.EachRegion(func(r *Region) {
		if n := r.slabPageCount(); n > 0 {
			rep.Regions = append(rep.Regions, SlabRegionPages{ID: r.id, Pages: n})
		}
	})
	sort.Slice(rep.Regions, func(i, j int) bool { return rep.Regions[i].ID < rep.Regions[j].ID })
	return rep
}

// countersDoc is the shared JSON document of the /counters endpoint and
// PublishExpvar: arena stats and — when attached — the cumulative
// counters, the ring tracer's occupancy/drop counts and the annotation
// advisor's summary (site and upgrade-candidate counts, no symbol
// resolution), so monitoring can detect lost lifecycle events and
// annotation upgrades left on the table from one scrape.
func (a *Arena) countersDoc() any {
	doc := struct {
		Stats    ArenaStats     `json:"stats"`
		Counters *ArenaCounters `json:"counters,omitempty"`
		Trace    *TraceStats    `json:"trace,omitempty"`
		Advisor  *AdvisorStats  `json:"advisor,omitempty"`
		Slabs    *SlabStats     `json:"slabs,omitempty"`
	}{Stats: a.Stats()}
	if a.MetricsEnabled() {
		c := a.Counters()
		doc.Counters = &c
	}
	if ts, ok := a.traceStats(); ok {
		doc.Trace = &ts
	}
	if as, ok := a.advisorStats(); ok {
		doc.Advisor = &as
	}
	if ss, ok := a.SlabStats(); ok {
		doc.Slabs = &ss
	}
	return doc
}

// expvarMu serializes the exists-check against Publish, which panics on
// duplicate names.
var expvarMu sync.Mutex

// PublishExpvar publishes the arena's /counters document as one
// expvar.Func under the given name (served by the standard /debug/vars
// endpoint); like DebugHandler it arms nothing, so the counters appear
// only on an arena built WithMetrics. expvar names are process-global
// and cannot be unpublished, so publishing two arenas under one name is
// an error.
func (a *Arena) PublishExpvar(name string) error {
	expvarMu.Lock()
	defer expvarMu.Unlock()
	if expvar.Get(name) != nil {
		return fmt.Errorf("rcgo: expvar %q already published", name)
	}
	expvar.Publish(name, expvar.Func(func() any { return a.countersDoc() }))
	return nil
}
