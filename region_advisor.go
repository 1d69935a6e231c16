package rcgo

import (
	"fmt"
	"io"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// The annotation advisor: a per-call-site store-flavour profiler for the
// concurrent Go-native runtime (DESIGN.md §13).
//
// The paper's central result is that annotations make reference counting
// nearly free — but a Go-native caller picks SetRef/SetSame/SetTrad/
// SetParent by hand, and a conservative choice silently pays the full
// counted protocol on every store. The pipeline's whole-program
// inference (internal/rlang, paper §4.3) removes that cost statically
// for RC programs; the advisor re-delivers the same flavour lattice as
// live telemetry for Go code: at every successful non-nil store the
// runtime already holds the holder's and the target's regions, so when
// advising is armed it classifies the store against the lattice
//
//	same-region target            → SetSame legal   (one identity compare)
//	target is the traditional     → SetTrad legal   (one compare)
//	target is an ancestor         → SetParent legal (ancestry walk)
//	anything                      → SetRef legal    (full rc protocol)
//
// and records (call site, used flavour, which cheaper flavours were
// legal) into a sharded PC-keyed table. A call site whose every
// observed store admits a cheaper flavour is an upgrade candidate: the
// report recommends the cheapest flavour that was legal for ALL of the
// site's stores (the lattice meet over its observations — a flavour
// legal only sometimes would make the upgraded store fail ErrBadRef).
//
// Cost contract, shared with the metrics gate (region_metrics.go): both
// sit behind one instruments pointer cached on every Region, so with
// the advisor disarmed (the default) each store pays one already-hot
// pointer load and a never-taken branch — measured within the
// established <5% best-of-10 bound on parallel SetSame/SetRef
// (EXPERIMENTS.md §"Annotation advisor"). Armed, each store additionally pays a
// runtime.Callers walk (two frames) plus one or two atomic adds; call
// sites are resolved to file:line only lazily, at report time, via
// runtime.CallersFrames.
//
// Exactness contract, like the PR 5 counter contract: every successful
// non-nil store observed while the advisor is armed increments its
// entry's counters before the Set* call returns, so once the arena
// quiesces (no store in flight) the table is exact — the fabric stress
// and the chaos alloc-churn phase hold the advisor to that bound under
// -race. The advisor is armed at NewArena (WithAdvisor) or never, so
// the profile covers the arena's whole life.

// StoreFlavour identifies one of the four store APIs, ordered by cost:
// a smaller flavour is cheaper at store time. The order is the advisor's
// upgrade lattice — FlavourSame and FlavourTrad are single-compare
// checks (same first: it needs no extra load), FlavourParent walks the
// immutable ancestor chain, FlavourRef pays the full counted protocol.
type StoreFlavour int32

const (
	// FlavourSame is SetSame: target in the holder's own region.
	FlavourSame StoreFlavour = iota
	// FlavourTrad is SetTrad: target in the arena's traditional region.
	FlavourTrad
	// FlavourParent is SetParent: target in an ancestor (or the same)
	// region of the holder's.
	FlavourParent
	// FlavourRef is SetRef: any live target, full reference counting.
	FlavourRef

	flavourCount = 4
)

// flavourFuncs names each flavour's store function, indexed by
// StoreFlavour.
var flavourFuncs = [flavourCount]string{"SetSame", "SetTrad", "SetParent", "SetRef"}

// String names the flavour after its store function.
func (f StoreFlavour) String() string {
	if f >= 0 && f < flavourCount {
		return flavourFuncs[f]
	}
	return fmt.Sprintf("StoreFlavour(%d)", int32(f))
}

// MarshalText renders the flavour as its name in JSON output.
func (f StoreFlavour) MarshalText() ([]byte, error) { return []byte(f.String()), nil }

// UnmarshalText parses the name MarshalText produces, so an
// AdvisorReport round-trips through JSON (the /advisor endpoint's
// clients decode into the same types).
func (f *StoreFlavour) UnmarshalText(b []byte) error {
	for i, name := range flavourFuncs {
		if string(b) == name {
			*f = StoreFlavour(i)
			return nil
		}
	}
	return fmt.Errorf("unknown store flavour %q", b)
}

// advisorPCDepth is the number of raw PCs captured per observation:
// the store function's direct caller plus one more frame, so call
// sites reached through a non-inlined MustSet* wrapper still key and
// resolve to the wrapper's own caller.
const advisorPCDepth = 2

// advisorKey identifies one profiled call site: the captured PC stack
// and the flavour the site actually used (a site that somehow mixes
// flavours — a generic helper, say — gets one entry per flavour).
type advisorKey struct {
	pcs  [advisorPCDepth]uintptr
	used StoreFlavour
}

// advisorEntry accumulates one call site's observations. All counters
// are atomics updated outside the shard lock, so concurrent stores at
// one hot call site never serialize on the table.
type advisorEntry struct {
	key advisorKey
	// count is the total successful non-nil stores observed.
	count atomic.Int64
	// legal counts, per cheaper flavour (indexed by StoreFlavour below
	// FlavourRef), how many of those stores that flavour would have
	// accepted. legal[f] == count means f was legal every time — the
	// condition for recommending it.
	legal [flavourCount - 1]atomic.Int64
	// external counts stores that actually paid reference-count updates
	// (used == FlavourRef with a cross-region target): the report's
	// wasted-rc-updates ranking is 2× this (one increment at the store,
	// one decrement at overwrite or delete-time unscan).
	external atomic.Int64
	// traced flips once when the site first observes an upgradeable
	// store, so TraceStoreUpgradeable fires once per entry, not per
	// store.
	traced atomic.Bool
}

// advisorShards is the number of table shards. Sites hash by PC, so
// distinct call sites rarely share a shard lock; one site's stores
// share an entry but update it with atomics only.
const advisorShards = 64

// advisorShard is one shard of the call-site table, padded so two
// shards' locks never share a cache line.
type advisorShard struct {
	mu sync.RWMutex
	m  map[advisorKey]*advisorEntry
	_  [24]byte
}

// arenaAdvisor is the sharded call-site table, allocated when advising
// is armed.
type arenaAdvisor struct {
	shards [advisorShards]advisorShard
}

func (ad *arenaAdvisor) shard(k advisorKey) *advisorShard {
	h := (k.pcs[0] ^ k.pcs[1]*0x9E3779B97F4A7C15 ^ uintptr(k.used)) * 0x9E3779B97F4A7C15 >> 32
	return &ad.shards[h%advisorShards]
}

// entry returns (creating if needed) the accumulator for k. The common
// case — the site already seen — is a read-locked map hit.
func (ad *arenaAdvisor) entry(k advisorKey) *advisorEntry {
	sh := ad.shard(k)
	sh.mu.RLock()
	e := sh.m[k]
	sh.mu.RUnlock()
	if e != nil {
		return e
	}
	sh.mu.Lock()
	if sh.m == nil {
		sh.m = make(map[advisorKey]*advisorEntry)
	}
	if e = sh.m[k]; e == nil {
		e = &advisorEntry{key: k}
		sh.m[k] = e
	}
	sh.mu.Unlock()
	return e
}

// observe records one successful non-nil store. It must be called
// directly from the store core (store, region_store.go), which every
// public Set* and Set*Owned calls directly: the PC capture skips four
// logical frames — Callers, observe, store, the public store function —
// which runtime.Callers counts correctly whether or not any of them is
// inlined, so the first captured PC is the public function's caller.
//
// The caller has already validated the store, so tr is non-nil; the
// classification is the store core's annotation predicate, legal.
func (ad *arenaAdvisor) observe(hr, tr *Region, used StoreFlavour) {
	var k advisorKey
	k.used = used
	runtime.Callers(4, k.pcs[:])

	e := ad.entry(k)
	e.count.Add(1)
	cheapest := FlavourRef
	for f := FlavourParent; f >= FlavourSame; f-- {
		if legal(f, hr, tr) {
			e.legal[f].Add(1)
			cheapest = f
		}
	}
	if used == FlavourRef && tr != hr {
		e.external.Add(1)
	}
	if cheapest < used && !e.traced.Load() && e.traced.CompareAndSwap(false, true) {
		hr.note(TraceStoreUpgradeable, 1)
	}
}

// recommend is the lattice meet over the entry's count observed
// stores: the cheapest flavour legal for all of them, never costlier
// than the flavour the site already uses (its own annotation proved
// itself legal on every observed store).
func (e *advisorEntry) recommend(count int64) StoreFlavour {
	for f := FlavourSame; f < e.key.used; f++ {
		if e.legal[f].Load() == count {
			return f
		}
	}
	return e.key.used
}

// entries snapshots the call-site table, shard by shard.
func (ad *arenaAdvisor) entries() []*advisorEntry {
	var es []*advisorEntry
	for i := range ad.shards {
		sh := &ad.shards[i]
		sh.mu.RLock()
		for _, e := range sh.m {
			es = append(es, e)
		}
		sh.mu.RUnlock()
	}
	return es
}

// WithAdvisor arms the annotation advisor from birth, so the profile
// covers the arena's whole life. Armed, every successful non-nil Set*
// store pays a two-frame runtime.Callers walk; leave the advisor off in
// production unless the profile is wanted.
func WithAdvisor() Option {
	return func(c *arenaConfig) { c.advisor = true }
}

// AdvisorEnabled reports whether the arena was built WithAdvisor.
func (a *Arena) AdvisorEnabled() bool { return a.instr.advisor != nil }

// AdvisorSite is one profiled call site of the advisor report: where
// the store is, the flavour it used, what the profile observed, and the
// cheapest flavour every observed store would have accepted.
type AdvisorSite struct {
	// Func / File / Line locate the call site, resolved lazily at
	// report time via runtime.CallersFrames (MustSet* wrapper frames are
	// skipped, so the site names the wrapper's caller).
	Func string `json:"func"`
	File string `json:"file"`
	Line int    `json:"line"`
	// Used is the flavour the site's code calls.
	Used StoreFlavour `json:"used"`
	// Count is the number of successful non-nil stores observed.
	Count int64 `json:"count"`
	// LegalSame / LegalTrad / LegalParent count how many of those
	// stores each cheaper flavour would have accepted.
	LegalSame   int64 `json:"legal_same"`
	LegalTrad   int64 `json:"legal_trad"`
	LegalParent int64 `json:"legal_parent"`
	// Recommended is the cheapest flavour legal for every observed
	// store (the lattice meet); equal to Used when no upgrade exists.
	Recommended StoreFlavour `json:"recommended"`
	// Upgrade is true when Recommended is strictly cheaper than Used.
	Upgrade bool `json:"upgrade"`
	// WastedRCUpdates counts reference-count updates an upgrade would
	// have avoided: 2 per cross-region counted store (the increment at
	// the store and the decrement at overwrite or unscan) at an
	// upgradeable SetRef site, 0 elsewhere — annotated-to-annotated
	// upgrades save check cost, not rc updates.
	WastedRCUpdates int64 `json:"wasted_rc_updates"`
}

// AdvisorReport is the advisor's call-site profile, produced by
// Arena.AdvisorReport and served by the debug inspector's /advisor
// endpoint.
type AdvisorReport struct {
	// Enabled reports whether the advisor was armed when the report was
	// taken; a disabled arena reports no sites.
	Enabled bool `json:"enabled"`
	// Sites is every profiled call site, upgrade candidates first,
	// ranked by wasted rc updates then by store count.
	Sites []AdvisorSite `json:"sites"`
	// Observations is the total successful non-nil stores profiled.
	Observations int64 `json:"observations"`
	// UpgradeCandidates is the number of sites with Upgrade set.
	UpgradeCandidates int `json:"upgrade_candidates"`
	// WastedRCUpdates sums the sites' WastedRCUpdates.
	WastedRCUpdates int64 `json:"wasted_rc_updates"`
}

// AdvisorReport snapshots the advisor's call-site table and resolves
// every site to file:line. Counters are read with atomic loads, shard
// by shard: the report is exact once the arena quiesces and a
// consistent approximation while stores are in flight. Symbol
// resolution walks runtime.CallersFrames per site, so the report is a
// debug-time operation, not a fast path.
func (a *Arena) AdvisorReport() AdvisorReport {
	ad := a.instr.advisor
	if ad == nil {
		return AdvisorReport{Sites: []AdvisorSite{}}
	}
	rep := AdvisorReport{Enabled: true, Sites: []AdvisorSite{}}
	for _, e := range ad.entries() {
		site := AdvisorSite{
			Used:        e.key.used,
			Count:       e.count.Load(),
			LegalSame:   e.legal[FlavourSame].Load(),
			LegalTrad:   e.legal[FlavourTrad].Load(),
			LegalParent: e.legal[FlavourParent].Load(),
		}
		site.Func, site.File, site.Line = resolveSite(e.key.pcs)
		site.Recommended = e.recommend(site.Count)
		site.Upgrade = site.Recommended < site.Used
		if site.Upgrade && site.Used == FlavourRef {
			site.WastedRCUpdates = 2 * e.external.Load()
		}
		rep.Sites = append(rep.Sites, site)
		rep.Observations += site.Count
		if site.Upgrade {
			rep.UpgradeCandidates++
			rep.WastedRCUpdates += site.WastedRCUpdates
		}
	}
	sort.Slice(rep.Sites, func(i, j int) bool {
		a, b := rep.Sites[i], rep.Sites[j]
		if a.Upgrade != b.Upgrade {
			return a.Upgrade
		}
		if a.WastedRCUpdates != b.WastedRCUpdates {
			return a.WastedRCUpdates > b.WastedRCUpdates
		}
		if a.Count != b.Count {
			return a.Count > b.Count
		}
		if a.File != b.File {
			return a.File < b.File
		}
		return a.Line < b.Line
	})
	return rep
}

// resolveSite expands a captured PC stack to the call site's function,
// file and line, skipping the library's own MustSet* wrapper frames so
// a store made through MustSetRef is attributed to the code that called
// the wrapper.
func resolveSite(pcs [advisorPCDepth]uintptr) (fn, file string, line int) {
	n := 0
	for n < len(pcs) && pcs[n] != 0 {
		n++
	}
	if n == 0 {
		return "?", "?", 0
	}
	frames := runtime.CallersFrames(pcs[:n])
	var first runtime.Frame
	for {
		f, more := frames.Next()
		if first.PC == 0 && f.PC != 0 {
			first = f
		}
		if f.PC != 0 && !strings.HasPrefix(f.Function, "rcgo.MustSet") {
			return f.Function, f.File, f.Line
		}
		if !more {
			break
		}
	}
	if first.PC == 0 {
		return "?", "?", 0
	}
	return first.Function, first.File, first.Line
}

// AdvisorStats is the advisor summary embedded in the /counters JSON
// and the expvar document: enough for a monitoring scraper to notice
// "this arena is leaving annotation upgrades on the table" without
// paying for per-site symbol resolution on every scrape.
type AdvisorStats struct {
	Sites             int   `json:"sites"`
	UpgradeCandidates int   `json:"upgrade_candidates"`
	Observations      int64 `json:"observations"`
	WastedRCUpdates   int64 `json:"wasted_rc_updates"`
}

// advisorStats summarizes the table without resolving symbols; ok is
// false while the advisor is disarmed.
func (a *Arena) advisorStats() (AdvisorStats, bool) {
	ad := a.instr.advisor
	if ad == nil {
		return AdvisorStats{}, false
	}
	var st AdvisorStats
	for _, e := range ad.entries() {
		st.Sites++
		count := e.count.Load()
		st.Observations += count
		if e.recommend(count) < e.key.used {
			st.UpgradeCandidates++
			if e.key.used == FlavourRef {
				st.WastedRCUpdates += 2 * e.external.Load()
			}
		}
	}
	return st, true
}

// WriteTable renders the report as the human table the /advisor.txt
// endpoint and rcbench -advise print: upgrade candidates first, ranked
// by wasted rc updates.
func (rep AdvisorReport) WriteTable(w io.Writer) {
	if !rep.Enabled {
		fmt.Fprintln(w, "advisor disabled: arm with rcgo.WithAdvisor() at construction")
		return
	}
	fmt.Fprintf(w, "advisor: %d observations over %d call sites, %d upgrade candidates, %d wasted rc updates\n",
		rep.Observations, len(rep.Sites), rep.UpgradeCandidates, rep.WastedRCUpdates)
	if len(rep.Sites) == 0 {
		return
	}
	fmt.Fprintf(w, "%-9s %-22s %10s %10s %10s %10s %10s  %s\n",
		"used", "recommend", "stores", "same-ok", "trad-ok", "parent-ok", "wasted-rc", "site")
	for _, s := range rep.Sites {
		rec := "(keep)"
		if s.Upgrade {
			rec = "upgrade:" + s.Recommended.String()
		}
		fmt.Fprintf(w, "%-9s %-22s %10d %10d %10d %10d %10d  %s (%s:%d)\n",
			s.Used, rec, s.Count, s.LegalSame, s.LegalTrad, s.LegalParent,
			s.WastedRCUpdates, s.Func, trimPath(s.File), s.Line)
	}
}

// String renders the report table, for %v-style logging.
func (rep AdvisorReport) String() string {
	var b strings.Builder
	rep.WriteTable(&b)
	return b.String()
}

// trimPath shortens an absolute source path to its last two elements,
// keeping the table readable without losing the package directory.
func trimPath(p string) string {
	i := strings.LastIndexByte(p, '/')
	if i < 0 {
		return p
	}
	if j := strings.LastIndexByte(p[:i], '/'); j >= 0 {
		return p[j+1:]
	}
	return p[i+1:]
}
