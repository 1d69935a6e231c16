package failpoint

import (
	"errors"
	"fmt"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// ErrInjected is the error returned by a site firing ActionError (unless
// the rule overrides Err). Runtime operations that surface it wrap it,
// so callers detect induced failures with errors.Is.
var ErrInjected = errors.New("failpoint: injected failure")

// Action is what a firing site does.
type Action int

const (
	// ActionError makes Eval return an error (the rule's Err, or
	// ErrInjected); the call site unwinds as if the operation failed.
	ActionError Action = iota
	// ActionDelay sleeps the rule's Delay, widening the race window the
	// site sits in.
	ActionDelay
	// ActionYield calls runtime.Gosched the rule's Yields times (at
	// least once), perturbing the scheduler at the site.
	ActionYield
	// ActionHook calls the rule's Hook function — test-only, for
	// deterministic interleaving control (block the site on a channel,
	// signal another goroutine, ...).
	ActionHook
)

// String names the action.
func (a Action) String() string {
	switch a {
	case ActionError:
		return "error"
	case ActionDelay:
		return "delay"
	case ActionYield:
		return "yield"
	case ActionHook:
		return "hook"
	}
	return fmt.Sprintf("Action(%d)", int(a))
}

// Rule arms a site: what to do when it fires and how often.
type Rule struct {
	Action Action
	// Num/Den set the firing rate: evaluation n fires iff
	// splitmix64(seed, n) mod Den < Num. Den <= 1 means fire always.
	Num, Den uint64
	// Seed makes the firing pattern reproducible; it is mixed with a
	// hash of the site name so one chaos seed drives all sites without
	// correlating them.
	Seed uint64
	// Delay is the ActionDelay sleep (default 100µs).
	Delay time.Duration
	// Yields is the ActionYield Gosched count (default 1).
	Yields int
	// Err overrides ErrInjected for ActionError. It is returned wrapped
	// in ErrInjected so errors.Is(err, ErrInjected) always detects an
	// induced failure.
	Err error
	// Hook is the ActionHook callback.
	Hook func()
}

// rule is the armed form of a Rule. The decision counter lives here,
// not on the site: every Enable starts a fresh deterministic firing
// stream, so re-arming with the same seed replays the same decisions
// (the site's eval/fire counters stay cumulative for coverage).
type rule struct {
	Rule
	seed uint64 // Seed ^ hash(site name)
	n    atomic.Uint64
}

// Site is one named injection point. Sites are created once (typically
// in package init of the instrumented runtime) and armed/disarmed any
// number of times. All methods are safe for concurrent use.
type Site struct {
	name  string
	armed atomic.Pointer[rule]
	evals atomic.Uint64 // evaluations while armed
	fires atomic.Uint64 // evaluations whose action triggered
}

// registry of all sites, keyed by name. New is idempotent per name so
// package-level site variables and by-name lookups agree.
var (
	regMu sync.Mutex
	reg   = make(map[string]*Site)
)

// New registers (or returns the existing) site with the given name.
func New(name string) *Site {
	regMu.Lock()
	defer regMu.Unlock()
	if s, ok := reg[name]; ok {
		return s
	}
	s := &Site{name: name}
	reg[name] = s
	return s
}

// Lookup returns the site with the given name, or nil.
func Lookup(name string) *Site {
	regMu.Lock()
	defer regMu.Unlock()
	return reg[name]
}

// Names returns the names of every registered site, sorted.
func Names() []string {
	regMu.Lock()
	defer regMu.Unlock()
	names := make([]string, 0, len(reg))
	for n := range reg {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// Enable arms the named site with r, replacing any previous rule.
// It returns an error if no such site is registered.
func Enable(name string, r Rule) error {
	s := Lookup(name)
	if s == nil {
		return fmt.Errorf("failpoint: no site %q", name)
	}
	s.Enable(r)
	return nil
}

// Disable disarms the named site. Unknown names are a no-op.
func Disable(name string) {
	if s := Lookup(name); s != nil {
		s.Disable()
	}
}

// DisableAll disarms every registered site.
func DisableAll() {
	regMu.Lock()
	sites := make([]*Site, 0, len(reg))
	for _, s := range reg {
		sites = append(sites, s)
	}
	regMu.Unlock()
	for _, s := range sites {
		s.Disable()
	}
}

// Name returns the site's registered name.
func (s *Site) Name() string { return s.name }

// Enable arms the site with r.
func (s *Site) Enable(r Rule) {
	if r.Den <= 1 {
		r.Num, r.Den = 1, 1
	}
	if r.Delay <= 0 {
		r.Delay = 100 * time.Microsecond
	}
	if r.Yields <= 0 {
		r.Yields = 1
	}
	s.armed.Store(&rule{Rule: r, seed: r.Seed ^ hashName(s.name)})
}

// Disable disarms the site. Evaluation and fire counters are kept (they
// are cumulative, like the arena's op counters) so coverage can be
// reported after a run has disarmed everything.
func (s *Site) Disable() { s.armed.Store(nil) }

// Armed reports whether the site currently has a rule.
func (s *Site) Armed() bool { return s.armed.Load() != nil }

// Eval is the call made at the injection point. Disarmed (the steady
// state) it is one atomic load and a branch, inlined into the caller.
// Armed, it decides deterministically whether evaluation n fires and
// applies the rule's action; only ActionError produces a non-nil
// result.
func (s *Site) Eval() error {
	if s.armed.Load() == nil {
		return nil
	}
	return s.evalArmed(true)
}

// Perturb is Eval for call sites that cannot unwind: ActionDelay,
// ActionYield and ActionHook apply as usual, but a firing ActionError
// only counts as a fire and injects nothing. Used on void lifecycle
// edges (DeleteDeferred's dying window) where an error has no channel
// to the caller.
func (s *Site) Perturb() {
	if s.armed.Load() != nil {
		s.evalArmed(false)
	}
}

// evalArmed is the armed body of Eval and Perturb, kept out of line so
// their disarmed check inlines. It reloads the rule: a Disable racing
// in between leaves nothing to apply.
func (s *Site) evalArmed(canErr bool) error {
	r := s.armed.Load()
	if r == nil {
		return nil
	}
	s.evals.Add(1)
	if n := r.n.Add(1); r.Den > 1 && splitmix64(r.seed, n)%r.Den >= r.Num {
		return nil
	}
	s.fires.Add(1)
	switch r.Action {
	case ActionError:
		if !canErr {
			return nil
		}
		if r.Err != nil {
			return fmt.Errorf("%w: %w at %s", ErrInjected, r.Err, s.name)
		}
		return fmt.Errorf("%w at %s", ErrInjected, s.name)
	case ActionDelay:
		time.Sleep(r.Delay)
	case ActionYield:
		for i := 0; i < r.Yields; i++ {
			runtime.Gosched()
		}
	case ActionHook:
		if r.Hook != nil {
			r.Hook()
		}
	}
	return nil
}

// Stats is a snapshot of one site's counters.
type Stats struct {
	Name  string `json:"name"`
	Armed bool   `json:"armed"`
	// Evals counts evaluations made while the site was armed (disarmed
	// evaluations are not counted — they are the zero-cost fast path).
	Evals uint64 `json:"evals"`
	// Fires counts evaluations whose action triggered.
	Fires uint64 `json:"fires"`
}

// Snapshot returns the counters of every registered site, sorted by
// name.
func Snapshot() []Stats {
	regMu.Lock()
	sites := make([]*Site, 0, len(reg))
	for _, s := range reg {
		sites = append(sites, s)
	}
	regMu.Unlock()
	out := make([]Stats, 0, len(sites))
	for _, s := range sites {
		out = append(out, Stats{
			Name:  s.name,
			Armed: s.Armed(),
			Evals: s.evals.Load(),
			Fires: s.fires.Load(),
		})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// hashName is FNV-1a over the site name, so each site gets an
// uncorrelated firing stream from one chaos seed.
func hashName(name string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(name); i++ {
		h ^= uint64(name[i])
		h *= 1099511628211
	}
	return h
}

// splitmix64 is the SplitMix64 output function over seed+n: a high
// quality, allocation-free, deterministic per-evaluation coin.
func splitmix64(seed, n uint64) uint64 {
	z := seed + n*0x9E3779B97F4A7C15
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}
