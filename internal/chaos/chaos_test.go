package chaos

import (
	"fmt"
	"testing"
)

// The sequential engine with no failpoints must track the runtime
// exactly over a long random schedule.
func TestSequentialModelNoFailpoints(t *testing.T) {
	for seed := int64(1); seed <= 5; seed++ {
		h := NewHarness()
		if err := RunSeq(h, RandomOps(seed, 4000), nil, 200); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		out := h.Outcomes()
		for _, want := range []string{"ok", "in-use", "deleted"} {
			if out[want] == 0 {
				t.Fatalf("seed %d: outcome %q never observed: %v", seed, want, out)
			}
		}
	}
}

// The same schedules with error failpoints armed on every site: the
// model must still track the runtime (injected ops are no-ops), and
// every site must fire.
func TestSequentialModelWithFailpoints(t *testing.T) {
	before := fires(t)
	h := NewHarness()
	if err := RunSeq(h, RandomOps(7, 6000), SeqRules(7), 200); err != nil {
		t.Fatal(err)
	}
	if h.Outcomes()["injected"] == 0 {
		t.Fatalf("no injected outcomes: %v", h.Outcomes())
	}
	after := fires(t)
	for name, n := range after {
		if name == "rcgo/own.handoff" {
			// A hand-off needs a parked waiter, which a single-threaded
			// schedule cannot produce; the contention phase covers it.
			continue
		}
		if name == "rcgo/slab.map" {
			// The slab carve needs a backing store and a pointer-free
			// payload; the model's node carries Ref slots, so the
			// sequential schedule can never reach the site. The slab
			// phase covers it.
			continue
		}
		if n == before[name] {
			t.Errorf("site %s never fired", name)
		}
	}
}

// Same seed, same ops, same rules: the injected-outcome count is
// reproducible (sequential execution makes the per-site evaluation
// order deterministic too).
func TestSequentialDeterminism(t *testing.T) {
	run := func() map[string]int {
		h := NewHarness()
		if err := RunSeq(h, RandomOps(11, 3000), SeqRules(11), 0); err != nil {
			t.Fatal(err)
		}
		return h.Outcomes()
	}
	a, b := run(), run()
	for k, v := range a {
		if b[k] != v {
			t.Fatalf("outcome %q: %d vs %d (a=%v b=%v)", k, v, b[k], a, b)
		}
	}
}

// Every phase runs through the one entry point: first at the smallest
// scale a full run uses, then each concurrent phase at its own scale
// with the floors that prove it exercised its subsystem (RunPhase's own
// judge holds the accounting identities). Unknown names are rejected
// with the phase list.
func TestRunPhase(t *testing.T) {
	scale := func(full, short int) int {
		if testing.Short() {
			return short
		}
		return full
	}
	traced := func(r ConcResult) error {
		if r.TraceStats.Total == 0 {
			return fmt.Errorf("no lifecycle events traced")
		}
		return nil
	}
	rows := map[string]struct {
		seed  int64 // Config.Seed; the phase seed adds the phase's offset
		ops   int
		floor func(ConcResult) error
	}{
		"perturb": {2, scale(400, 150), traced},
		"errors":  {1, scale(400, 150), traced},
		"alloc-churn": {2, scale(2000, 500), func(r ConcResult) error {
			if r.Counters.Allocs == 0 || r.Counters.AllocFlushes == 0 {
				return fmt.Errorf("churn inert: allocs=%d flushes=%d", r.Counters.Allocs, r.Counters.AllocFlushes)
			}
			return nil
		}},
		"fabric": {3, scale(400, 150), func(r ConcResult) error {
			if r.Counters.Allocs == 0 || r.ShardsPopulated < 2 || r.LiveBeforeQuiesce < 4*32 {
				return fmt.Errorf("fabric inert: %d allocs, %d regions live on %d shards",
					r.Counters.Allocs, r.LiveBeforeQuiesce, r.ShardsPopulated)
			}
			return nil
		}},
		"ownership": {4, scale(400, 150), func(r ConcResult) error {
			if r.Counters.Acquires == 0 || r.Counters.OwnerFlushes == 0 {
				return fmt.Errorf("ownership inert: acquires=%d owner flushes=%d",
					r.Counters.Acquires, r.Counters.OwnerFlushes)
			}
			return traced(r)
		}},
		"contention": {7, scale(400, 150), func(r ConcResult) error {
			if r.Counters.Acquires == 0 || r.Counters.AcquireWaits == 0 {
				return fmt.Errorf("contention inert: acquires=%d waits=%d",
					r.Counters.Acquires, r.Counters.AcquireWaits)
			}
			return nil
		}},
		"slab": {6, scale(400, 150), func(r ConcResult) error {
			if r.Counters.SlabRefills == 0 {
				return fmt.Errorf("no slab-backed chunk")
			}
			return nil
		}},
	}
	for _, name := range PhaseNames() {
		t.Run(name, func(t *testing.T) {
			if _, err := RunPhase(name, Config{Seed: 2, SeqOps: 500, Workers: 2, ConcOps: 60}); err != nil {
				t.Fatalf("small scale: %v", err)
			}
			row, ok := rows[name]
			if !ok {
				if name != "seq" {
					t.Fatalf("phase %s has no real-scale row", name)
				}
				return
			}
			rep, err := RunPhase(name, Config{Seed: row.seed, Workers: 4, ConcOps: row.ops})
			if err != nil {
				t.Fatal(err)
			}
			if err := row.floor(rep.Phases[name]); err != nil {
				t.Fatal(err)
			}
		})
	}
	if _, err := RunPhase("no-such-phase", Config{Seed: 1}); err == nil {
		t.Fatal("unknown phase accepted")
	}
}

func fires(t *testing.T) map[string]uint64 {
	t.Helper()
	out := make(map[string]uint64)
	for _, st := range siteCoverage() {
		out[st.Name] = st.Fires
	}
	if len(out) != 9 {
		t.Fatalf("expected 9 rcgo sites, got %v", out)
	}
	return out
}
