package rcgo_test

// In-process chaos run (cmd/rcchaos at test scale): the sequential
// phase is model-checked op by op, the concurrent phases run under
// whatever detector the test binary was built with (make chaos / make
// race run this under -race), the audit must be clean at every quiesce
// point, and every instrumented failpoint site must fire.
//
// The file lives in package rcgo_test because internal/chaos imports
// rcgo: an external test package breaks the cycle.

import (
	"testing"

	"rcgo/internal/chaos"
)

func TestChaos(t *testing.T) {
	cfg := chaos.Config{
		Seed:    20260806,
		SeqOps:  6000,
		Workers: 8,
		ConcOps: 600,
		Log:     t.Logf,
	}
	if testing.Short() {
		cfg.SeqOps = 2000
		cfg.Workers = 4
		cfg.ConcOps = 200
	}
	rep, err := chaos.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Coverage) != 9 {
		t.Fatalf("expected 9 instrumented sites, got %d: %+v", len(rep.Coverage), rep.Coverage)
	}
	for _, st := range rep.Coverage {
		if st.Fires == 0 {
			t.Errorf("site %s never fired", st.Name)
		}
	}
	// Run's quiesce judges hold every phase to the accounting
	// identities; these are the floors that prove each phase exercised
	// its subsystem.
	ph := rep.Phases
	for _, name := range []string{"perturb", "errors"} {
		if ph[name].TraceStats.Total == 0 {
			t.Errorf("%s: no lifecycle events traced", name)
		}
	}
	if c := ph["alloc-churn"].Counters; c.Allocs == 0 || c.AllocFlushes == 0 {
		t.Errorf("alloc-churn phase inert: allocs=%d flushes=%d", c.Allocs, c.AllocFlushes)
	}
	fabric := ph["fabric"]
	if fabric.Counters.Allocs == 0 {
		t.Error("fabric phase allocated nothing")
	}
	if fabric.ShardsPopulated < 2 {
		t.Errorf("fabric phase populated %d shard(s), want >= 2", fabric.ShardsPopulated)
	}
	wantLive := int64(cfg.Workers * 32) // each worker's ring, still live at quiesce entry
	if fabric.LiveBeforeQuiesce < wantLive {
		t.Errorf("fabric phase had %d regions live before quiesce, want >= %d",
			fabric.LiveBeforeQuiesce, wantLive)
	}
	if c := ph["ownership"].Counters; c.Acquires == 0 || c.OwnerFlushes == 0 {
		t.Errorf("ownership phase inert: acquires=%d owner flushes=%d", c.Acquires, c.OwnerFlushes)
	}
	if c := ph["contention"].Counters; c.Acquires == 0 || c.AcquireWaits == 0 || c.OwnerRevocations == 0 {
		t.Errorf("contention phase inert: acquires=%d waits=%d revocations=%d",
			c.Acquires, c.AcquireWaits, c.OwnerRevocations)
	}
	if ph["slab"].Counters.SlabRefills == 0 {
		t.Error("slab phase never carved a slab-backed chunk")
	}
}

// FuzzDeleteStateMachine fuzzes the delete state machine: arbitrary
// bytes decode to an op sequence (3 bytes per op) that is applied to a
// fresh arena and to the sequential reference model, comparing every
// op's outcome class and every region's counters after every op, then
// draining and requiring a clean audit. Run longer with:
//
//	go test -fuzz FuzzDeleteStateMachine -fuzztime 30s -fuzzminimizetime 20x .
//
// Bounding minimization matters: the target is stateful enough that
// most early inputs grow coverage, and the default 60s-per-input
// minimization budget makes the fuzzer look hung (execs stall at the
// corpus size while a single input is minimized).
func FuzzDeleteStateMachine(f *testing.F) {
	// Seeds: the generated random schedules (interesting op mixes), a
	// couple of degenerate inputs, and a delete-heavy byte pattern.
	for _, seed := range []int64{1, 2, 3} {
		var data []byte
		for _, op := range chaos.RandomOps(seed, 200) {
			data = append(data, byte(op.Kind), byte(op.A), byte(op.B))
		}
		f.Add(data)
	}
	f.Add([]byte{})
	f.Add([]byte{8, 0, 0, 9, 0, 0, 8, 0, 0}) // delete / delete-deferred churn
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 4096 {
			data = data[:4096] // bound each case so the fuzzer explores widely
		}
		h := chaos.NewHarness()
		if err := chaos.RunSeq(h, chaos.DecodeOps(data), nil, 500); err != nil {
			t.Fatal(err)
		}
	})
}
