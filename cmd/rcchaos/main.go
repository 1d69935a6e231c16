// Command rcchaos runs the chaos harness for the concurrent region
// runtime (internal/chaos): a seeded sequential phase checked op-by-op
// against a reference model of the delete state machine, then the
// seven concurrent phases of the harness's phase table — scheduler
// perturbation, error injection, allocation churn through the fast
// path's caches, multi-shard fabric churn with hundreds of live
// regions, ownership hand-off churn around a token ring, a contention
// storm of blocking acquirers against one hub region, and off-heap
// slab churn with injected map failures and immediate page reclaim —
// each with its failpoints armed, and each held at quiesce to the same
// judge: a clean Arena.Audit, exact counter identities, nothing left
// alive, and no drained zombie left for the sweep unless the phase
// injected drain errors. One summary line per phase is printed, and
// failpoint site coverage is reported at exit; the run fails if any
// site never fired.
//
// Meant to run under the race detector (make chaos):
//
//	go run -race rcgo/cmd/rcchaos -seed 1 -seq-ops 20000 -workers 8 -conc-ops 3000
//
// A single phase can be rerun in isolation with -phase (same seeds and
// failpoint rules as its slot in the full run, coverage gate skipped):
//
//	go run -race rcgo/cmd/rcchaos -phase contention -seed 1 -workers 8 -conc-ops 3000
package main

import (
	"flag"
	"fmt"
	"os"
	"slices"
	"strings"

	"rcgo/internal/chaos"
)

func main() {
	seed := flag.Int64("seed", 1, "seed for op generation and failpoint triggers")
	seqOps := flag.Int("seq-ops", 20000, "ops in the sequential model-checked phase")
	workers := flag.Int("workers", 8, "goroutines per concurrent phase")
	concOps := flag.Int("conc-ops", 3000, "ops per worker per concurrent phase")
	phase := flag.String("phase", "", "run a single phase by name (empty = full run)")
	quiet := flag.Bool("q", false, "suppress progress output")
	flag.Parse()

	logf := func(format string, args ...any) {
		fmt.Printf("rcchaos: "+format+"\n", args...)
	}
	if *quiet {
		logf = nil
	}

	cfg := chaos.Config{
		Seed:    *seed,
		SeqOps:  *seqOps,
		Workers: *workers,
		ConcOps: *concOps,
		Log:     logf,
	}

	var rep *chaos.Report
	var err error
	if *phase == "" {
		rep, err = chaos.Run(cfg)
	} else {
		if !slices.Contains(chaos.PhaseNames(), *phase) {
			fmt.Fprintf(os.Stderr, "rcchaos: unknown phase %q; phases are: %s\n",
				*phase, strings.Join(chaos.PhaseNames(), ", "))
			os.Exit(2)
		}
		rep, err = chaos.RunPhase(*phase, cfg)
	}

	fmt.Printf("rcchaos: seed=%d\n", *seed)
	if rep.SeqOutcomes != nil {
		fmt.Printf("rcchaos: sequential: %d ops, outcomes %v\n", rep.SeqOps, rep.SeqOutcomes)
	}
	for _, name := range chaos.PhaseNames() {
		if res, ok := rep.Phases[name]; ok {
			fmt.Printf("rcchaos: concurrent/%s: %s\n", name, res.Summary())
		}
	}
	if *phase == "" {
		fmt.Println("rcchaos: failpoint site coverage:")
		for _, st := range rep.Coverage {
			fmt.Printf("rcchaos:   %-24s evals=%-8d fires=%d\n", st.Name, st.Evals, st.Fires)
		}
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "rcchaos: FAIL: %v\n", err)
		os.Exit(1)
	}
	if *phase != "" {
		fmt.Printf("rcchaos: PASS — phase %s clean (coverage gate skipped)\n", *phase)
		return
	}
	fmt.Println("rcchaos: PASS — zero divergences, every quiesce judge passed, full site coverage")
}
