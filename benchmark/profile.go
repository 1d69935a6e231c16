package main

import (
	"fmt"
	"strings"
	"time"

	"rcgo"
	"rcgo/internal/compile"
	"rcgo/internal/rcc"
	"rcgo/internal/rlang"
	"rcgo/internal/workloads"
)

// wantOutput is what each paper program prints at its default scale, on
// every backend. The setup oracle compares the region and gc backends'
// output against it.
var wantOutput = map[string]string{
	"apache":  "apache 934401\n",
	"grobner": "grobner 698083\n",
	"moss":    "moss 213955\n",
	"lcc":     "lcc -603693\n",
}

// profile is a paper program's op mix per region, read from the region
// runtime's counters after a qs-mode run. The workloads replay the mix,
// not the program's op sequence.
type profile struct {
	allocs  float64 // objects allocated
	refs    float64 // counted stores (the full rc update)
	cross   float64 // counted stores that made an external reference
	same    float64 // sameregion checks
	trad    float64 // traditional checks
	parent  float64 // parentptr checks
	pins    float64 // local pins at deletes-calls
	regions int64   // regions the program created
	objects int64   // objects the program allocated

	vmRun        time.Duration
	instructions int64
	bad          []string // setup oracle failures
}

// profileProgram compiles the named program in qs mode, runs it on the
// region backend for its profile and on the gc backend, and checks both
// outputs against wantOutput.
func profileProgram(name string) (*profile, error) {
	w := workloads.ByName(name)
	if w == nil {
		return nil, fmt.Errorf("no paper program %q", name)
	}
	c, err := rcgo.Compile(w.Source(0), rcgo.ModeQS)
	if err != nil {
		return nil, fmt.Errorf("compile %s: %w", name, err)
	}
	var regionOut, gcOut strings.Builder
	res, err := rcgo.Run(c, rcgo.RunConfig{Output: &regionOut})
	if err != nil {
		return nil, fmt.Errorf("run %s on the region backend: %w", name, err)
	}
	if _, err := rcgo.Run(c, rcgo.RunConfig{Backend: rcgo.BackendGC, Output: &gcOut}); err != nil {
		return nil, fmt.Errorf("run %s on the gc backend: %w", name, err)
	}
	st := res.Region
	n := float64(st.RegionsCreated)
	p := &profile{
		allocs:       float64(st.Allocs) / n,
		refs:         float64(st.FullUpdates) / n,
		cross:        float64(st.RCIncrements) / n,
		same:         float64(st.SameChecks) / n,
		trad:         float64(st.TradChecks) / n,
		parent:       float64(st.ParentChecks) / n,
		pins:         float64(st.PinOps) / n,
		regions:      st.RegionsCreated,
		objects:      st.Allocs,
		vmRun:        res.Duration,
		instructions: res.VM.Instructions,
	}
	want := wantOutput[name]
	for _, got := range []struct{ backend, out string }{{"region", regionOut.String()}, {"gc", gcOut.String()}} {
		if got.out != want {
			p.bad = append(p.bad, fmt.Sprintf("%s prints %q on the %s backend, want %q", name, got.out, got.backend, want))
		}
	}
	return p, nil
}

// stageTimes times the pipeline stages of rcgo.Compile one call each:
// parse, type-check, rlang translation plus inference plus its
// validation, and bytecode compilation.
func stageTimes(name string) (parse, check, infer, comp time.Duration, err error) {
	src := workloads.ByName(name).Source(0)
	t0 := time.Now()
	prog, err := rcc.Parse(src)
	if err != nil {
		return
	}
	t1 := time.Now()
	cp, err := rcc.Check(prog, true)
	if err != nil {
		return
	}
	t2 := time.Now()
	rp := rlang.Translate(cp)
	inf := rlang.Infer(rp)
	if err = rlang.CheckProgram(rp, inf); err != nil {
		return
	}
	t3 := time.Now()
	if _, err = compile.Compile(cp, compile.ModeQS, inf.SafeSite); err != nil {
		return
	}
	t4 := time.Now()
	return t1.Sub(t0), t2.Sub(t1), t3.Sub(t2), t4.Sub(t3), nil
}
