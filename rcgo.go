// Package rcgo is a Go reproduction of the system described in David Gay
// and Alex Aiken, "Language Support for Regions" (PLDI 2001): RC, a C
// dialect with reference-counted regions, its sameregion / traditional /
// parentptr type annotations, and the region type system with constraint
// inference that eliminates annotation checks statically.
//
// The package exposes two layers:
//
//   - The RC toolchain: Compile and Run take RC-dialect source through the
//     front end, the rlang constraint inference, the bytecode compiler and
//     the VM, over a choice of memory backends (reference-counted regions,
//     malloc/free emulation, or a conservative collector) and barrier
//     configurations (nq / qs / inf / nc / norc), mirroring the paper's
//     evaluation matrix.
//
//   - A Go-native safe region API (NewArena, Arena, Region, Alloc, Obj,
//     Ref, the Set*/MustSet* store flavours, Pin): arenas for Go programs
//     with the paper's dynamic safety guarantee — deleting a region fails
//     while external references remain. The runtime is safe for
//     concurrent use: reference counts are atomic, counted slots register
//     in one locked registry per region, and the annotated stores
//     (SetSame, SetTrad, SetParent) stay check-only with no writes to
//     shared cache lines, so they scale linearly across goroutines. See
//     region_api.go, region_store.go and region_stats.go.
package rcgo

import (
	"fmt"
	"io"
	"time"

	"rcgo/internal/alloc"
	"rcgo/internal/compile"
	"rcgo/internal/ir"
	"rcgo/internal/rcc"
	"rcgo/internal/region"
	"rcgo/internal/rlang"
	"rcgo/internal/vm"
)

// Mode names a barrier configuration from the paper's evaluation.
type Mode string

const (
	// ModeNQ ignores annotations: every pointer store runs the full
	// reference-count update.
	ModeNQ Mode = "nq"
	// ModeQS uses annotations with runtime checks.
	ModeQS Mode = "qs"
	// ModeInf removes the checks the constraint inference proves safe.
	ModeInf Mode = "inf"
	// ModeNC (unsafely) removes all annotation checks.
	ModeNC Mode = "nc"
	// ModeNoRC disables reference counting entirely ("norc").
	ModeNoRC Mode = "norc"
)

// Backend names a memory manager.
type Backend string

const (
	// BackendRegion is the RC runtime (reference-counted regions).
	BackendRegion Backend = "region"
	// BackendMalloc is the region-emulation library over malloc/free
	// (the paper's "lea" configuration).
	BackendMalloc Backend = "malloc"
	// BackendGC is the emulation over the conservative mark-sweep
	// collector (the paper's "GC" configuration).
	BackendGC Backend = "gc"
)

// Compiled is a fully analyzed and compiled RC program.
type Compiled struct {
	Checked *rcc.CheckedProgram
	Rlang   *rlang.Program
	Infer   *rlang.InferResult
	Prog    *ir.Program
	Mode    Mode
}

// Compile runs the pipeline: parse, type-check, translate to rlang, run
// the constraint inference, and lower to bytecode under the given mode.
func Compile(src string, mode Mode) (*Compiled, error) {
	prog, err := rcc.Parse(src)
	if err != nil {
		return nil, err
	}
	cp, err := rcc.Check(prog, true)
	if err != nil {
		return nil, err
	}
	rp := rlang.Translate(cp)
	inf := rlang.Infer(rp)
	// Validate the inferred typing against the Figure 6 rules: check
	// eliminations rest on an admissible typing, never on a fixpoint bug.
	if err := rlang.CheckProgram(rp, inf); err != nil {
		return nil, err
	}
	cmode, err := compileMode(mode)
	if err != nil {
		return nil, err
	}
	bc, err := compile.Compile(cp, cmode, inf.SafeSite)
	if err != nil {
		return nil, err
	}
	return &Compiled{Checked: cp, Rlang: rp, Infer: inf, Prog: bc, Mode: mode}, nil
}

func compileMode(m Mode) (compile.Mode, error) {
	switch m {
	case ModeNQ:
		return compile.ModeNQ, nil
	case ModeQS:
		return compile.ModeQS, nil
	case ModeInf, "":
		return compile.ModeInf, nil
	case ModeNC:
		return compile.ModeNC, nil
	case ModeNoRC:
		return compile.ModeNoRC, nil
	}
	return 0, fmt.Errorf("rcgo: unknown mode %q", m)
}

// RunConfig configures program execution.
type RunConfig struct {
	// Backend selects the memory manager (default BackendRegion).
	Backend Backend
	// CAtStyle runs the region backend with C@'s local-variable protocol
	// (stack scan at deleteregion) instead of RC's pins.
	CAtStyle bool
	// Output receives print_* output.
	Output io.Writer
	// MaxSteps bounds execution (0 = unlimited).
	MaxSteps int64
	// StackPages sizes the simulated stack.
	StackPages int
	// ParentCheckByWalk and DisablePointerFree are ablation switches for
	// the region runtime.
	ParentCheckByWalk  bool
	DisablePointerFree bool
	// Profile enables per-function instruction counting.
	Profile bool
}

// RunResult reports an execution's statistics.
type RunResult struct {
	Duration time.Duration
	VM       vm.Stats
	// Region is non-nil for the region backend.
	Region *region.Stats
	// Malloc/GC are non-nil for the corresponding emulation backends.
	Malloc *alloc.MallocStats
	GC     *alloc.GCStats
	// MaxHeapBytes is the peak simulated heap footprint.
	MaxHeapBytes int64
	// Profile holds per-function instruction counts when requested.
	Profile map[string]int64
}

// Run executes a compiled program and returns its statistics; program
// aborts (failed checks, unsafe deletions) are returned as errors.
func Run(c *Compiled, cfg RunConfig) (*RunResult, error) {
	vcfg := vm.Config{
		Output:             cfg.Output,
		MaxSteps:           cfg.MaxSteps,
		StackPages:         cfg.StackPages,
		ParentCheckByWalk:  cfg.ParentCheckByWalk,
		DisablePointerFree: cfg.DisablePointerFree,
		Profile:            cfg.Profile,
	}
	switch cfg.Backend {
	case BackendRegion, "":
		vcfg.Backend = vm.BackendRegion
		vcfg.Counting = c.Mode != ModeNoRC
		vcfg.Locals = vm.LocalsPins
		if cfg.CAtStyle {
			vcfg.Locals = vm.LocalsStackScan
		}
		if !vcfg.Counting {
			vcfg.Locals = vm.LocalsNone
		}
	case BackendMalloc:
		vcfg.Backend = vm.BackendMalloc
	case BackendGC:
		vcfg.Backend = vm.BackendGC
	default:
		return nil, fmt.Errorf("rcgo: unknown backend %q", cfg.Backend)
	}
	m := vm.New(c.Prog, vcfg)
	start := time.Now()
	err := m.Run()
	res := &RunResult{Duration: time.Since(start), VM: m.Stats, Profile: m.Profile()}
	switch vcfg.Backend {
	case vm.BackendRegion:
		st := m.RT.Stats
		res.Region = &st
		res.MaxHeapBytes = st.MaxLiveBytes
	case vm.BackendMalloc:
		st := m.EmuMallocStats()
		res.Malloc = &st
		res.MaxHeapBytes = st.MaxLive * 8
	case vm.BackendGC:
		st := m.EmuGCStats()
		res.GC = &st
		res.MaxHeapBytes = st.MaxLive * 8
	}
	return res, err
}

// RunSource compiles and runs in one step.
func RunSource(src string, mode Mode, cfg RunConfig) (*RunResult, error) {
	c, err := Compile(src, mode)
	if err != nil {
		return nil, err
	}
	return Run(c, cfg)
}
