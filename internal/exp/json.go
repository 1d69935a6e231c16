package exp

// Machine-readable benchmark results for cmd/rcbench -json. The schema
// is versioned so recorded trajectory files (BENCH_*.json) stay
// comparable across runs: consumers must check Schema before reading
// any other field, and additions bump the minor suffix only when a
// field changes meaning. (*BenchReport).Validate holds the invariants;
// cmd/benchlint applies it to stdin, and `make ab-smoke` runs a tiny
// rcbench -json through it.

import (
	"fmt"
	"math"

	"rcgo"
)

// BenchSchema identifies the report layout. Format: "rcgo.bench/<n>".
const BenchSchema = "rcgo.bench/2"

// BenchOptions echoes the options the report was produced under, so a
// recorded file is self-describing.
type BenchOptions struct {
	// Scale is the workload scale override (0 = per-workload defaults).
	Scale int `json:"scale"`
	// Reps is the number of timed runs per configuration; sim_ns is
	// deterministic, wall_ns is the best of the reps.
	Reps int `json:"reps"`
}

// WorkloadReport is one workload's cells: the RC configuration's
// deterministic simulated time and operation counters, with the norc
// configuration as the overhead baseline.
type WorkloadReport struct {
	Name string `json:"name"`
	// SimNanos is the deterministic simulated execution time of the RC
	// configuration (the paper's primary comparison axis).
	SimNanos int64 `json:"sim_ns"`
	// WallNanos is the best wall-clock time across reps (noisy,
	// secondary).
	WallNanos int64 `json:"wall_ns"`
	// BaselineSimNanos is the norc configuration's simulated time.
	BaselineSimNanos int64 `json:"baseline_sim_ns"`
	// RCOverheadPct is (sim - baseline) / sim * 100, Table 2's RC column.
	RCOverheadPct float64 `json:"rc_overhead_pct"`

	// Operation counters from the RC run (Table 1 / Table 2 / Figure 9
	// inputs).
	Allocs          int64 `json:"allocs"`
	RCIncrements    int64 `json:"rc_increments"`
	RCDecrements    int64 `json:"rc_decrements"`
	FullUpdates     int64 `json:"full_updates"`
	SameChecks      int64 `json:"same_checks"`
	TradChecks      int64 `json:"trad_checks"`
	ParentChecks    int64 `json:"parent_checks"`
	UncheckedStores int64 `json:"unchecked_stores"`
	PinOps          int64 `json:"pin_ops"`
	UnscanWords     int64 `json:"unscan_words"`
	UnscanNanos     int64 `json:"unscan_ns"`
}

// Stores is the total pointer-assignment count of the report (Figure
// 9's denominator).
func (r *WorkloadReport) Stores() int64 {
	return r.UncheckedStores + r.SameChecks + r.TradChecks + r.ParentChecks + r.FullUpdates
}

// BenchReport is the top-level rcbench -json document.
type BenchReport struct {
	Schema    string           `json:"schema"`
	Options   BenchOptions     `json:"options"`
	Workloads []WorkloadReport `json:"workloads"`
	// AB holds the interleaved A/B cells (rcbench -ab, ab.go); absent
	// from workload-only reports.
	AB []ABCell `json:"ab,omitempty"`
}

// ABCell is one interleaved A/B scenario's result: rounds ABBA-ordered
// pairs of fixed-work runs (iters operations each) at GOMAXPROCS cpu,
// with the GC quiesced or live (GCQuiesced, GCLive).
type ABCell struct {
	Name   string `json:"name"`
	Group  string `json:"group"`
	CPU    int    `json:"cpu"`
	Rounds int    `json:"rounds"`
	Iters  int    `json:"iters"`
	GC     string `json:"gc"`
	Base   ABSide `json:"base"`
	Treat  ABSide `json:"treat"`
	// DeltaPct is the median across rounds of the per-round paired
	// improvement, (base - treat) / base * 100: positive when the
	// treatment is faster.
	DeltaPct float64 `json:"delta_pct"`
	// Wins is the number of rounds whose treatment run was faster.
	Wins int `json:"wins"`
}

// ABSide is one side of an A/B cell: its worker count and the
// quartiles of its ns/op across rounds. A live-GC cell also carries the
// side's runtime.ReadMemStats deltas summed over its rounds: GC-heap
// bytes allocated (TotalAlloc), stop-the-world pause time and
// collection cycles.
type ABSide struct {
	Workers   int     `json:"workers"`
	P25       float64 `json:"p25_ns_op"`
	P50       float64 `json:"p50_ns_op"`
	P75       float64 `json:"p75_ns_op"`
	HeapBytes int64   `json:"heap_bytes,omitempty"`
	GCPauseNs int64   `json:"gc_pause_ns,omitempty"`
	NumGC     int64   `json:"num_gc,omitempty"`
}

// iqrPct is the side's interquartile range as a percent of its median:
// the run-to-run noise band of the side.
func (s ABSide) iqrPct() float64 { return 100 * (s.P75 - s.P25) / s.P50 }

// Validate checks the invariants every rcgo.bench/2 document must
// satisfy and returns the first violation: the schema tag; at least one
// workload, uniquely named, with positive times, non-negative counters,
// a non-zero allocation and store total; and per A/B cell a unique
// name, a sane geometry, ordered positive quartiles, wins within
// rounds, a GC bracket exactly on live cells, and a delta whose sign
// agrees with the medians unless it lies inside both sides' noise band.
func (r *BenchReport) Validate() error {
	if r.Schema != BenchSchema {
		return fmt.Errorf("schema %q, want %q", r.Schema, BenchSchema)
	}
	if len(r.Workloads) == 0 {
		return fmt.Errorf("no workloads in report")
	}
	if r.Options.Reps <= 0 {
		return fmt.Errorf("options.reps = %d, want > 0", r.Options.Reps)
	}
	seen := make(map[string]bool)
	for i, w := range r.Workloads {
		if w.Name == "" {
			return fmt.Errorf("workload %d has no name", i)
		}
		if seen[w.Name] {
			return fmt.Errorf("workload %q appears twice", w.Name)
		}
		seen[w.Name] = true
		if err := w.validate(); err != nil {
			return fmt.Errorf("%s: %w", w.Name, err)
		}
	}
	seen = make(map[string]bool)
	for i, c := range r.AB {
		if c.Name == "" {
			return fmt.Errorf("ab cell %d has no name", i)
		}
		if seen[c.Name] {
			return fmt.Errorf("ab cell %q appears twice", c.Name)
		}
		seen[c.Name] = true
		if err := c.validate(); err != nil {
			return fmt.Errorf("%s: %w", c.Name, err)
		}
	}
	return nil
}

func (w *WorkloadReport) validate() error {
	for _, t := range []struct {
		name string
		v    int64
	}{
		{"sim_ns", w.SimNanos},
		{"wall_ns", w.WallNanos},
		{"baseline_sim_ns", w.BaselineSimNanos},
	} {
		if t.v <= 0 {
			return fmt.Errorf("%s = %d, want > 0", t.name, t.v)
		}
	}
	for _, c := range []struct {
		name string
		v    int64
	}{
		{"allocs", w.Allocs},
		{"rc_increments", w.RCIncrements},
		{"rc_decrements", w.RCDecrements},
		{"full_updates", w.FullUpdates},
		{"same_checks", w.SameChecks},
		{"trad_checks", w.TradChecks},
		{"parent_checks", w.ParentChecks},
		{"unchecked_stores", w.UncheckedStores},
		{"pin_ops", w.PinOps},
		{"unscan_words", w.UnscanWords},
		{"unscan_ns", w.UnscanNanos},
	} {
		if c.v < 0 {
			return fmt.Errorf("%s = %d, want >= 0", c.name, c.v)
		}
	}
	if w.Allocs == 0 {
		return fmt.Errorf("allocs = 0 — the workload did not run")
	}
	if w.Stores() == 0 {
		return fmt.Errorf("no pointer stores recorded")
	}
	return nil
}

func (c *ABCell) validate() error {
	if c.Group == "" {
		return fmt.Errorf("no group")
	}
	if c.CPU <= 0 || c.Rounds <= 0 || c.Iters <= 0 {
		return fmt.Errorf("cpu %d, rounds %d, iters %d: want all > 0", c.CPU, c.Rounds, c.Iters)
	}
	if c.Wins < 0 || c.Wins > c.Rounds {
		return fmt.Errorf("wins = %d, want within [0, rounds %d]", c.Wins, c.Rounds)
	}
	if c.GC != GCQuiesced && c.GC != GCLive {
		return fmt.Errorf("gc = %q, want %q or %q", c.GC, GCQuiesced, GCLive)
	}
	for _, s := range []struct {
		name string
		ABSide
	}{{"base", c.Base}, {"treat", c.Treat}} {
		if s.Workers <= 0 || s.Workers > c.Iters {
			return fmt.Errorf("%s: workers = %d, want within [1, iters %d]", s.name, s.Workers, c.Iters)
		}
		if !(0 < s.P25 && s.P25 <= s.P50 && s.P50 <= s.P75) {
			return fmt.Errorf("%s: quartiles %g/%g/%g, want 0 < p25 <= p50 <= p75", s.name, s.P25, s.P50, s.P75)
		}
		if s.HeapBytes < 0 || s.GCPauseNs < 0 || s.NumGC < 0 {
			return fmt.Errorf("%s: negative GC bracket %+v", s.name, s.ABSide)
		}
		if c.GC == GCQuiesced && (s.HeapBytes != 0 || s.GCPauseNs != 0 || s.NumGC != 0) {
			return fmt.Errorf("%s: GC bracket on a quiesced cell", s.name)
		}
	}
	// A live cell must have measured some baseline heap traffic: an
	// all-zero baseline means the bracket never ran.
	if c.GC == GCLive && c.Base.HeapBytes == 0 {
		return fmt.Errorf("live cell recorded no baseline heap bytes")
	}
	// The delta and the medians are two views of one measurement. They
	// may disagree in sign only inside the noise band: a paired-median
	// delta larger than either side's IQR pointing the other way means
	// the cell mixes statistics or its rounds are unpaired.
	if diff := c.Base.P50 - c.Treat.P50; c.DeltaPct*diff < 0 {
		if band := max(c.Base.iqrPct(), c.Treat.iqrPct()); math.Abs(c.DeltaPct) > band {
			return fmt.Errorf("delta_pct %+.1f%% contradicts medians %g (base) vs %g (treat) beyond the %.1f%% IQR band",
				c.DeltaPct, c.Base.P50, c.Treat.P50, band)
		}
	}
	return nil
}

// BenchJSON runs every selected workload under the RC and norc
// configurations and assembles the machine-readable report.
func BenchJSON(o Options) (*BenchReport, error) {
	report := &BenchReport{
		Schema:  BenchSchema,
		Options: BenchOptions{Scale: o.Scale, Reps: o.reps()},
	}
	for _, w := range o.list() {
		c, err := compileAll(w, o.Scale, rcgo.ModeInf, rcgo.ModeNoRC)
		if err != nil {
			return nil, err
		}
		wall, res, err := timeRun(c.prog[rcgo.ModeInf], rcgo.RunConfig{}, o.reps())
		if err != nil {
			return nil, fmt.Errorf("%s/rc: %w", w.Name, err)
		}
		norc, err := rcgo.Run(c.prog[rcgo.ModeNoRC], rcgo.RunConfig{})
		if err != nil {
			return nil, fmt.Errorf("%s/norc: %w", w.Name, err)
		}
		st := res.Region
		wr := WorkloadReport{
			Name:             w.Name,
			SimNanos:         int64(simTime(res)),
			WallNanos:        int64(wall),
			BaselineSimNanos: int64(simTime(norc)),
			Allocs:           st.Allocs,
			RCIncrements:     st.RCIncrements,
			RCDecrements:     st.RCDecrements,
			FullUpdates:      st.FullUpdates,
			SameChecks:       st.SameChecks,
			TradChecks:       st.TradChecks,
			ParentChecks:     st.ParentChecks,
			UncheckedStores:  st.UncheckedPtrs,
			PinOps:           st.PinOps,
			UnscanWords:      st.UnscanWords,
			UnscanNanos:      int64(simUnscanTime(res)),
		}
		if wr.SimNanos > 0 {
			wr.RCOverheadPct = 100 * float64(wr.SimNanos-wr.BaselineSimNanos) / float64(wr.SimNanos)
		}
		report.Workloads = append(report.Workloads, wr)
	}
	return report, nil
}
