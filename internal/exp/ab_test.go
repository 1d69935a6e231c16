package exp

import (
	"fmt"
	"math"
	"strings"
	"sync"
	"testing"

	"rcgo"
)

func near(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

// The core's statistics on fixed round pairs: interpolated quartiles
// per side, the median of the per-round paired deltas, and wins.
func TestABStats(t *testing.T) {
	for _, tc := range []struct {
		name        string
		base, treat []float64
		bq, tq      [3]float64
		delta       float64
		wins        int
	}{
		{
			name:  "odd rounds",
			base:  []float64{10, 12, 11, 13, 9},
			treat: []float64{9, 11, 12, 10, 8},
			bq:    [3]float64{10, 11, 12},
			tq:    [3]float64{9, 10, 11},
			// Paired deltas: +10, +8.33, -9.09, +23.08, +11.11.
			delta: 10,
			wins:  4,
		},
		{
			name:  "even rounds interpolate",
			base:  []float64{4, 1, 3, 2},
			treat: []float64{4, 2, 3, 1},
			bq:    [3]float64{1.75, 2.5, 3.25},
			tq:    [3]float64{1.75, 2.5, 3.25},
			// Paired deltas: 0, -100, 0, +50; the median averages the
			// middle two.
			delta: 0,
			wins:  1,
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var c ABCell
			c.setStats(tc.base, tc.treat)
			for _, got := range []struct {
				side string
				s    ABSide
				want [3]float64
			}{{"base", c.Base, tc.bq}, {"treat", c.Treat, tc.tq}} {
				if !near(got.s.P25, got.want[0]) || !near(got.s.P50, got.want[1]) || !near(got.s.P75, got.want[2]) {
					t.Errorf("%s quartiles = %g/%g/%g, want %v", got.side, got.s.P25, got.s.P50, got.s.P75, got.want)
				}
			}
			if !near(c.DeltaPct, tc.delta) {
				t.Errorf("delta = %g, want %g", c.DeltaPct, tc.delta)
			}
			if c.Wins != tc.wins {
				t.Errorf("wins = %d, want %d", c.Wins, tc.wins)
			}
		})
	}
}

// The core runs one unrecorded warmup per side at a quarter of the
// work, then ABBA rounds, each run splitting its work evenly between
// the side's workers.
func TestRunScenarioOrder(t *testing.T) {
	var mu sync.Mutex
	var log []string
	body := func(tag string) abBody {
		return func(_ *rcgo.Arena, _ *rcgo.Region, iters int) error {
			mu.Lock()
			log = append(log, fmt.Sprintf("%s%d", tag, iters))
			mu.Unlock()
			return nil
		}
	}
	sc := abScenario{
		name: "order", group: "test", iters: 40, gc: GCQuiesced,
		base:  sideSpec{arenaWith(), 1, body("B")},
		treat: sideSpec{arenaWith(), 2, body("T")},
	}
	c, err := runScenario(sc, 3)
	if err != nil {
		t.Fatal(err)
	}
	want := "B10 T5 T5 B40 T20 T20 T20 T20 B40 B40 T20 T20"
	if got := strings.Join(log, " "); got != want {
		t.Fatalf("run log = %q, want %q", got, want)
	}
	if c.Rounds != 3 || c.Base.Workers != 1 || c.Treat.Workers != 2 || c.Iters != 40 {
		t.Fatalf("cell geometry wrong: %+v", c)
	}
}

// A body error fails the cell instead of recording a time.
func TestRunScenarioBodyError(t *testing.T) {
	boom := fmt.Errorf("boom")
	sc := abScenario{
		name: "fails", group: "test", iters: 4, gc: GCLive,
		base:  sideSpec{arenaWith(), 1, func(*rcgo.Arena, *rcgo.Region, int) error { return nil }},
		treat: sideSpec{arenaWith(), 1, func(*rcgo.Arena, *rcgo.Region, int) error { return boom }},
	}
	if _, err := runScenario(sc, 1); err == nil || !strings.Contains(err.Error(), "boom") {
		t.Fatalf("runScenario = %v, want the body's error", err)
	}
}

func TestSelectAB(t *testing.T) {
	table := abScenarios(2, nil)
	all, err := selectAB(table, "all")
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, sc := range all {
		names = append(names, sc.name)
	}
	want := "fabric-parallel-alloc fabric-parallel-alloc-setsame fabric-parallel-delete " +
		"parallel-setsame parallel-setref own-alloc-setsame own-build-delete own-setref " +
		"acquire-fastpath contend-handoff slab-alloc slab-build-delete slab-interleaved slab-gc-pressure"
	if got := strings.Join(names, " "); got != want {
		t.Fatalf("all = %q\nwant %q", got, want)
	}
	some, err := selectAB(table, "slab, own-setref")
	if err != nil {
		t.Fatal(err)
	}
	if len(some) != 5 || some[0].name != "own-setref" || some[1].name != "slab-alloc" {
		t.Fatalf("slab,own-setref selected %d scenarios starting %q", len(some), some[0].name)
	}
	for _, bad := range []string{"", " , ", "nope", "slab,nope"} {
		if _, err := selectAB(table, bad); err == nil {
			t.Errorf("selectAB(%q) succeeded, want an error", bad)
		}
	}
	// The contenders of the hand-off storm and the fabric's shards never
	// drop below two, even at GOMAXPROCS 1.
	for _, sc := range abScenarios(1, nil) {
		if sc.name == "contend-handoff" && sc.treat.workers != 2 {
			t.Errorf("contend-handoff at cpu 1 has %d contenders, want 2", sc.treat.workers)
		}
	}
}

// A run's size, and with it the garbage a quiesced run piles up, stops
// growing at workCPUs workers, while every worker still gets work.
func TestScenarioRunSizeCapped(t *testing.T) {
	capped := abScenarios(workCPUs, nil)
	for i, sc := range abScenarios(64, nil) {
		if sc.iters > capped[i].iters {
			t.Errorf("%s: %d ops at cpu 64, more than %d at cpu %d", sc.name, sc.iters, capped[i].iters, workCPUs)
		}
		for _, s := range []sideSpec{sc.base, sc.treat} {
			if sc.iters/s.workers == 0 {
				t.Errorf("%s: %d ops leave %d workers idle", sc.name, sc.iters, s.workers)
			}
		}
	}
}

// validReport is a report whose cells are all consistent; each
// validation case breaks one thing.
func validReport() *BenchReport {
	return &BenchReport{
		Schema:  BenchSchema,
		Options: BenchOptions{Reps: 1},
		Workloads: []WorkloadReport{{
			Name: "moss", SimNanos: 10, WallNanos: 10, BaselineSimNanos: 9,
			Allocs: 5, SameChecks: 3,
		}},
		AB: []ABCell{{
			Name: "faster", Group: "g", CPU: 2, Rounds: 10, Iters: 1000, GC: GCQuiesced,
			Base:     ABSide{Workers: 2, P25: 98, P50: 100, P75: 102},
			Treat:    ABSide{Workers: 2, P25: 78, P50: 80, P75: 82},
			DeltaPct: 20, Wins: 10,
		}},
	}
}

func TestValidate(t *testing.T) {
	for _, tc := range []struct {
		name   string
		mutate func(r *BenchReport)
		reject string // substring of the error; "" means accept
	}{
		{"valid", func(*BenchReport) {}, ""},
		{"schema", func(r *BenchReport) { r.Schema = "rcgo.bench/1" }, "schema"},
		{"no workloads", func(r *BenchReport) { r.Workloads = nil }, "no workloads"},
		{"workload ran nothing", func(r *BenchReport) { r.Workloads[0].Allocs = 0 }, "did not run"},
		{"duplicate workload", func(r *BenchReport) { r.Workloads = append(r.Workloads, r.Workloads[0]) }, "twice"},
		{"duplicate cell", func(r *BenchReport) { r.AB = append(r.AB, r.AB[0]) }, "twice"},
		{"same cell at another cpu", func(r *BenchReport) {
			c := r.AB[0]
			c.CPU, c.Base.Workers, c.Treat.Workers = 1, 1, 1
			r.AB = append(r.AB, c)
		}, ""},
		{"wins beyond rounds", func(r *BenchReport) { r.AB[0].Wins = 11 }, "wins"},
		{"unordered quartiles", func(r *BenchReport) { r.AB[0].Treat.P25 = 81 }, "quartiles"},
		{"non-positive quartile", func(r *BenchReport) { r.AB[0].Base.P25 = 0 }, "quartiles"},
		{"no workers", func(r *BenchReport) { r.AB[0].Base.Workers = 0 }, "workers"},
		{"unknown gc mode", func(r *BenchReport) { r.AB[0].GC = "off" }, "gc"},
		{"bracket on quiesced cell", func(r *BenchReport) { r.AB[0].Treat.NumGC = 3 }, "quiesced"},
		{"live cell without baseline heap", func(r *BenchReport) {
			r.AB[0].GC = GCLive
			r.AB[0].Treat.HeapBytes = 1 << 20
		}, "no baseline heap"},
		{"live cell with negative bracket", func(r *BenchReport) {
			r.AB[0].GC = GCLive
			r.AB[0].Base.HeapBytes = 1 << 20
			r.AB[0].Treat.GCPauseNs = -1
		}, "negative"},
		{"live cell", func(r *BenchReport) {
			r.AB[0].GC = GCLive
			r.AB[0].Base.HeapBytes, r.AB[0].Base.NumGC = 4<<20, 5
			r.AB[0].Treat.HeapBytes = 1 << 20
		}, ""},
		// The recorded slab-alloc row of the old per-section report:
		// minima 33.4 (heap) vs 35.9 (slab) ns/op, the slab side 7 %
		// slower, beside a paired-median delta of +19.3 %.
		{"slab-alloc contradiction", func(r *BenchReport) {
			r.AB[0] = ABCell{
				Name: "slab-alloc", Group: "slab", CPU: 2, Rounds: 8, Iters: 400000, GC: GCQuiesced,
				Base:     ABSide{Workers: 2, P25: 33.0, P50: 33.4, P75: 34.0},
				Treat:    ABSide{Workers: 2, P25: 35.4, P50: 35.9, P75: 36.5},
				DeltaPct: 19.3, Wins: 7,
			}
		}, "contradicts"},
		// A parity cell: the medians and the delta disagree in sign, but
		// the delta lies inside the noise band.
		{"parity inside the IQR", func(r *BenchReport) {
			r.AB[0].Treat = ABSide{Workers: 2, P25: 98, P50: 101, P75: 104}
			r.AB[0].DeltaPct, r.AB[0].Wins = 0.5, 6
		}, ""},
	} {
		t.Run(tc.name, func(t *testing.T) {
			r := validReport()
			tc.mutate(r)
			err := r.Validate()
			switch {
			case tc.reject == "" && err != nil:
				t.Fatalf("rejected: %v", err)
			case tc.reject != "" && err == nil:
				t.Fatalf("accepted, want an error mentioning %q", tc.reject)
			case tc.reject != "" && !strings.Contains(err.Error(), tc.reject):
				t.Fatalf("error %q, want one mentioning %q", err, tc.reject)
			}
		})
	}
}
