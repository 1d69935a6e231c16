// Command rcbench regenerates the tables and figures of the paper's
// evaluation (Section 5 of Gay & Aiken, "Language Support for Regions",
// PLDI 2001) over the eight workload programs.
//
// Usage:
//
//	rcbench                  # everything
//	rcbench -table 2         # one table (1, 2 or 3)
//	rcbench -figure 8        # one figure (7, 8 or 9)
//	rcbench -scale 50 -reps 5 -workloads moss,tile
//	rcbench -json            # machine-readable report on stdout
//	rcbench -ab all -reps 10         # every Go-native A/B scenario, 10 ABBA rounds each
//	rcbench -ab slab,own-setref      # groups (alloc fabric advisor own contend slab) and scenario names
//	rcbench -advise              # profile a deliberately un-annotated
//	                             # grobner-mix replay and print the
//	                             # advisor's upgrade table; exits non-zero
//	                             # if no upgrade candidate is found
//	GOMAXPROCS=2 rcbench -json -reps 10 -workloads moss -ab all   # record a report with an ab section
//
// The A/B scenarios run with as many workers as GOMAXPROCS (internal/exp/ab.go).
// With -json the human tables are skipped (-table/-figure/-space/-bars
// are ignored) and a single exp.BenchReport document — schema
// "rcgo.bench/2", see internal/exp/json.go — is written to stdout, for
// recording BENCH_*.json trajectory files and for cmd/benchlint.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"

	"rcgo/internal/exp"
)

func main() {
	table := flag.Int("table", 0, "regenerate only this table (1, 2 or 3)")
	space := flag.Bool("space", false, "also report peak heap footprint per backend")
	figure := flag.Int("figure", 0, "regenerate only this figure (7, 8 or 9)")
	scale := flag.Int("scale", 0, "override workload scale (0 = default)")
	reps := flag.Int("reps", 3, "timed repetitions per workload cell (best is reported) and ABBA rounds per -ab scenario")
	names := flag.String("workloads", "", "comma-separated workload subset")
	bars := flag.Bool("bars", false, "also render figures as bar charts")
	jsonOut := flag.Bool("json", false, "emit a machine-readable report (rcgo.bench/2) instead of tables")
	ab := flag.String("ab", "", "run the interleaved A/B scenarios named: all, or a comma list of scenario and group names")
	advise := flag.Bool("advise", false, "replay the grobner op mix un-annotated through an advisor-armed arena and print the upgrade table; exit non-zero if no upgrade candidate is found")
	adviseAllocs := flag.Int("advise-allocs", 0, "allocation count for the -advise replay (0 = default)")
	flag.Parse()

	o := exp.Options{Scale: *scale, Reps: *reps}
	if *names != "" {
		o.Workloads = strings.Split(*names, ",")
	}

	all := *table == 0 && *figure == 0
	fail := func(err error) {
		fmt.Fprintln(os.Stderr, "rcbench:", err)
		os.Exit(1)
	}

	if *jsonOut {
		report, err := exp.BenchJSON(o)
		if err != nil {
			fail(err)
		}
		if *ab != "" {
			if report.AB, err = exp.RunAB(*ab, *reps); err != nil {
				fail(err)
			}
		}
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(report); err != nil {
			fail(err)
		}
		return
	}

	if *advise {
		rep, err := exp.AdviseReplay(*adviseAllocs)
		if err != nil {
			fail(err)
		}
		rep.WriteTable(os.Stdout)
		if rep.UpgradeCandidates == 0 {
			fail(fmt.Errorf("advise replay found no upgrade candidates — the advisor lost the flavour lattice"))
		}
		if *ab == "" && *table == 0 && *figure == 0 {
			return
		}
		fmt.Println()
	}

	if *ab != "" {
		cells, err := exp.RunAB(*ab, *reps)
		if err != nil {
			fail(err)
		}
		exp.PrintAB(os.Stdout, cells)
		if *table == 0 && *figure == 0 {
			return
		}
		fmt.Println()
	}

	if all || *table == 1 {
		rows, err := exp.Table1(o)
		if err != nil {
			fail(err)
		}
		exp.PrintTable1(os.Stdout, rows)
		fmt.Println()
	}
	if all || *figure == 7 {
		rows, err := exp.Figure7(o)
		if err != nil {
			fail(err)
		}
		exp.PrintFigure7(os.Stdout, rows)
		if *bars {
			exp.PrintFigure7Bars(os.Stdout, rows)
		}
		fmt.Println()
	}
	if all || *table == 2 {
		rows, err := exp.Table2(o)
		if err != nil {
			fail(err)
		}
		exp.PrintTable2(os.Stdout, rows)
		fmt.Println()
	}
	if all || *table == 3 {
		rows, err := exp.Table3(o)
		if err != nil {
			fail(err)
		}
		exp.PrintTable3(os.Stdout, rows)
		fmt.Println()
	}
	if all || *figure == 8 {
		rows, err := exp.Figure8(o)
		if err != nil {
			fail(err)
		}
		exp.PrintFigure8(os.Stdout, rows)
		if *bars {
			exp.PrintFigure8Bars(os.Stdout, rows)
		}
		fmt.Println()
	}
	if all || *figure == 9 {
		rows, err := exp.Figure9(o)
		if err != nil {
			fail(err)
		}
		exp.PrintFigure9(os.Stdout, rows)
		if *bars {
			exp.PrintFigure9Bars(os.Stdout, rows)
		}
	}
	if *space {
		fmt.Println()
		rows, err := exp.TableSpace(o)
		if err != nil {
			fail(err)
		}
		exp.PrintTableSpace(os.Stdout, rows)
	}
}
