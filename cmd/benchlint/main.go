// Command benchlint validates an rcbench -json report read from stdin:
//
//	go run rcgo/cmd/rcbench -json | go run rcgo/cmd/benchlint
//
// It decodes the report, rejecting unknown fields, and applies
// (*exp.BenchReport).Validate, which holds every rcgo.bench/2 invariant
// (internal/exp/json.go); it exits non-zero with a message naming the
// first violation. `make ab-smoke` runs a tiny report through it and
// `make benchlint-files` every committed BENCH_*.json.
package main

import (
	"encoding/json"
	"fmt"
	"os"

	"rcgo/internal/exp"
)

func main() {
	var report exp.BenchReport
	dec := json.NewDecoder(os.Stdin)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&report); err != nil {
		fmt.Fprintf(os.Stderr, "benchlint: invalid JSON: %v\n", err)
		os.Exit(1)
	}
	if err := report.Validate(); err != nil {
		fmt.Fprintf(os.Stderr, "benchlint: %v\n", err)
		os.Exit(1)
	}
	fmt.Printf("benchlint: ok (%d workloads, %d ab cells)\n", len(report.Workloads), len(report.AB))
}
