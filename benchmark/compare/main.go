// Command compare judges two sets of benchmark runs against the bounds
// that BENCHMARK.json fixes for the end-to-end metrics:
//
//	go run ./compare A B
//
// A (the parent) and B (the change) are files, or directories of files,
// holding the standard output of untraced benchmark runs, so the
// "workload metric value unit" lines. The i-th run of a workload in A is
// paired with the i-th run of that workload in B, so both sets should be
// made with the same seeds in the same order. compare prints one row per
// workload and metric: each side's median and quartiles, each side's
// spread (the distance between its quartiles as a share of its median),
// the share of pairs B won (ties count for neither side) and a verdict:
//
//   - better: B won at least 9 pairs in 10 and the medians differ by
//     more than the distance between A's quartiles;
//   - unresolved: A's quartiles lie further apart than the metric's
//     bound allows, so no regression could be told from noise, and not
//     every run of B beat every run of A;
//   - worse: B's median is worse than A's by more than the bound;
//   - same: none of these.
//
// A metric's bound is its BENCHMARK.json share of A's median, but never
// less than the metric's absolute floor, where it has one. After the
// rows, compare lists every row whose medians differ by more than its
// bound in either direction: when A and B ran the same code, that list
// should be empty, and a row in it shows noise the bound cannot absorb.
// compare exits with status 1 when any row is worse.
package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
)

// floors are absolute regression floors: a change smaller than these
// does not count as worse however small the median.
var floors = map[string]float64{
	"setup_s":          0.25, // s
	"heap_retained_mb": 4,    // MB
}

type spec struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

func main() {
	if len(os.Args) != 3 {
		fmt.Fprintln(os.Stderr, "usage: compare A B")
		os.Exit(2)
	}
	worse, err := compare(os.Args[1], os.Args[2])
	if err != nil {
		fmt.Fprintln(os.Stderr, "compare:", err)
		os.Exit(2)
	}
	if worse {
		os.Exit(1)
	}
}

func compare(pathA, pathB string) (worse bool, err error) {
	specPath, err := findSpec()
	if err != nil {
		return false, err
	}
	raw, err := os.ReadFile(specPath)
	if err != nil {
		return false, err
	}
	var sp spec
	if err := json.Unmarshal(raw, &sp); err != nil {
		return false, fmt.Errorf("%s: %w", specPath, err)
	}
	a, err := readRuns(pathA)
	if err != nil {
		return false, err
	}
	b, err := readRuns(pathB)
	if err != nil {
		return false, err
	}
	var workloads []string
	for w := range a {
		if _, ok := b[w]; ok {
			workloads = append(workloads, w)
		}
	}
	if len(workloads) == 0 {
		return false, errors.New("no workload appears in both sets")
	}
	sort.Strings(workloads)
	var moved []string
	fmt.Printf("%-16s %-17s %-6s %-30s %-30s %-13s %8s %6s  %s\n",
		"workload", "metric", "unit", "A median [q1, q3]", "B median [q1, q3]", "spread A/B", "delta", "B won", "verdict")
	for _, w := range workloads {
		for _, m := range sp.EndToEnd {
			va, vb := a[w][m.Name], b[w][m.Name]
			if len(va) == 0 || len(vb) == 0 {
				continue
			}
			r := judge(va, vb, m.Better == "higher", m.Bound, floors[m.Name])
			worse = worse || r.verdict == "worse"
			delta := (r.b[1] - r.a[1]) / math.Abs(r.a[1]) * 100
			fmt.Printf("%-16s %-17s %-6s %-30s %-30s %-13s %+7.2f%% %6s  %s\n",
				w, m.Name, m.Unit, quart(r.a), quart(r.b), fmt.Sprintf("%.3f/%.3f", spread(r.a), spread(r.b)),
				delta, fmt.Sprintf("%d/%d", r.won, r.pairs), r.verdict)
			if r.moved {
				moved = append(moved, fmt.Sprintf("  %s %s %+.2f%%", w, m.Name, delta))
			}
		}
	}
	fmt.Printf("\nrows whose medians differ by more than the bound, either way: %d\n", len(moved))
	for _, l := range moved {
		fmt.Println(l)
	}
	return worse, nil
}

type row struct {
	a, b       [3]float64 // q1, median, q3
	won, pairs int
	verdict    string
	moved      bool // the medians differ by more than the bound
}

func judge(va, vb []float64, higher bool, bound, floor float64) row {
	r := row{a: quartiles(va), b: quartiles(vb)}
	better := func(x, y float64) bool { // y is better than x
		if higher {
			return y > x
		}
		return y < x
	}
	r.pairs = min(len(va), len(vb))
	for i := 0; i < r.pairs; i++ {
		if better(va[i], vb[i]) {
			r.won++
		}
	}
	allBetter := true
	for _, x := range va {
		for _, y := range vb {
			allBetter = allBetter && better(x, y)
		}
	}
	limit := math.Max(bound*math.Abs(r.a[1]), floor)
	worseBy := r.b[1] - r.a[1]
	if higher {
		worseBy = -worseBy
	}
	r.moved = math.Abs(r.b[1]-r.a[1]) > limit
	spreadA := r.a[2] - r.a[0]
	switch {
	case 10*r.won >= 9*r.pairs && better(r.a[1], r.b[1]) && math.Abs(r.b[1]-r.a[1]) > spreadA:
		r.verdict = "better"
	case spreadA > limit && !allBetter:
		r.verdict = "unresolved"
	case worseBy > limit:
		r.verdict = "worse"
	default:
		r.verdict = "same"
	}
	return r
}

// quartiles returns the first quartile, the median and the third
// quartile by the method of Python's statistics.quantiles(n=4), the
// exclusive one, which the benchmark's spread check uses too.
func quartiles(xs []float64) [3]float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 1 {
		return [3]float64{s[0], s[0], s[0]}
	}
	var q [3]float64
	m := n + 1
	for i := 1; i <= 3; i++ {
		j := min(max(i*m/4, 1), n-1)
		delta := float64(i*m - j*4)
		q[i-1] = (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return q
}

// spread is the distance between the quartiles as a share of the median.
func spread(q [3]float64) float64 { return (q[2] - q[0]) / math.Abs(q[1]) }

func quart(q [3]float64) string {
	f := func(x float64) string { return strconv.FormatFloat(x, 'g', 5, 64) }
	return fmt.Sprintf("%s [%s, %s]", f(q[1]), f(q[0]), f(q[2]))
}

// readRuns reads every "workload metric value unit" line under path,
// keeping each workload's values of each metric in file order.
func readRuns(path string) (map[string]map[string][]float64, error) {
	runs := map[string]map[string][]float64{}
	err := filepath.WalkDir(path, func(p string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		f, err := os.Open(p)
		if err != nil {
			return err
		}
		defer f.Close()
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			fields := strings.Fields(sc.Text())
			if len(fields) != 4 || strings.HasPrefix(fields[0], "#") {
				continue
			}
			v, err := strconv.ParseFloat(fields[2], 64)
			if err != nil {
				continue
			}
			if runs[fields[0]] == nil {
				runs[fields[0]] = map[string][]float64{}
			}
			runs[fields[0]][fields[1]] = append(runs[fields[0]][fields[1]], v)
		}
		return sc.Err()
	})
	return runs, err
}

func findSpec() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		p := filepath.Join(dir, "BENCHMARK.json")
		if _, err := os.Stat(p); err == nil {
			return p, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", errors.New("no BENCHMARK.json in this or any parent directory")
		}
		dir = parent
	}
}
