// Command benchmark measures the Go-native region runtime end to end and
// layer by layer, on four workloads that replay the op mix of the
// paper's programs (apache, grobner, moss, lcc).
//
//	go run . -workload apache-requests -seed 1 -seconds 10 -trace 0
//
// runs one workload: it profiles the workload's paper program through
// the RC pipeline, builds the workload on a fresh arena and warms it up
// (set-up, repeated setupsPerRun times), drives it for -seconds with
// one load goroutine (two pipeline stages on lcc-handoff) that times a
// reference probe between ops (probe.go), checks its outputs, and
// prints every metric as a "workload metric value unit" line, then one
// JSON object with the gated metrics on the last line. -trace 1 instead runs the sampled,
// span-traced run that gives the per-layer metrics. Without -workload
// the command runs every workload, each in its own process. It exits
// non-zero when an op or an oracle fails.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"strconv"
)

var workloadList = []*workload{
	{name: "apache-requests", program: "apache", open: true, goroutines: 1, warmOps: 5000, build: buildApache},
	{name: "grobner-churn", program: "grobner", goroutines: 1, warmOps: 200, build: buildGrobner},
	{name: "moss-stores", program: "moss", goroutines: 1, warmOps: 20000, build: buildMoss},
	{name: "lcc-handoff", program: "lcc", goroutines: 2, warmOps: 2000, build: buildLcc},
}

// setupsPerRun is how many times a run sets its workload up; setup_s is
// the median, which keeps one slow set-up from moving it.
const setupsPerRun = 5

type config struct {
	seed    uint64
	seconds float64
	trace   bool
	setups  int
}

func main() {
	name := flag.String("workload", "", "workload to run (default: every workload, each in its own process)")
	seed := flag.Uint64("seed", 1, "seed of the workload's inputs")
	seconds := flag.Float64("seconds", 10, "length of the timed phase in seconds")
	trace := flag.Int("trace", 0, "1 for the traced run that gives the per-layer metrics")
	flag.Parse()
	if *trace != 0 && *trace != 1 || *seconds <= 0 || flag.NArg() > 0 {
		flag.Usage()
		os.Exit(2)
	}
	if *name == "" {
		os.Exit(runAll())
	}
	var wl *workload
	for _, w := range workloadList {
		if w.name == *name {
			wl = w
		}
	}
	if wl == nil {
		fmt.Fprintf(os.Stderr, "unknown workload %q\n", *name)
		os.Exit(2)
	}
	runtime.GOMAXPROCS(procs)
	rep, err := run(wl, config{seed: *seed, seconds: *seconds, trace: *trace == 1, setups: setupsPerRun})
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	if err := rep.write(os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	if !rep.correct() {
		os.Exit(1)
	}
}

// runAll runs every workload in a process of its own, with this
// process's flags, and returns the exit code.
func runAll() int {
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	code := 0
	for _, w := range workloadList {
		cmd := exec.Command(self, append([]string{"-workload", w.name}, os.Args[1:]...)...)
		cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
		if err := cmd.Run(); err != nil {
			fmt.Fprintf(os.Stderr, "%s: %v\n", w.name, err)
			code = 1
		}
	}
	return code
}

// metric is one measured value.
type metric struct {
	name  string
	value float64
	unit  string
	gated bool // part of the JSON result: an end_to_end metric, or a per_layer one in the traced run
}

// report is one run's result.
type report struct {
	workload          string
	metrics           []metric
	attempted, failed int64
	errs              []string
}

func (r *report) gate(name string, v float64, unit string) {
	r.metrics = append(r.metrics, metric{name, v, unit, true})
}

// diag records a metric printed for diagnosis but not part of the result.
func (r *report) diag(name string, v float64, unit string) {
	r.metrics = append(r.metrics, metric{name, v, unit, false})
}

// oracles counts a set of checks, with one message per failed one.
func (r *report) oracles(checked int, bad []string) {
	r.attempted += int64(checked)
	r.failed += int64(len(bad))
	r.errs = append(r.errs, bad...)
}

// tally counts the workers' ops and failures.
func (r *report) tally(ws []*worker) {
	for _, w := range ws {
		r.attempted += w.ops + w.failed
		r.failed += w.failed
		if w.firstErr != nil {
			r.errs = append(r.errs, w.firstErr.Error())
		}
	}
}

func (r *report) correct() bool { return r.failed == 0 && len(r.errs) == 0 }

type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type jsonResult struct {
	Correct   bool                  `json:"correct"`
	Attempted int64                 `json:"attempted"`
	Failed    int64                 `json:"failed"`
	Metrics   map[string]jsonMetric `json:"metrics"`
}

// write prints one line per metric, the failures on standard error, and
// the JSON result as the last line.
func (r *report) write(out io.Writer) error {
	res := jsonResult{Correct: r.correct(), Attempted: max(r.attempted, 1), Failed: r.failed, Metrics: map[string]jsonMetric{}}
	for _, m := range r.metrics {
		if _, err := fmt.Fprintf(out, "%s %s %s %s\n", r.workload, m.name, strconv.FormatFloat(m.value, 'g', -1, 64), m.unit); err != nil {
			return err
		}
		if m.gated {
			res.Metrics[m.name] = jsonMetric{m.value, m.unit}
		}
	}
	for _, e := range r.errs {
		fmt.Fprintf(os.Stderr, "%s: FAIL %s\n", r.workload, e)
	}
	b, err := json.Marshal(res)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(out, "%s\n", b)
	return err
}
