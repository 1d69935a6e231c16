package main

import (
	"encoding/json"
	"fmt"
	"os"
	"testing"
)

// TestWorkloads runs every workload briefly, untraced and traced, and
// checks that the oracles pass, that no op fails, and that each run
// reports exactly the metrics BENCHMARK.json names for its mode, with
// their units.
func TestWorkloads(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		EndToEnd []specMetric `json:"end_to_end"`
		PerLayer []specMetric `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	for _, wl := range workloadList {
		for _, trace := range []bool{false, true} {
			wl, trace := wl, trace
			t.Run(fmt.Sprintf("%s/trace=%v", wl.name, trace), func(t *testing.T) {
				t.Parallel()
				check(t, wl, trace, spec.EndToEnd, spec.PerLayer)
			})
		}
	}
}

type specMetric struct{ Name, Unit string }

func check(t *testing.T, wl *workload, trace bool, endToEnd, perLayer []specMetric) {
	rep, err := run(wl, config{seed: 1, seconds: 0.25, trace: trace, setups: 1})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.correct() || rep.attempted == 0 {
		t.Errorf("%d of %d attempted failed: %v", rep.failed, rep.attempted, rep.errs)
	}
	want := endToEnd
	if trace {
		want = perLayer
	}
	got := map[string]string{}
	for _, m := range rep.metrics {
		if m.gated {
			got[m.name] = m.unit
		}
	}
	for _, m := range want {
		if u, ok := got[m.Name]; !ok || u != m.Unit {
			t.Errorf("metric %s reported with unit %q, want %q", m.Name, u, m.Unit)
		}
		delete(got, m.Name)
	}
	for name := range got {
		t.Errorf("metric %s is not in BENCHMARK.json", name)
	}
}
