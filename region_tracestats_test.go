package rcgo

import (
	"encoding/json"
	"expvar"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
)

// Ring wrap-around is observable: Dropped counts exactly the events
// overwritten, and TraceStats ties capacity/total/buffered together.
func TestRingTracerDropCount(t *testing.T) {
	ring := NewRingTracer(16) // 16 is also the minimum capacity
	a := NewArena(WithTracer(ring))

	// Each NewRegion+Delete emits several lifecycle events; churn far
	// past the ring's capacity.
	for i := 0; i < 32; i++ {
		r := a.NewRegion()
		if err := r.Delete(); err != nil {
			t.Fatal(err)
		}
	}
	ts := ring.TraceStats()
	if ts.Capacity != 16 || ts.Buffered != 16 {
		t.Fatalf("TraceStats = %+v, want capacity 16 fully buffered", ts)
	}
	if ts.Dropped == 0 || ts.Dropped != ts.Total-uint64(ts.Buffered) {
		t.Fatalf("TraceStats = %+v, want Dropped = Total - Buffered > 0", ts)
	}
	if ring.Dropped() != ts.Dropped {
		t.Fatalf("Dropped() = %d, TraceStats.Dropped = %d", ring.Dropped(), ts.Dropped)
	}

	// A ring sized for the workload drops nothing.
	big := NewRingTracer(1024)
	b := NewArena(WithTracer(big))
	for i := 0; i < 16; i++ {
		r := b.NewRegion()
		if err := r.Delete(); err != nil {
			t.Fatal(err)
		}
	}
	if d := big.Dropped(); d != 0 {
		t.Fatalf("adequately sized ring dropped %d events", d)
	}
}

// tracestatsRuns numbers TestTraceStatsSurfaceInDebugAndExpvar's runs.
var tracestatsRuns atomic.Int64

// The drop count surfaces through every monitoring channel — the
// DebugHandler index and /counters JSON, and PublishExpvar.
func TestTraceStatsSurfaceInDebugAndExpvar(t *testing.T) {
	ring := NewRingTracer(4)
	a := NewArena(WithTracer(ring))

	for i := 0; i < 8; i++ {
		r := a.NewRegion()
		if err := r.Delete(); err != nil {
			t.Fatal(err)
		}
	}

	srv := httptest.NewServer(a.DebugHandler())
	defer srv.Close()
	get := func(path string) string {
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		return string(body)
	}

	if index := get("/"); !strings.Contains(index, "trace_dropped") {
		t.Errorf("index does not report trace drops:\n%s", index)
	}
	var doc struct {
		Trace *TraceStats `json:"trace"`
	}
	if err := json.Unmarshal([]byte(get("/counters")), &doc); err != nil {
		t.Fatal(err)
	}
	if doc.Trace == nil || doc.Trace.Dropped == 0 {
		t.Fatalf("/counters trace = %+v, want nonzero drops", doc.Trace)
	}

	// expvar names are process-wide and never unpublished: each run
	// publishes its own, so the test repeats under -count.
	name := fmt.Sprintf("rcgo.test.tracestats.%d", tracestatsRuns.Add(1))
	if err := a.PublishExpvar(name); err != nil {
		t.Fatal(err)
	}
	var snap struct {
		Trace *TraceStats `json:"trace"`
	}
	if err := json.Unmarshal([]byte(expvar.Get(name).String()), &snap); err != nil {
		t.Fatal(err)
	}
	if snap.Trace == nil || snap.Trace.Dropped != doc.Trace.Dropped {
		t.Fatalf("expvar trace = %+v, want the same %d drops as /counters", snap.Trace, doc.Trace.Dropped)
	}

	// The /audit endpoint is mounted and clean on this healthy arena.
	var rep AuditReport
	if err := json.Unmarshal([]byte(get("/audit")), &rep); err != nil {
		t.Fatal(err)
	}
	if !rep.OK || rep.Violations == nil {
		t.Fatalf("/audit = %+v, want ok with non-null violations array", rep)
	}
}
