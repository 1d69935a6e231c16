package rcgo

// Benchmarks regenerating the paper's evaluation, one per table/figure
// (see DESIGN.md's per-experiment index), plus ablation benchmarks for
// the design choices the runtime makes. Run with:
//
//	go test -bench=. -benchmem
//
// Workloads run at a reduced scale here so the full matrix stays fast;
// cmd/rcbench runs the full-scale versions and prints the paper-format
// tables.

import (
	"io"
	"sync/atomic"
	"testing"

	"rcgo/internal/mem"
	"rcgo/internal/region"
	"rcgo/internal/vm"
	"rcgo/internal/workloads"
)

const benchScaleDiv = 8

func compileWorkload(b *testing.B, name string, mode Mode) *Compiled {
	b.Helper()
	w := workloads.ByName(name)
	c, err := Compile(w.Source(w.DefaultScale/benchScaleDiv+1), mode)
	if err != nil {
		b.Fatal(err)
	}
	return c
}

func runBench(b *testing.B, c *Compiled, cfg RunConfig) *RunResult {
	b.Helper()
	cfg.Output = io.Discard
	var last *RunResult
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := Run(c, cfg)
		if err != nil {
			b.Fatal(err)
		}
		last = res
	}
	return last
}

// BenchmarkTable1 measures each workload under the RC configuration and
// reports the Table 1 characteristics as metrics.
func BenchmarkTable1(b *testing.B) {
	for _, w := range workloads.All() {
		b.Run(w.Name, func(b *testing.B) {
			c := compileWorkload(b, w.Name, ModeInf)
			res := runBench(b, c, RunConfig{})
			b.ReportMetric(float64(res.Region.Allocs), "allocs")
			b.ReportMetric(float64(res.Region.AllocWords*8)/1024, "alloc-kB")
			b.ReportMetric(float64(res.Region.MaxLiveBytes)/1024, "maxuse-kB")
		})
	}
}

// BenchmarkFigure7 measures each workload under the five allocator
// configurations (C@, lea, GC, norc, RC).
func BenchmarkFigure7(b *testing.B) {
	cells := []struct {
		name string
		mode Mode
		cfg  RunConfig
	}{
		{"Cat", ModeNQ, RunConfig{CAtStyle: true}},
		{"lea", ModeNoRC, RunConfig{Backend: BackendMalloc}},
		{"GC", ModeNoRC, RunConfig{Backend: BackendGC}},
		{"norc", ModeNoRC, RunConfig{}},
		{"RC", ModeInf, RunConfig{}},
	}
	for _, w := range workloads.All() {
		for _, cell := range cells {
			b.Run(w.Name+"/"+cell.name, func(b *testing.B) {
				c := compileWorkload(b, w.Name, cell.mode)
				runBench(b, c, cell.cfg)
			})
		}
	}
}

// BenchmarkTable2 measures the three configurations Table 2 derives its
// overheads from (norc baseline, C@-style counting, RC counting).
func BenchmarkTable2(b *testing.B) {
	for _, w := range workloads.All() {
		b.Run(w.Name+"/norc", func(b *testing.B) {
			runBench(b, compileWorkload(b, w.Name, ModeNoRC), RunConfig{})
		})
		b.Run(w.Name+"/cat", func(b *testing.B) {
			runBench(b, compileWorkload(b, w.Name, ModeNQ), RunConfig{CAtStyle: true})
		})
		b.Run(w.Name+"/rc", func(b *testing.B) {
			c := compileWorkload(b, w.Name, ModeInf)
			res := runBench(b, c, RunConfig{})
			b.ReportMetric(float64(res.Region.UnscanWords), "unscan-words")
		})
	}
}

// BenchmarkFigure8 measures each workload under nq / qs / inf / nc and
// reports the deterministic barrier cost (the paper's instruction-count
// model) as a metric.
func BenchmarkFigure8(b *testing.B) {
	for _, w := range workloads.All() {
		for _, mode := range []Mode{ModeNQ, ModeQS, ModeInf, ModeNC} {
			b.Run(w.Name+"/"+string(mode), func(b *testing.B) {
				c := compileWorkload(b, w.Name, mode)
				res := runBench(b, c, RunConfig{})
				b.ReportMetric(float64(res.Region.Cost), "cost-units")
			})
		}
	}
}

// BenchmarkFigure9 reports the runtime pointer-assignment category
// percentages under the inf configuration.
func BenchmarkFigure9(b *testing.B) {
	for _, w := range workloads.All() {
		b.Run(w.Name, func(b *testing.B) {
			c := compileWorkload(b, w.Name, ModeInf)
			res := runBench(b, c, RunConfig{})
			s := res.Region
			total := s.UncheckedPtrs + s.SameChecks + s.TradChecks + s.ParentChecks + s.FullUpdates
			if total > 0 {
				b.ReportMetric(100*float64(s.UncheckedPtrs)/float64(total), "safe-%")
				b.ReportMetric(100*float64(s.SameChecks+s.TradChecks+s.ParentChecks)/float64(total), "checked-%")
				b.ReportMetric(100*float64(s.FullUpdates)/float64(total), "counted-%")
			}
		})
	}
}

// ---------------------------------------------------------------------------
// Ablation benchmarks (DESIGN.md Section 5).

// BenchmarkAblationPointerFree measures delete-time scanning with and
// without the pointer-free allocator split, on a workload that allocates
// many pointer-free objects (grobner's bignum digit arrays).
func BenchmarkAblationPointerFree(b *testing.B) {
	for _, split := range []struct {
		name    string
		disable bool
	}{{"split", false}, {"nosplit", true}} {
		b.Run(split.name, func(b *testing.B) {
			c := compileWorkload(b, "grobner", ModeInf)
			res := runBench(b, c, RunConfig{DisablePointerFree: split.disable})
			b.ReportMetric(float64(res.Region.UnscanWords), "unscan-words")
			b.ReportMetric(float64(res.Region.UnscanObjects), "unscan-objs")
		})
	}
}

// BenchmarkAblationParentCheck compares the depth-first-numbering
// parentptr check against walking the parent chain, on the apache
// workload (the parentptr-heavy one).
func BenchmarkAblationParentCheck(b *testing.B) {
	for _, v := range []struct {
		name string
		walk bool
	}{{"numbering", false}, {"walk", true}} {
		b.Run(v.name, func(b *testing.B) {
			c := compileWorkload(b, "apache", ModeQS)
			runBench(b, c, RunConfig{ParentCheckByWalk: v.walk})
		})
	}
}

// BenchmarkAblationLocalPins compares RC's pin-at-deletes-calls protocol
// against C@'s stack scan at deleteregion, isolating the locals strategy
// (both run full counting with annotations ignored).
func BenchmarkAblationLocalPins(b *testing.B) {
	b.Run("pins", func(b *testing.B) {
		runBench(b, compileWorkload(b, "apache", ModeNQ), RunConfig{})
	})
	b.Run("stackscan", func(b *testing.B) {
		runBench(b, compileWorkload(b, "apache", ModeNQ), RunConfig{CAtStyle: true})
	})
}

// ---------------------------------------------------------------------------
// Microbenchmarks of the runtime primitives (the paper's Figure 3
// operations).

func benchRuntime(b *testing.B) (*region.Runtime, region.TypeID, mem.Addr, mem.Addr, mem.Addr) {
	b.Helper()
	rt := region.NewRuntime(region.Config{})
	node := rt.RegisterType(region.TypeDesc{
		Name: "node", Size: 2,
		CountedOffsets: []uint64{0}, AllPtrOffsets: []uint64{0, 1},
	})
	r1 := rt.NewRegion()
	r2 := rt.NewRegion()
	holder := r1.Alloc(node)
	sameVal := r1.Alloc(node)
	crossVal := r2.Alloc(node)
	return rt, node, holder, sameVal, crossVal
}

func BenchmarkStoreFullUpdate(b *testing.B) {
	rt, _, holder, same, cross := benchRuntime(b)
	vals := [2]mem.Addr{same, cross}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rt.StorePtr(holder, vals[i&1])
	}
}

func BenchmarkStoreSameCheck(b *testing.B) {
	rt, _, holder, same, _ := benchRuntime(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rt.StoreSameRegion(holder.Add(1), same)
	}
}

func BenchmarkStoreParentCheck(b *testing.B) {
	rt, _, holder, same, _ := benchRuntime(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rt.StoreParentPtr(holder.Add(1), same)
	}
}

func BenchmarkStoreUnchecked(b *testing.B) {
	rt, _, holder, same, _ := benchRuntime(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rt.StoreUnchecked(holder.Add(1), same)
	}
}

func BenchmarkRegionAlloc(b *testing.B) {
	rt := region.NewRuntime(region.Config{})
	node := rt.RegisterType(region.TypeDesc{Name: "node", Size: 4})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if i%10000 == 0 {
			b.StopTimer()
			rt = region.NewRuntime(region.Config{})
			node = rt.RegisterType(region.TypeDesc{Name: "node", Size: 4})
			b.StartTimer()
		}
		r := rt.NewRegion()
		for j := 0; j < 100; j++ {
			r.Alloc(node)
		}
		rt.DeleteRegion(r)
	}
}

// BenchmarkInference measures the constraint inference itself over the
// largest workload source (the paper: "the largest analysis time on any
// file in our benchmarks is 30s ... less than 1s for 96% of files").
func BenchmarkInference(b *testing.B) {
	w := workloads.ByName("lcc")
	src := w.Source(1)
	for i := 0; i < b.N; i++ {
		if _, err := Compile(src, ModeInf); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkGoNativeAPI measures the Go-native region layer.
func BenchmarkGoNativeAPI(b *testing.B) {
	type node struct {
		next Ref[node]
	}
	b.Run("alloc+link", func(b *testing.B) {
		a := NewArena()
		r := a.NewRegion()
		var prev *Obj[node]
		for i := 0; i < b.N; i++ {
			if i%100000 == 0 {
				b.StopTimer()
				prev = nil
				if i > 0 {
					if err := r.Delete(); err != nil {
						b.Fatal(err)
					}
				}
				r = a.NewRegion()
				b.StartTimer()
			}
			n := Alloc[node](r)
			_ = SetSame(n, &n.Value.next, prev)
			prev = n
		}
	})
	b.Run("counted-store", func(b *testing.B) {
		a := NewArena()
		r1 := a.NewRegion()
		r2 := a.NewRegion()
		h := Alloc[node](r1)
		v1 := Alloc[node](r1)
		v2 := Alloc[node](r2)
		vals := [2]*Obj[node]{v1, v2}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			MustSetRef(h, &h.Value.next, vals[i&1])
		}
	})
}

// ---------------------------------------------------------------------------
// Parallel benchmarks of the concurrent Go-native runtime (run with
// -cpu 1,2,4,... to see scaling). The paper's key cost claim must
// survive concurrency: annotated stores are check-only and write no
// shared cache line, so BenchmarkParallelSetSame scales linearly with
// GOMAXPROCS, while the counted stores of BenchmarkParallelSetRef all
// update one target region's reference count and contend.

type parNode struct {
	next  Ref[parNode] // sameregion link
	cross Ref[parNode] // counted link
	conf  Ref[parNode] // traditional link
	up    Ref[parNode] // parentptr link
}

// benchParallelAlloc is the shared body of the parallel allocation
// benchmarks: every P allocates into its own region (the webserver
// pattern of a region per request), optionally linking each object to
// the previous one with an annotated sameregion store, recycling the
// region every 8192 allocations.
func benchParallelAlloc(b *testing.B, link bool) {
	a := NewArena()
	b.RunParallel(func(pb *testing.PB) {
		r := a.NewRegion()
		var prev *Obj[parNode]
		n := 0
		for pb.Next() {
			o := Alloc[parNode](r)
			if link {
				MustSetSame(o, &o.Value.next, prev)
				prev = o
			}
			if n++; n == 8192 {
				prev = nil
				if err := r.Delete(); err != nil {
					b.Error(err)
					return
				}
				r = a.NewRegion()
				n = 0
			}
		}
		if err := r.Delete(); err != nil {
			b.Error(err)
		}
	})
}

// reqNode is one object of BenchmarkRegionRequest's request: two
// sameregion links and two counted ones, one kept inside the request
// and one into the long-lived server region.
type reqNode struct {
	next, peer Ref[reqNode] // sameregion
	link       Ref[reqNode] // counted, inside the request region
	conf       Ref[reqNode] // counted, into the server region
}

// BenchmarkRegionRequest serves one apache-shaped request per op — a
// region with 11 Allocs, 20 SetSames and 13 SetRefs (4 of them into a
// long-lived server region), then Delete, whose unscan releases every
// counted slot. Its allocs/op price the registry and the unscan
// (TestRegionRequestAllocs holds them at one, the Region itself).
func BenchmarkRegionRequest(b *testing.B) {
	serve := requestServer(NewArena())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := serve(i); err != nil {
			b.Fatal(err)
		}
	}
}

// batchNode is one object of BenchmarkOwnedBatch: lcc's list node, two
// sameregion links and a counted one into a shared symbol region.
type batchNode struct {
	val        int64
	next, peer Ref[batchNode] // sameregion
	sym        Ref[reqNode]   // counted, into the symbol region
}

// BenchmarkOwnedBatch builds one lcc-shaped batch per op on the owned
// path: Acquire a fresh region, 98 AllocOwned with the list and peer
// links stored by SetSameOwned, a counted SetRefOwned into a shared
// symbol region from every fourth node (25 slots registered in the
// region's registry, the first 16 inline), then Owner.Delete, whose
// unscan releases them and whose reclaim scrubs and pools the batch's
// chunk. The first AllocOwned claims from a pooled chunk with the
// shared fetch-add and seals it for the token; the other 97 are plain
// cursor bumps on the sealed chunk, which Owner.Delete hands back to the
// park before reclaim pools it. Its 3 allocs/op are the Region, the
// Owner and the registry's overflow past the 16 inline slots.
func BenchmarkOwnedBatch(b *testing.B) {
	a := NewArena()
	symR := a.NewRegion()
	var syms [64]*Obj[reqNode]
	for i := range syms {
		syms[i] = Alloc[reqNode](symR)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		o := a.NewRegion().Acquire()
		var prev *Obj[batchNode]
		for j := 0; j < 98; j++ {
			x := AllocOwned[batchNode](o)
			if prev != nil {
				if err := SetSameOwned(o, prev, &prev.Value.next, x); err != nil {
					b.Fatal(err)
				}
				if err := SetSameOwned(o, x, &x.Value.peer, prev); err != nil {
					b.Fatal(err)
				}
			}
			if j%4 == 0 {
				if err := SetRefOwned(o, x, &x.Value.sym, syms[j%len(syms)]); err != nil {
					b.Fatal(err)
				}
			}
			prev = x
		}
		if err := o.Delete(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRegionChurnSlab builds and deletes one grobner-shaped region
// per op (churnRegion: 880 SetSame-linked terms, 80 pointer-free
// coefficients) on an arena with off-heap slabs. The coefficients come
// out of a slab page and the terms out of heap chunks, which reclaim
// zeroes and pools for the next region once the count gate passes, so
// allocs/op is 3 (TestChurnSlabSteadyStateAllocs): the Region, its slab
// chunk and the ledger's page list.
func BenchmarkRegionChurnSlab(b *testing.B) {
	a := NewArena(WithOffHeapSlabs())
	defer a.CloseBackingStore()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := churnRegion(a); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRegionRequestInstrumented is BenchmarkRegionRequest on an
// arena with metrics and a ring tracer armed: the per-request price of
// every counter and of the created, deleted and reclaimed events each
// request notes (Region.note). The disarmed price is
// BenchmarkRegionRequest itself.
func BenchmarkRegionRequestInstrumented(b *testing.B) {
	serve := requestServer(NewArena(WithMetrics(), WithTracer(NewRingTracer(1<<12))))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := serve(i); err != nil {
			b.Fatal(err)
		}
	}
}

// TestRegionRequestAllocs holds BenchmarkRegionRequest's body to one
// heap allocation per request: the Region. The object chunks come back
// from the park and the pools, the registry's slots fit inline, and
// neither admission nor the unscan allocates. The same holds with
// metrics and a ring tracer armed (BenchmarkRegionRequestInstrumented):
// the ring writes each event in place.
func TestRegionRequestAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector drops sync.Pool puts at random, so chunk refills allocate")
	}
	for _, tc := range []struct {
		name  string
		arena *Arena
	}{
		{"disarmed", NewArena()},
		{"instrumented", NewArena(WithMetrics(), WithTracer(NewRingTracer(1<<12)))},
	} {
		serve := requestServer(tc.arena)
		i := 0
		allocs := testing.AllocsPerRun(200, func() {
			if err := serve(i); err != nil {
				t.Fatal(err)
			}
			i++
		})
		if allocs > 1 {
			t.Fatalf("%s: one request allocates %v times, want <= 1", tc.name, allocs)
		}
	}
}

// requestServer builds BenchmarkRegionRequest's long-lived server
// region in a and returns the per-op body: serve request i in a fresh
// region, then delete it.
func requestServer(a *Arena) func(i int) error {
	const nodes, cross, local = 11, 4, 9
	srv := a.NewRegion()
	confs := make([]*Obj[reqNode], 16)
	for i := range confs {
		confs[i] = Alloc[reqNode](srv)
	}
	var ns [nodes]*Obj[reqNode]
	return func(i int) error {
		r := a.NewRegion()
		for k := range ns {
			ns[k] = Alloc[reqNode](r)
		}
		for k := 1; k < nodes; k++ {
			MustSetSame(ns[k], &ns[k].Value.next, ns[k-1])
			MustSetSame(ns[k-1], &ns[k-1].Value.peer, ns[k])
		}
		for k := 0; k < cross; k++ {
			MustSetRef(ns[k], &ns[k].Value.conf, confs[(i+k)%len(confs)])
		}
		for k := 0; k < local; k++ {
			MustSetRef(ns[k], &ns[k].Value.link, ns[(k+5)%nodes])
		}
		return r.Delete()
	}
}

// BenchmarkParallelAlloc allocates from every P into its own region —
// the webserver pattern of a region per request.
func BenchmarkParallelAlloc(b *testing.B) { benchParallelAlloc(b, false) }

// BenchmarkParallelAllocOneRegion allocates from every P into one
// shared region, so the Ps share its object counter and its parked
// chunk's cursor. Each P replaces the shared region after every 1<<15
// of its own allocations, which bounds the memory a run retains; a P
// that loses the race with a replacement retries in the new region.
func BenchmarkParallelAllocOneRegion(b *testing.B) {
	a := NewArena()
	var cur atomic.Pointer[Region]
	cur.Store(a.NewRegion())
	b.RunParallel(func(pb *testing.PB) {
		n := 0
		for pb.Next() {
			for {
				if _, err := TryAlloc[parNode](cur.Load()); err == nil {
					break
				}
			}
			if n++; n == 1<<15 {
				n = 0
				if err := cur.Swap(a.NewRegion()).Delete(); err != nil {
					b.Error(err)
					return
				}
			}
		}
	})
	if err := cur.Load().Delete(); err != nil {
		b.Error(err)
	}
}

// BenchmarkParallelAllocSetSame interleaves each allocation with an
// annotated sameregion store — the paper's cheap-pointer pattern riding
// on the allocation fast path.
func BenchmarkParallelAllocSetSame(b *testing.B) { benchParallelAlloc(b, true) }

// BenchmarkParallelSetSame: every P runs annotated stores against its
// own objects inside one shared region. No shared cache line is written,
// so ns/op should hold steady (scale linearly) as GOMAXPROCS grows.
func BenchmarkParallelSetSame(b *testing.B) {
	a := NewArena()
	r := a.NewRegion()
	b.RunParallel(func(pb *testing.PB) {
		h := Alloc[parNode](r)
		v := Alloc[parNode](r)
		for pb.Next() {
			MustSetSame(h, &h.Value.next, v)
		}
	})
}

// BenchmarkParallelSetSameMetrics is BenchmarkParallelSetSame with the
// cumulative arena counters enabled (WithMetrics): the annotated
// store additionally bumps one per-shard atomic counter. Compare the two
// at -cpu 1,2,4,8 to measure the metrics overhead; with metrics left
// disabled (the default) the instrumentation is a single pointer load
// and never-taken branch, which is what keeps SetSame within the noise
// of the uninstrumented baseline.
func BenchmarkParallelSetSameMetrics(b *testing.B) {
	a := NewArena(WithMetrics())
	r := a.NewRegion()
	b.RunParallel(func(pb *testing.PB) {
		h := Alloc[parNode](r)
		v := Alloc[parNode](r)
		for pb.Next() {
			MustSetSame(h, &h.Value.next, v)
		}
	})
}

// BenchmarkParallelSetSameAdvisor is BenchmarkParallelSetSame with the
// annotation advisor armed (WithAdvisor): every store additionally pays
// runtime.Callers plus a sharded table hit. Compare against
// BenchmarkParallelSetSame for the armed cost; the disarmed cost is the
// baseline itself (one pointer load and never-taken branch on the same
// cached gate the metrics use).
func BenchmarkParallelSetSameAdvisor(b *testing.B) {
	a := NewArena(WithAdvisor())
	r := a.NewRegion()
	b.RunParallel(func(pb *testing.PB) {
		h := Alloc[parNode](r)
		v := Alloc[parNode](r)
		for pb.Next() {
			MustSetSame(h, &h.Value.next, v)
		}
	})
}

// BenchmarkParallelSetTrad: annotated traditional stores from every P
// into the arena's traditional region. Check-only, like SetSame.
func BenchmarkParallelSetTrad(b *testing.B) {
	a := NewArena()
	r := a.NewRegion()
	conf := Alloc[parNode](a.Traditional())
	b.RunParallel(func(pb *testing.PB) {
		h := Alloc[parNode](r)
		for pb.Next() {
			MustSetTrad(h, &h.Value.conf, conf)
		}
	})
}

// BenchmarkParallelSetTradMetrics is the counters-enabled variant.
func BenchmarkParallelSetTradMetrics(b *testing.B) {
	a := NewArena(WithMetrics())
	r := a.NewRegion()
	conf := Alloc[parNode](a.Traditional())
	b.RunParallel(func(pb *testing.PB) {
		h := Alloc[parNode](r)
		for pb.Next() {
			MustSetTrad(h, &h.Value.conf, conf)
		}
	})
}

// BenchmarkParallelSetParent: annotated parentptr stores from objects in
// a shared subregion up to an object in the parent. Check-only; the
// ancestry walk is over immutable parent pointers.
func BenchmarkParallelSetParent(b *testing.B) {
	a := NewArena()
	parent := a.NewRegion()
	up := Alloc[parNode](parent)
	sub := parent.NewSubregion()
	b.RunParallel(func(pb *testing.PB) {
		h := Alloc[parNode](sub)
		for pb.Next() {
			MustSetParent(h, &h.Value.up, up)
		}
	})
}

// BenchmarkParallelSetParentMetrics is the counters-enabled variant.
func BenchmarkParallelSetParentMetrics(b *testing.B) {
	a := NewArena(WithMetrics())
	parent := a.NewRegion()
	up := Alloc[parNode](parent)
	sub := parent.NewSubregion()
	b.RunParallel(func(pb *testing.PB) {
		h := Alloc[parNode](sub)
		for pb.Next() {
			MustSetParent(h, &h.Value.up, up)
		}
	})
}

// setRefLoop alternates a counted store of target into h's cross slot
// with a nil store, so every other op releases the reference again.
func setRefLoop(pb *testing.PB, h, target *Obj[parNode]) {
	clear := false
	for pb.Next() {
		if clear {
			MustSetRef(h, &h.Value.cross, nil)
		} else {
			MustSetRef(h, &h.Value.cross, target)
		}
		clear = !clear
	}
}

// BenchmarkParallelSetRef: every P stores counted references to one
// shared region from its own holder, so all Ps contend on the target's
// atomic reference count — the cost the annotations exist to avoid.
func BenchmarkParallelSetRef(b *testing.B) {
	a := NewArena()
	shared := a.NewRegion()
	target := Alloc[parNode](shared)
	b.RunParallel(func(pb *testing.PB) {
		setRefLoop(pb, Alloc[parNode](a.NewRegion()), target)
	})
}

// BenchmarkParallelSetRefAdvisor is BenchmarkParallelSetRef with the
// annotation advisor armed. Every P's holder lives in its own region
// and the target is shared, so the advisor classifies the site as a
// keeper (no cheaper flavour is legal) while still paying the full
// profiling cost — the worst case for an armed contended store.
func BenchmarkParallelSetRefAdvisor(b *testing.B) {
	a := NewArena(WithAdvisor())
	shared := a.NewRegion()
	target := Alloc[parNode](shared)
	b.RunParallel(func(pb *testing.PB) {
		setRefLoop(pb, Alloc[parNode](a.NewRegion()), target)
	})
}

// BenchmarkParallelSetRefOneHolder: every P stores counted references
// from its own object in one shared holder region, each into a target
// region of its own, so the Ps share only the holder's slot-registry
// lock — the traffic a registry sharded by slot address would spread.
func BenchmarkParallelSetRefOneHolder(b *testing.B) {
	a := NewArena()
	holders := a.NewRegion()
	b.RunParallel(func(pb *testing.PB) {
		setRefLoop(pb, Alloc[parNode](holders), Alloc[parNode](a.NewRegion()))
	})
}

// BenchmarkParallelPin measures the pin/unpin pair against a shared
// region (contended, like SetRef: pins are counted references).
func BenchmarkParallelPin(b *testing.B) {
	a := NewArena()
	r := a.NewRegion()
	o := Alloc[parNode](r)
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			Pin(o)()
		}
	})
}

var _ = vm.Config{} // keep the import for test helpers in other files
