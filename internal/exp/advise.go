package exp

// The annotation advisor's end-to-end replay (DESIGN.md §13): the
// grobner op mix through the Go-native API with every store
// deliberately un-annotated (SetRef), which the advisor must profile
// back into upgrade candidates. cmd/rcbench exposes it as -advise
// (non-zero exit when no candidate is found, the `make advise-smoke`
// gate); the advisor's cost is the "advisor" group of the A/B harness
// (ab.go, EXPERIMENTS.md §"Annotation advisor").

import "rcgo"

// advNode carries one slot per store flavour, like the parallel
// benchmark node in bench_test.go.
type advNode struct {
	next  rcgo.Ref[advNode] // sameregion link
	cross rcgo.Ref[advNode] // counted link
	conf  rcgo.Ref[advNode] // traditional link
	up    rcgo.Ref[advNode] // parentptr link
}

// AdviseReplay replays the grobner workload's op mix through the
// Go-native API with every store deliberately un-annotated — each one
// a counted SetRef, the conservative choice a porter makes before
// thinking about flavours — on an advisor-armed arena, and returns the
// profile. grobner's measured stores-per-allocation ratio sets how many
// stores ride on each allocation, so the replay carries the workload's
// real mix rather than an invented one. The replay's call sites are
// upgradeable by construction:
//
//   - the linking store targets the holder's own region → SetSame
//   - the config store targets the traditional region → SetTrad
//   - the uplink store targets the parent region → SetParent
//
// plus one correctly annotated SetSame site as a keep-as-is control.
// A report without upgrade candidates means the advisor lost the
// lattice, and rcbench -advise exits non-zero (`make advise-smoke`).
func AdviseReplay(allocs int) (rcgo.AdvisorReport, error) {
	if allocs <= 0 {
		allocs = 20000
	}
	storesPerAlloc, err := workloadStoresPerAlloc("grobner", 2)
	if err != nil {
		return rcgo.AdvisorReport{}, err
	}
	if storesPerAlloc < 1 {
		storesPerAlloc = 1
	}

	a := rcgo.NewArena(rcgo.WithAdvisor())
	conf := rcgo.Alloc[advNode](a.Traditional())
	parent := a.NewRegion()
	up := rcgo.Alloc[advNode](parent)

	r := parent.NewSubregion()
	var prev *rcgo.Obj[advNode]
	n := 0
	for i := 0; i < allocs; i++ {
		o := rcgo.Alloc[advNode](r)
		for s := 0; s < storesPerAlloc; s++ {
			// Un-annotated same-region link: upgradeable to SetSame.
			if err := rcgo.SetRef(o, &o.Value.next, prev); err != nil {
				return rcgo.AdvisorReport{}, err
			}
		}
		// Un-annotated store of the shared config: upgradeable to
		// SetTrad, and every one pays a real rc update pair.
		if err := rcgo.SetRef(o, &o.Value.conf, conf); err != nil {
			return rcgo.AdvisorReport{}, err
		}
		// Un-annotated uplink into the parent region: upgradeable to
		// SetParent, also paying rc updates.
		if err := rcgo.SetRef(o, &o.Value.up, up); err != nil {
			return rcgo.AdvisorReport{}, err
		}
		// The control: a correctly annotated sameregion store the
		// report must list as keep-as-is.
		if err := rcgo.SetSame(o, &o.Value.cross, o); err != nil {
			return rcgo.AdvisorReport{}, err
		}
		prev = o
		if n++; n == 8192 {
			prev = nil
			r.DeleteDeferred()
			r = parent.NewSubregion()
			n = 0
		}
	}
	r.DeleteDeferred()
	return a.AdvisorReport(), nil
}
