package main

// The reference probe. The benchmark's machine shares each core with
// other guests, and how much of the core's cache and cycles they leave
// it changes by tens of percent over seconds and minutes: two runs of the
// same seed a minute apart differed by a third. A pointer chase around a
// fixed 128 KB cycle, which lives in the core's L2 cache, slows down and
// speeds up with the machine and with nothing the runtime does. The load
// goroutine times it every probeEvery between two ops, and the reported
// times are scaled by refStepNs over the chase's measured time per step
// (rates by its inverse): what the run would have measured on a core
// where the chase takes refStepNs per step. README.md ("The reference
// probe") gives the spreads with and without the scaling.

import "time"

const (
	probeWords  = 1 << 15 // the cycle's length: 128 KB of uint32
	probePasses = 4       // timed passes around the cycle per probe
	probeEvery  = int64(50 * time.Millisecond)
	// refStepNs is about the chase's median time per step in the
	// baseline runs (see README.md), so scaled and raw values are close
	// on that machine.
	refStepNs = 5.5
)

// probe is one goroutine's copy of the cycle: next[i] is the step after
// i. end, where the last chase stopped, keeps the chase from being
// optimised away.
type probe struct {
	next []uint32
	end  uint32
}

// newProbe builds a random cycle through every word, the same in every
// run, so that a step's load address is unpredictable.
func newProbe() *probe {
	perm := make([]uint32, probeWords)
	for i := range perm {
		perm[i] = uint32(i)
	}
	rg := newRNG(0x9e3779b9, -2)
	for i := len(perm) - 1; i > 0; i-- {
		j := rg.intn(i + 1)
		perm[i], perm[j] = perm[j], perm[i]
	}
	pr := &probe{next: make([]uint32, probeWords)}
	for i, v := range perm {
		pr.next[v] = perm[(i+1)%len(perm)]
	}
	return pr
}

// stepNs goes around the cycle once untimed, to bring it back into the
// cache after the workload's ops, then probePasses times timed, and
// returns the time per step in ns.
func (pr *probe) stepNs() float64 {
	i := pr.chase(0, probeWords)
	t0 := now()
	pr.end = pr.chase(i, probePasses*probeWords)
	return float64(now()-t0) / (probePasses * probeWords)
}

func (pr *probe) chase(i uint32, steps int) uint32 {
	next := pr.next
	for k := 0; k < steps; k++ {
		i = next[i]
	}
	return i
}

// medianStepNs is the median of n probes' time per step.
func (pr *probe) medianStepNs(n int) float64 {
	v := make([]float64, n)
	for i := range v {
		v[i] = pr.stepNs()
	}
	return median(v)
}
