// Package chaos is the randomized robustness harness for the
// concurrent region runtime: seeded workloads driven against the real
// Arena with failpoints (internal/failpoint) armed on every
// instrumented lifecycle edge, and every quiesce point judged.
//
// A full run (Run) is a sequential phase followed by the concurrent
// phases of one table, each with a seed derived from the top-level
// seed, so a single seed reproduces everything:
//
//   - Sequential, model-checked (model.go): a single goroutine performs
//     random lifecycle operations while every outcome — success or
//     specific error — is checked op-by-op against a pure reference
//     model of the delete and ownership state machine. Failpoints here
//     are restricted to rules whose evaluation streams are
//     deterministic for a fixed seed, so two runs with the same seed
//     must produce identical traces (TestSequentialDeterminism).
//   - Concurrent (concurrent.go): the phases table holds seven entries —
//     perturb, errors, alloc-churn, fabric, ownership, contention and
//     slab. An entry names the phase and carries its seed offset, its
//     failpoint rules, its NewArena options, and a setup that builds
//     its shared state and returns its worker body, its teardown and
//     any judges of its own.
//
// One core runs every concurrent phase: it arms the rules, spawns the
// workers (each with its own seeded rng and one shared first-error
// sink that never blocks), disarms, tears down, stops the watchdogs
// and samplers the setup started, and sweeps lost drains. One judge
// then holds every phase to the same identities: a clean Audit; the
// arena's Allocs equal to the workers' own count of successful
// allocations; Acquires == Releases + OwnerRevocations; SlabRefills ==
// SlabReleases; Reclaims == Deletes + DeferredDeletes == the regions
// created besides the traditional one; nothing alive but the traditional region, no zombie,
// owner or parked waiter left; the advisor table equal to the
// workers' store counts whenever the arena has the advisor; and no
// drained zombie left for the quiesce sweep unless the phase's rules
// inject drain errors — a lost drain is a failure, not something the
// sweep heals silently.
//
// Coverage is part of the gate: a run fails if any rcgo/* failpoint
// site never fired. RunPhase reruns one phase by name with the seed it
// gets inside Run. cmd/rcchaos is the command-line front end;
// chaos_test.go and the FuzzDeleteStateMachine target run the same
// engine in-process.
package chaos
