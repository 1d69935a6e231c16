// Pipeline: the build → transfer → delete pattern the ownership API
// exists for. A producer stage acquires a region, fills it through the
// owned fast path — plain owner-local counters, no shared-atomic or
// shard-lock traffic per operation — then hands the Owner token to a
// consumer stage over a channel. The channel send/receive pair is the
// happens-before edge that publishes every owner-local write, so the
// consumer continues on the same fast path and finally deletes the
// whole batch through the token in one step. At no point is the region
// visible to the shared API: any TryAlloc/SetRef/Delete against it from
// outside fails with ErrRegionOwned until the token is released.
package main

import (
	"errors"
	"fmt"

	"rcgo"
)

// batch is one pipeline message: a same-region list of work items that
// lives and dies with its region.
type batch struct {
	next rcgo.Ref[batch]
	item int
}

func main() {
	arena := rcgo.NewArena(rcgo.WithMetrics())

	const batches = 4
	const itemsPer = 5

	// One pipeline message: the Owner token (the capability) plus the
	// list head (the data). Sending both over the channel is the
	// happens-before edge for the owner-local state behind each.
	type message struct {
		own  *rcgo.Owner
		head *rcgo.Obj[batch]
	}
	handoff := make(chan message)
	done := make(chan int)

	// Consumer stage: receive each batch, append a terminator through
	// the still-owned fast path, walk the list (plain reads — the
	// channel hand-off already ordered them), then delete the region
	// through the token. Owner.Delete flushes, checks, and frees in one
	// step; there is nothing to release separately.
	go func() {
		sum := 0
		for m := range handoff {
			end := rcgo.AllocOwned[batch](m.own) // consumer owns it now
			end.Value.item = 1000
			if err := rcgo.SetSameOwned(m.own, end, &end.Value.next, nil); err != nil {
				panic(err)
			}
			for n := m.head; n != nil; n = n.Value.next.Get() {
				sum += n.Value.item
			}
			sum += end.Value.item
			if err := m.own.Delete(); err != nil {
				panic(err)
			}
		}
		done <- sum
	}()

	// Producer stage: one region per batch, built entirely while owned.
	for b := 0; b < batches; b++ {
		r := arena.NewRegion()
		own := r.Acquire()

		var head *rcgo.Obj[batch]
		for i := 0; i < itemsPer; i++ {
			n := rcgo.AllocOwned[batch](own)
			n.Value.item = b*itemsPer + i + 1
			if err := rcgo.SetSameOwned(own, n, &n.Value.next, head); err != nil {
				panic(err)
			}
			head = n
		}

		// Exclusivity demo: while owned, the shared API is locked out.
		if b == 0 {
			if _, err := rcgo.TryAlloc[batch](r); !errors.Is(err, rcgo.ErrRegionOwned) {
				panic("shared alloc should have been rejected while owned")
			}
			if err := r.Delete(); !errors.Is(err, rcgo.ErrRegionOwned) {
				panic("shared delete should have been rejected while owned")
			}
			fmt.Println("while owned, shared Alloc and Delete fail with:", rcgo.ErrRegionOwned)
		}

		handoff <- message{own, head} // transfer: the consumer now owns the region
	}
	close(handoff)
	sum := <-done

	c := arena.Counters()
	// Items carry 1..batches*itemsPer, terminators 1000 each.
	fmt.Printf("consumer summed %d items + %d terminators: %d\n",
		batches*itemsPer, batches, sum)
	fmt.Printf("acquires=%d releases=%d owner flushes=%d, all allocation owned-path\n",
		c.Acquires, c.Releases, c.OwnerFlushes)
	fmt.Println("live objects after pipeline:", arena.LiveObjects())
}
