// Package flow implements the MMR's link-level virtual-channel flow
// control: credit-based backpressure that prevents flits from ever being
// dropped (§1, §4.2). The sender holds one credit per free flit slot in
// the receiver's VCM queue for each virtual channel; transmitting a flit
// consumes a credit and draining the downstream buffer returns one. Small
// flit buffers make credit propagation fast, which is what lets the MMR
// push policing back to the source interface (§4.2).
package flow

import (
	"fmt"
	"math"

	"mmr/internal/bitvec"
)

// Credits tracks the sender-side credit counters for one physical link's
// virtual channels, mirroring the free space of the downstream VCM. A
// count is one byte: the buffer it mirrors holds a few flits (§1), and a
// VC memory's buffers are at most 255 flits deep.
type Credits struct {
	max    uint8
	counts []uint8
	avail  bitvec.Vector // credit>0, one bit per VC (§4.1 credits_available)
}

// NewCredits returns a tracker for vcs virtual channels, each starting
// with depth credits (the downstream per-VC buffer capacity).
func NewCredits(vcs, depth int) *Credits {
	if vcs < 1 {
		panic(fmt.Sprintf("flow: invalid geometry vcs=%d depth=%d", vcs, depth))
	}
	return NewCreditsBacked(depth, make([]uint8, vcs))
}

// NewCreditsBacked is NewCredits with caller-provided counter storage —
// the structure-of-arrays form: a router allocates one backing array for
// all its ports and hands each tracker a len(vcs) window, so every credit
// counter the per-cycle scans touch sits in one contiguous block. counts
// is overwritten to the full depth.
func NewCreditsBacked(depth int, counts []uint8) *Credits {
	if len(counts) < 1 || depth < 1 || depth > math.MaxUint8 {
		panic(fmt.Sprintf("flow: invalid geometry vcs=%d depth=%d", len(counts), depth))
	}
	c := &Credits{max: uint8(depth), counts: counts}
	c.avail.Init(len(counts))
	for i := range c.counts {
		c.counts[i] = c.max
	}
	c.avail.Fill()
	return c
}

// Available returns the credits held for VC vc.
func (c *Credits) Available(vc int) int { return int(c.counts[vc]) }

// Vector returns the credits_available status bit vector (read-only).
func (c *Credits) Vector() *bitvec.Vector { return &c.avail }

// Consume spends one credit of VC vc before transmitting a flit. It
// reports false — and consumes nothing — if no credit is held; sending
// anyway would overflow the downstream buffer.
func (c *Credits) Consume(vc int) bool {
	if c.counts[vc] == 0 {
		return false
	}
	c.counts[vc]--
	if c.counts[vc] == 0 {
		c.avail.Clear(vc)
	}
	return true
}

// Return gives back one credit for VC vc (the downstream node drained a
// flit). Returning beyond the buffer capacity panics: it means the
// protocol double-counted a slot.
func (c *Credits) Return(vc int) {
	if c.counts[vc] >= c.max {
		panic(fmt.Sprintf("flow: credit overflow on VC %d", vc))
	}
	c.counts[vc]++
	c.avail.Set(vc)
}

// Reset restores VC vc to the full credit count. Connection teardown
// uses it after flushing the downstream buffer: every slot is free
// again, and any credit still in flight for the VC must have been
// purged by the caller or Return will overflow later.
func (c *Credits) Reset(vc int) {
	c.counts[vc] = c.max
	c.avail.Set(vc)
}

// SetAvailable forces VC vc's credit count to n, maintaining the status
// bit vector. Checkpoint restore uses it to reinstate mid-flight credit
// balances; n outside [0, depth] panics as it could never arise from
// the protocol.
func (c *Credits) SetAvailable(vc, n int) {
	if n < 0 || n > int(c.max) {
		panic(fmt.Sprintf("flow: restored credit count %d outside [0,%d]", n, c.max))
	}
	c.counts[vc] = uint8(n)
	if n > 0 {
		c.avail.Set(vc)
	} else {
		c.avail.Clear(vc)
	}
}

// CreditPipe models the return path's latency: credits issued downstream
// become visible to the sender only after a fixed delay in cycles. The
// zero delay degenerates to immediate visibility.
type CreditPipe struct {
	delay int64
	lane  Lane[int] // the VC each credit in flight is for
}

// NewCreditPipe returns a pipe with the given propagation delay.
func NewCreditPipe(delay int64) *CreditPipe {
	if delay < 0 {
		delay = 0
	}
	return &CreditPipe{delay: delay}
}

// Send enqueues a credit for VC vc at time now; it becomes deliverable at
// now+delay.
func (p *CreditPipe) Send(now int64, vc int) { p.lane.Push(now+p.delay, vc) }

// DeliverTo returns every credit that has arrived by time now into cr, in
// send order, and reports how many were delivered.
func (p *CreditPipe) DeliverTo(now int64, cr *Credits) int {
	n := 0
	for ; p.lane.Ready(now); n++ {
		cr.Return(p.lane.Pop())
	}
	p.lane.Settle()
	return n
}
