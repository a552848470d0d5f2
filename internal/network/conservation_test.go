package network

import (
	"fmt"
	"testing"
)

// queued is Q of node nd: the flits its VC memories buffer, summed from the
// records' queue lengths rather than from the Occ mirror the memories keep.
// A port without records buffers nothing.
func queued(nd *node) int64 {
	q := int64(0)
	for _, mem := range nd.Mems {
		for vc := 0; mem.Materialized() && vc < mem.NumVCs(); vc++ {
			q += int64(mem.Len(vc))
		}
	}
	return q
}

// TestQueueConservation holds every node of the dense and the sparse toy
// fabric to the queue equation of "From MWM to iSLIP", Q(t+1) = Q(t) + A(t)
// − S(t), every cycle, gated and under NoIdleSkip: Q is what the node's VC
// records buffer, A the flits Core.Enqueue wrote (Work.Enqueued) — arrivals
// off the links and injections from the host — and S the flits the switch
// granted out of their VCs (Work.Grants). The runs are fault-free, so no
// teardown purges a VC and no impairment drops a flit.
func TestQueueConservation(t *testing.T) {
	for _, fab := range []struct {
		name   string
		cycles int
		build  func(noIdleSkip bool) *Network
	}{
		{"dense", 1500, func(noIdleSkip bool) *Network { return buildDense(t, 4, noIdleSkip) }},
		{"sparse", 6000, func(noIdleSkip bool) *Network { return buildSparse(t, 4, 1, 24, noIdleSkip) }},
	} {
		for _, noIdleSkip := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/noIdleSkip=%v", fab.name, noIdleSkip), func(t *testing.T) {
				n := fab.build(noIdleSkip)
				q, a, s := make([]int64, len(n.nodes)), make([]int64, len(n.nodes)), make([]int64, len(n.nodes))
				for i, nd := range n.nodes {
					q[i], a[i], s[i] = queued(nd), nd.Work.Enqueued, nd.Work.Grants
				}
				for c := 0; c < fab.cycles; c++ {
					n.Run(1)
					for i, nd := range n.nodes {
						nq, na, ns := queued(nd), nd.Work.Enqueued, nd.Work.Grants
						if nq-q[i] != (na-a[i])-(ns-s[i]) {
							t.Fatalf("cycle %d node %d: Q went %d → %d with %d flits enqueued and %d granted",
								n.now-1, i, q[i], nq, na-a[i], ns-s[i])
						}
						q[i], a[i], s[i] = nq, na, ns
					}
				}
				enq, grants := int64(0), int64(0)
				for i := range n.nodes {
					enq, grants = enq+a[i], grants+s[i]
				}
				if grants == 0 || n.Stats().FlitsDelivered == 0 {
					t.Fatalf("degenerate run: %d enqueued, %d granted", enq, grants)
				}
			})
		}
	}
}
