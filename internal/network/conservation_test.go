package network

import (
	"fmt"
	"testing"

	"mmr/internal/flit"
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
//
// The cycle's service S must also be a sub-permutation: no output carries
// two flits in one cycle. A link output sends at most one (no outbound
// flit lane holds two entries that arrive in the same cycle) and the host
// output ejects at most one (no node's delivered count grows by two in a
// cycle).
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
				q, a, s, e := make([]int64, len(n.nodes)), make([]int64, len(n.nodes)), make([]int64, len(n.nodes)), make([]int64, len(n.nodes))
				for i, nd := range n.nodes {
					q[i], a[i], s[i], e[i] = queued(nd), nd.Work.Enqueued, nd.Work.Grants, ejected(nd)
				}
				for c := 0; c < fab.cycles; c++ {
					n.Run(1)
					for i, nd := range n.nodes {
						checkSubPermutation(t, nd, n.now-1, ejected(nd)-e[i])
						e[i] = ejected(nd)
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

// ejected is every flit node nd has delivered to its host.
func ejected(nd *node) int64 {
	sk := &nd.stats.sink
	return sk.Streams() + sk.Delivered[flit.ClassBestEffort]
}

// checkSubPermutation fails t if node nd's outputs carried more than one
// flit each in cycle t: two entries of one outbound flit lane due the same
// cycle, or more than one flit ejected.
func checkSubPermutation(t *testing.T, nd *node, cycle, ejectedNow int64) {
	t.Helper()
	if ejectedNow > 1 {
		t.Fatalf("cycle %d node %d: ejected %d flits", cycle, nd.id, ejectedNow)
	}
	for p := range nd.out {
		pending := nd.out[p].flits.Pending()
		for j := 1; j < len(pending); j++ {
			if pending[j].At == pending[j-1].At {
				t.Fatalf("cycle %d node %d: output %d sent two flits due at cycle %d", cycle, nd.id, p, pending[j].At)
			}
		}
	}
}
