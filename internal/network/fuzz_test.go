package network

import (
	"testing"
	"testing/quick"

	"mmr/internal/flit"
	"mmr/internal/sim"
	"mmr/internal/topology"
	"mmr/internal/traffic"
)

// churn drives a small mesh with random interleaved operations —
// single opens for the default tenant and a named one, retried opens,
// teardowns, best-effort flows, link failures and repairs, cycle
// bursts — and checks invariants after each: flit conservation across
// VCMs, wires, queues and fault losses; allocator registers never
// negative; the resource bookkeeping of closed and fault-broken
// connections fully released (CheckInvariants).
// Panics (flow-control violations, double releases, paranoid-mode audits)
// fail the property. Shared by the quick.Check test and the native
// fuzzers.
func churn(seed uint64, ops []byte) bool {
	return churnOps(seed, DefaultConfig(nil).LinkDelay, ops, (*Network).Run)
}

// churnOps is churn at a given link delay, with the cycle bursts run by
// the caller's function (which may check more as it goes).
func churnOps(seed uint64, linkDelay int64, ops []byte, run func(n *Network, cycles int64)) bool {
	tp, err := topology.Mesh(3, 3, 4)
	if err != nil {
		return false
	}
	cfg := DefaultConfig(tp)
	cfg.VCs = 8
	cfg.Seed = seed
	cfg.LinkDelay = linkDelay
	n, err := New(cfg)
	if err != nil {
		return false
	}
	rng := sim.NewRNG(seed ^ 0x5ca1ab1e)
	var open []*Conn
	for _, op := range ops {
		switch op % 10 {
		case 0, 1: // synchronous open
			src, dst := rng.Intn(9), rng.Intn(9)
			if src == dst {
				break
			}
			rate := traffic.PaperRates[rng.Intn(len(traffic.PaperRates))]
			if c, err := n.Open(src, dst, traffic.ConnSpec{Class: flit.ClassCBR, Rate: rate}); err == nil {
				open = append(open, c)
			}
		case 2: // a tenant's single attempt
			src, dst := rng.Intn(9), rng.Intn(9)
			if src == dst {
				break
			}
			n.OpenRequest(OpenReq{Src: src, Dst: dst, Spec: traffic.ConnSpec{Class: flit.ClassCBR, Rate: 10 * traffic.Mbps}, Tenant: "fuzz"},
				FormOnce, func(c *Conn, err error) {
					if err == nil {
						open = append(open, c)
					}
				})
		case 3: // open with backoff retries
			src, dst := rng.Intn(9), rng.Intn(9)
			if src == dst {
				break
			}
			n.OpenWithRetry(src, dst, traffic.ConnSpec{Class: flit.ClassCBR, Rate: 20 * traffic.Mbps},
				func(c *Conn, err error) {
					if err == nil {
						open = append(open, c)
					}
				})
		case 4: // teardown one connection
			if len(open) > 0 {
				i := rng.Intn(len(open))
				if err := n.DrainAndClose(open[i], 3000); err == nil {
					open = append(open[:i], open[i+1:]...)
				}
			}
		case 5: // best-effort flow
			src, dst := rng.Intn(9), rng.Intn(9)
			if src != dst {
				n.AddBestEffortFlow(src, dst, 0.002)
			}
		case 6: // fail a random link (paranoid audit runs inside)
			l := tp.Links[rng.Intn(len(tp.Links))]
			n.FailLink(l.A, l.APort)
		case 7: // restore a random link
			l := tp.Links[rng.Intn(len(tp.Links))]
			n.RestoreLink(l.A, l.APort)
		default: // run cycles
			run(n, int64(op)*3+16)
		}
		if !networkInvariants(n) {
			return false
		}
	}
	return true
}

// TestNetworkFuzzChurn runs the churn property under testing/quick.
func TestNetworkFuzzChurn(t *testing.T) {
	f := churn
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// FuzzNetworkChurn runs the same churn property under Go's native
// fuzzer, so `go test -fuzz=FuzzNetworkChurn -fuzztime=30s` explores
// operation interleavings coverage-guided (the Makefile's fuzz-smoke
// target runs a short budget of this in CI).
func FuzzNetworkChurn(f *testing.F) {
	f.Add(uint64(1), []byte{0, 9, 6, 9, 7, 4})
	f.Add(uint64(7), []byte{2, 9, 3, 6, 9, 6, 9, 7, 7, 4, 4})
	f.Add(uint64(42), []byte{1, 1, 5, 9, 6, 8, 7, 9, 4, 4})
	f.Fuzz(func(t *testing.T, seed uint64, ops []byte) {
		if len(ops) > 48 {
			ops = ops[:48] // bound per-case runtime
		}
		if !churn(seed, ops) {
			t.Fatal("network invariants violated")
		}
	})
}

// networkInvariants checks global conservation and bookkeeping sanity:
// every generated flit is delivered, buffered, queued, in flight, or
// accounted lost to a fault/impairment — and the structural audit in
// CheckInvariants holds.
func networkInvariants(n *Network) bool {
	var buffered, inflight, queued int64
	for _, nd := range n.nodes {
		for p, mem := range nd.Mems {
			occ := mem.Occupied()
			if occ < 0 || occ > n.cfg.VCs*n.cfg.Depth {
				return false
			}
			buffered += int64(occ)
			if nd.Alloc[p].Guaranteed() < 0 {
				return false
			}
		}
		for q := range nd.out {
			inflight += int64(len(nd.out[q].flits.Pending()))
		}
	}
	for _, c := range n.conns {
		queued += int64(c.ni.Queue.Len())
	}
	for _, bf := range n.beFlows {
		queued += int64(bf.ni.Queue.Len())
	}
	var gen, del, lost int64
	for _, nd := range n.nodes {
		gen += nd.stats.generated + nd.stats.beGenerated
		del += nd.stats.sink.Streams() + nd.stats.sink.Delivered[flit.ClassBestEffort]
		lost += nd.stats.flitsDropped
	}
	lost += n.m.FaultFlitsLost
	if gen != del+buffered+queued+inflight+lost {
		return false
	}
	return n.CheckInvariants() == nil
}

// TestNetworkDeterminism: identical seeds give identical multi-router
// results.
func TestNetworkDeterminism(t *testing.T) {
	run := func() *Stats {
		tp, _ := topology.Mesh(3, 3, 4)
		cfg := DefaultConfig(tp)
		cfg.VCs = 16
		cfg.Seed = 5
		n, _ := New(cfg)
		for i := 0; i < 5; i++ {
			n.Open(i, 8-i, traffic.ConnSpec{Class: flit.ClassCBR, Rate: 20 * traffic.Mbps})
		}
		n.AddBestEffortFlow(0, 8, 0.01)
		n.Run(15_000)
		return n.Stats()
	}
	a, b := run(), run()
	if a.FlitsDelivered != b.FlitsDelivered || a.Latency.Mean() != b.Latency.Mean() ||
		a.BEDelivered != b.BEDelivered {
		t.Fatalf("same seed, different results:\n%v\n%v", a, b)
	}
}

// TestNetworkLinkDelayScaling: longer wires add latency but never break
// flow control.
func TestNetworkLinkDelayScaling(t *testing.T) {
	lat := func(delay int64) float64 {
		tp, _ := topology.Mesh(3, 1, 4) // 2-hop chain
		cfg := DefaultConfig(tp)
		cfg.VCs = 16
		cfg.LinkDelay = delay
		n, _ := New(cfg)
		if _, err := n.Open(0, 2, traffic.ConnSpec{Class: flit.ClassCBR, Rate: 55 * traffic.Mbps}); err != nil {
			t.Fatal(err)
		}
		n.Run(20_000)
		st := n.Stats()
		if st.FlitsDelivered == 0 {
			t.Fatalf("no delivery at link delay %d", delay)
		}
		return st.Latency.Mean()
	}
	l1, l4 := lat(1), lat(4)
	// Two inter-router wires plus credit returns: each extra delay cycle
	// adds at least two cycles of latency.
	if l4 < l1+5 {
		t.Fatalf("latency did not scale with link delay: %.2f vs %.2f", l1, l4)
	}
}
