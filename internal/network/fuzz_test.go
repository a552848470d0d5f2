package network

import (
	"bytes"
	"fmt"
	"reflect"
	"testing"
	"testing/quick"

	"mmr/internal/flit"
	"mmr/internal/sim"
	"mmr/internal/topology"
	"mmr/internal/traffic"
)

// churn drives a small mesh with random interleaved operations —
// CBR and VBR opens for the default tenant, a named tenant's single
// attempt, retried opens, teardowns, best-effort flows, link failures and
// repairs, cycle bursts — on a gated fabric and its NoIdleSkip twin in
// lockstep. After each operation both must pass the invariants
// (networkInvariants: flit conservation across VCMs, wires, queues and
// fault losses; allocator registers never negative; the resource
// bookkeeping of closed and fault-broken connections fully released) and
// agree byte for byte in EncodeState and field for field in Stats: gating
// is an execution strategy, never a simulation. A checkpoint cut after the
// last operation is restored into a fresh fabric of either mode, which runs
// a tail beside the twins and must stay equal to them. Panics
// (flow-control violations, double releases, paranoid-mode audits) fail the
// property. Shared by the quick.Check test and the native fuzzers.
func churn(seed uint64, ops []byte) bool {
	return churnOps(seed, DefaultConfig(nil).LinkDelay, ops, (*Network).Run) == nil
}

// churnTail is the cycles the twins and the restored fabric run after the
// last operation, in churnTailLegs legs with a comparison after each.
const churnTail, churnTailLegs = 5000, 5

// churnTwin is one fabric of the lockstep pair and the sessions the script
// opened on it, in opening order.
type churnTwin struct {
	n    *Network
	open []*Conn
}

// churnFabric builds the churn mesh at the given link delay and gating
// mode, on a topology of its own: FailLink writes link state into the
// Topology, so twins that shared one would see each other's faults.
func churnFabric(seed uint64, linkDelay int64, noIdleSkip bool) (*Network, error) {
	tp, err := topology.Mesh(3, 3, 4)
	if err != nil {
		return nil, err
	}
	cfg := DefaultConfig(tp)
	cfg.VCs = 8
	cfg.Seed = seed
	cfg.LinkDelay = linkDelay
	cfg.NoIdleSkip = noIdleSkip
	return New(cfg)
}

// churnOps is churn at a given link delay, with the gated twin's cycle
// bursts run by the caller's function (which may check more as it goes).
// It returns what first went wrong, or nil.
func churnOps(seed uint64, linkDelay int64, ops []byte, run func(n *Network, cycles int64)) error {
	var tw [2]churnTwin // gated, NoIdleSkip
	for i := range tw {
		n, err := churnFabric(seed, linkDelay, i == 1)
		if err != nil {
			return err
		}
		tw[i].n = n
	}
	links := tw[0].n.cfg.Topology.Links
	// Arguments are drawn once, then each applies the operation to both
	// twins.
	rng := sim.NewRNG(seed ^ 0x5ca1ab1e)
	endpoints := func() (src, dst int, ok bool) {
		src, dst = rng.Intn(9), rng.Intn(9)
		return src, dst, src != dst
	}
	each := func(f func(t *churnTwin)) {
		for i := range tw {
			f(&tw[i])
		}
	}
	// kept is an open's outcome handler: a session opened on t joins its list.
	kept := func(t *churnTwin) func(*Conn, error) {
		return func(c *Conn, err error) {
			if err == nil {
				t.open = append(t.open, c)
			}
		}
	}
	for k, op := range ops {
		switch op % 10 {
		case 0, 1: // synchronous open: CBR, or VBR with peak 3× the rate
			src, dst, ok := endpoints()
			if !ok {
				break
			}
			spec := traffic.ConnSpec{Class: flit.ClassCBR, Rate: traffic.PaperRates[rng.Intn(len(traffic.PaperRates))]}
			if op%10 == 1 {
				spec.Class, spec.PeakRate, spec.Priority = flit.ClassVBR, 3*spec.Rate, rng.Intn(4)
			}
			each(func(t *churnTwin) { kept(t)(t.n.Open(src, dst, spec)) })
		case 2: // a tenant's single attempt
			if src, dst, ok := endpoints(); ok {
				req := OpenReq{Src: src, Dst: dst, Spec: traffic.ConnSpec{Class: flit.ClassCBR, Rate: 10 * traffic.Mbps}, Tenant: "fuzz"}
				each(func(t *churnTwin) { t.n.OpenRequest(req, FormOnce, kept(t)) })
			}
		case 3: // open with backoff retries
			if src, dst, ok := endpoints(); ok {
				each(func(t *churnTwin) {
					t.n.OpenWithRetry(src, dst, traffic.ConnSpec{Class: flit.ClassCBR, Rate: 20 * traffic.Mbps}, kept(t))
				})
			}
		case 4: // teardown one connection
			if len(tw[0].open) > 0 {
				j := rng.Intn(len(tw[0].open))
				each(func(t *churnTwin) {
					if t.n.DrainAndClose(t.open[j], 3000) == nil {
						t.open = append(t.open[:j], t.open[j+1:]...)
					}
				})
			}
		case 5: // best-effort flow
			if src, dst, ok := endpoints(); ok {
				each(func(t *churnTwin) { t.n.AddBestEffortFlow(src, dst, 0.02) })
			}
		case 6: // fail a random link (paranoid audit runs inside)
			l := links[rng.Intn(len(links))]
			each(func(t *churnTwin) { t.n.FailLink(l.A, l.APort) })
		case 7: // restore a random link
			l := links[rng.Intn(len(links))]
			each(func(t *churnTwin) { t.n.RestoreLink(l.A, l.APort) })
		default: // run cycles
			run(tw[0].n, int64(op)*3+16)
			tw[1].n.Run(int64(op)*3 + 16)
		}
		if err := sameFabrics(tw[0].n, tw[1].n); err != nil {
			return fmt.Errorf("after op %d (%d): %w", k, op, err)
		}
		if len(tw[0].open) != len(tw[1].open) {
			return fmt.Errorf("after op %d (%d): the twins hold %d and %d sessions", k, op, len(tw[0].open), len(tw[1].open))
		}
	}

	// The cut: the twins' common bytes, restored into a fresh fabric whose
	// mode the script draws.
	blob, err := tw[0].n.EncodeState()
	if err != nil {
		return err
	}
	restored, err := churnFabric(seed, linkDelay, rng.Intn(2) == 1)
	if err != nil {
		return err
	}
	if err := restored.RestoreState(blob); err != nil {
		return err
	}
	for leg := 0; leg < churnTailLegs; leg++ {
		run(tw[0].n, churnTail/churnTailLegs)
		tw[1].n.Run(churnTail / churnTailLegs)
		restored.Run(churnTail / churnTailLegs)
		if err := sameFabrics(tw[0].n, tw[1].n); err != nil {
			return fmt.Errorf("tail cycle %d: %w", tw[0].n.Now(), err)
		}
		if err := sameFabrics(tw[0].n, restored); err != nil {
			return fmt.Errorf("tail cycle %d, restored (NoIdleSkip %t): %w", tw[0].n.Now(), restored.cfg.NoIdleSkip, err)
		}
	}
	return nil
}

// sameFabrics reports how a and b differ: in the invariants, their
// checkpoint bytes or their statistics.
func sameFabrics(a, b *Network) error {
	for _, n := range []*Network{a, b} {
		if !networkInvariants(n) {
			return fmt.Errorf("network invariants violated (NoIdleSkip %t)", n.cfg.NoIdleSkip)
		}
	}
	ab, err := a.EncodeState()
	if err != nil {
		return err
	}
	bb, err := b.EncodeState()
	if err != nil {
		return err
	}
	if as, bs := a.Stats(), b.Stats(); !reflect.DeepEqual(as, bs) {
		return fmt.Errorf("cycle %d: Stats differ:\n%+v\n%+v", a.Now(), as, bs)
	}
	if !bytes.Equal(ab, bb) {
		return fmt.Errorf("cycle %d: the fabrics encode differently", a.Now())
	}
	return nil
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
// target runs a short budget of this in CI). The link delay is drawn
// from 0–3.
func FuzzNetworkChurn(f *testing.F) {
	f.Add(uint64(1), uint8(1), []byte{0, 9, 6, 9, 7, 4})
	f.Add(uint64(7), uint8(1), []byte{2, 9, 3, 6, 9, 6, 9, 7, 7, 4, 4})
	f.Add(uint64(42), uint8(1), []byte{1, 1, 5, 9, 6, 8, 7, 9, 4, 4})
	// A port whose only eligible VC was an unrouted packet once cleared a
	// stale excess election under NoIdleSkip, where the gated fabric skipped
	// the port and kept it: at cycle 3288 the twins had delivered the same
	// 1,286 flits at different mean latencies and jitters.
	f.Add(uint64(3427787941407369990), uint8(2), []byte{2, 12, 155, 62, 108, 188, 181, 16, 173, 101, 13, 17, 129, 121, 233, 83, 173,
		158, 195, 59, 101, 57, 254, 124, 76, 42, 221, 61, 167, 53, 238, 194, 177, 151, 120, 216, 75, 206, 207, 22, 178, 31, 36, 241, 2, 165})
	f.Fuzz(func(t *testing.T, seed uint64, delay uint8, ops []byte) {
		if len(ops) > 48 {
			ops = ops[:48] // bound per-case runtime
		}
		if err := churnOps(seed, int64(delay%4), ops, (*Network).Run); err != nil {
			t.Fatal(err)
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
