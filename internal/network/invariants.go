package network

import (
	"fmt"

	"mmr/internal/bitvec"
	"mmr/internal/flit"
	"mmr/internal/routing"
)

// invariants.go generalizes the fuzz harness's resource audit into a
// first-class checker the fault layer runs after every topology
// transition (FaultPolicy.Paranoid). It reconstructs the resource state
// the live connections imply and compares it against what the routers
// actually hold, so any leak — a VC kept after teardown, bandwidth
// released twice, a credit lost or duplicated across a fault — surfaces
// at the transition that caused it instead of as a corrupted simulation
// thousands of cycles later.

// CheckInvariants audits global resource conservation and returns the
// first violation found (nil if the network is consistent):
//
//  1. Every VC a live connection claims is reserved for it and switched
//     to its route's next port, with a direct channel mapping to the next
//     VC and a reverse one back on non-final hops; every other in-use VC
//     is a best-effort/control packet in flight. Establishment installs or
//     releases its holds before it returns, so none is ever excused. No
//     channel mapping outlives its connection.
//  2. Per stream hop, credits are conserved: shadow credits + credits in
//     flight upstream + flits buffered downstream + flits on the link
//     pipe account for exactly the downstream buffer depth. Every credit
//     in flight names a VC some reverse mapping of its receiver leaves by,
//     which the delivery pass indexes the receiver's credits by.
//  3. Per output link, the guaranteed and peak bandwidth registers equal
//     the sums of the live connections' demands crossing it.
//  4. The mirrors the datapath steers by say what they mirror: every
//     memory's status vectors, Busy bit and head stamps
//     (vcm.Memory.CheckMirrors), and a node's inbound bit is clear only
//     over a lane pair that holds nothing.
//
// "Live" means established and not closed, fault-broken, or degraded —
// a broken or degraded connection must hold nothing at all (a degraded
// session's traffic rides an unreserved best-effort fallback flow).
func (n *Network) CheckInvariants() error {
	type vcKey struct{ node, port, vc int } // how the messages name a VC
	// Flat scratch, no hash table: a claim bit per VC, the cycles live
	// connections demand of each output, their mappings per node.
	radix, vcs := n.cfg.radix(), n.cfg.VCs
	if n.claimed == nil {
		n.claimed, n.want, n.live = bitvec.New(len(n.nodes)*radix*vcs), make([][2]int, len(n.nodes)*radix), make([]int, len(n.nodes))
	}
	n.claimed.Reset()
	clear(n.want)
	clear(n.live)

	for _, c := range n.conns {
		if c.closed || c.broken || c.Degraded {
			continue
		}
		d := n.demandFor(c.Spec)
		for i, ref := range c.VCs {
			k := vcKey{c.Nodes[i], ref.Port, ref.VC}
			mem := n.nodes[k.node].Mems[k.port]
			if !mem.Materialized() { // nothing was ever reserved on the port
				return fmt.Errorf("invariant: conn %d hop %d VC %v not reserved for it (its port has no records)", c.ID, i, k)
			}
			st := mem.State(k.vc)
			bit := (k.node*radix+k.port)*vcs + k.vc
			if n.claimed.Test(bit) {
				// The first claimer passed the record check below, so the
				// record names it.
				return fmt.Errorf("invariant: VC %v claimed by both conn %d and conn %d", k, st.Conn, c.ID)
			}
			n.claimed.Set(bit)
			if !st.InUse || st.Conn != c.ID {
				return fmt.Errorf("invariant: conn %d hop %d VC %v not reserved for it (inUse=%v conn=%d)",
					c.ID, i, k, st.InUse, st.Conn)
			}
			outNode, outPort := c.Nodes[i], n.cfg.hostPort()
			if i < len(c.Path) {
				outNode, outPort = c.Path[i].Node, c.Path[i].Port
				if next := n.nodes[c.Nodes[i]].cmap.Direct(ref); next.Port != outPort || next.VC != c.VCs[i+1].VC {
					return fmt.Errorf("invariant: conn %d hop %d VC %v maps to %+v, its route leaves by port %d for VC %d",
						c.ID, i, k, next, outPort, c.VCs[i+1].VC)
				}
			}
			if st.Output != outPort {
				return fmt.Errorf("invariant: conn %d hop %d VC %v is switched to port %d, its route leaves by port %d",
					c.ID, i, k, st.Output, outPort)
			}
			want := &n.want[outNode*radix+outPort]
			want[0] += d.Alloc
			if c.Spec.Class == flit.ClassVBR {
				want[1] += d.Peak
			}
		}

		// Credit conservation per inter-router hop: the upstream VC at
		// Nodes[i] feeds the downstream VC at Nodes[i+1] over Path[i], and
		// the reverse mapping there routes the hop's credits back to it.
		for i := 0; i < len(c.Path); i++ {
			up, down := c.VCs[i], c.VCs[i+1]
			n.live[c.Nodes[i]]++
			if back := n.nodes[c.Nodes[i]].cmap.Reverse(routing.VCRef{Port: c.Path[i].Port, VC: down.VC}); back != up {
				return fmt.Errorf("invariant: conn %d hop %d returns credits to %+v, its route came from node %d VC %+v",
					c.ID, i, back, c.Nodes[i], up)
			}
			shadow := n.nodes[c.Nodes[i]].Credits[up.Port].Available(up.VC)
			// Credits returning for this hop can only sit in the outbound
			// credit lane of the downstream node (the unique emitter).
			inflight := 0
			for _, cm := range n.nodes[c.Nodes[i+1]].out[down.Port].credits.Pending() {
				if cm.V == down.VC {
					inflight++
				}
			}
			buffered := n.nodes[c.Nodes[i+1]].Mems[down.Port].Len(down.VC)
			onLink := 0
			for _, lf := range n.nodes[c.Path[i].Node].out[c.Path[i].Port].flits.Pending() {
				if lf.V.f.Conn == c.ID {
					onLink++
				}
			}
			if total := shadow + inflight + buffered + onLink; total != n.cfg.Depth {
				return fmt.Errorf("invariant: conn %d hop %d credits not conserved: shadow=%d inflight=%d buffered=%d onlink=%d, want total %d",
					c.ID, i, shadow, inflight, buffered, onLink, n.cfg.Depth)
			}
		}
	}

	// Sweep every VC: claimed ones were verified above; anything else in
	// use must be a packet in flight. A mapping beyond the live hops'
	// (verified above) outlived its connection.
	for _, nd := range n.nodes {
		if direct, reverse := nd.cmap.Mapped(); direct != n.live[nd.id] || reverse != n.live[nd.id] {
			return fmt.Errorf("invariant: node %d holds %d direct and %d reverse channel mappings, its live hops %d", nd.id, direct, reverse, n.live[nd.id])
		}
		for i, e := range nd.in {
			for _, cm := range n.wires[e.lane].credits.Pending() {
				if nd.cmap.Reverse(routing.VCRef{Port: int(e.port), VC: cm.V}) == routing.Invalid {
					return fmt.Errorf("invariant: node %d port %d: a credit in flight names VC %d, which no mapping leaves by", nd.id, e.port, cm.V)
				}
			}
			if w := &n.wires[e.lane]; !nd.inbound.Test(i) && len(w.credits.Pending())+len(w.flits.Pending()) > 0 {
				return fmt.Errorf("invariant: node %d port %d: inbound bit clear over a lane pair that holds entries", nd.id, e.port)
			}
		}
		for p, mem := range nd.Mems {
			if err := mem.CheckMirrors(); err != nil {
				return fmt.Errorf("invariant: node %d port %d: %v", nd.id, p, err)
			}
			// The vectors now stand for the records, so only the VCs that
			// matter are loaded again.
			avail, reserved := mem.FlitsAvailable(), mem.ReservedVector()
			for vc := avail.NextSet(0); vc >= 0; vc = avail.NextSet(vc + 1) {
				if !reserved.Test(vc) {
					return fmt.Errorf("invariant: node %d port %d VC %d free but holds %d flits", nd.id, p, vc, mem.Len(vc))
				}
			}
			for vc := reserved.NextSet(0); vc >= 0; vc = reserved.NextSet(vc + 1) {
				st := mem.State(vc)
				if n.claimed.Test((nd.id*radix+p)*vcs+vc) || st.Class == flit.ClassBestEffort || st.Class == flit.ClassControl {
					continue
				}
				return fmt.Errorf("invariant: node %d port %d VC %d leaked (class=%v conn=%d, no live connection claims it)",
					nd.id, p, vc, st.Class, st.Conn)
			}
		}
	}

	// Bandwidth registers: exact.
	for _, nd := range n.nodes {
		for p, a := range nd.Alloc {
			got, want := [2]int{a.Guaranteed(), a.PeakTotal()}, n.want[nd.id*radix+p]
			for r, name := range [2]string{"guaranteed", "peak"} {
				if got[r] != want[r] {
					return fmt.Errorf("invariant: node %d port %d %s bandwidth %d cycles, connections demand %d",
						nd.id, p, name, got[r], want[r])
				}
			}
		}
	}
	return nil
}

// mustInvariants is the paranoid-mode hook run after every fault
// transition, restoration, re-promotion and bandwidth change: under
// Fault.Paranoid it audits and panics on a violation, dumping the flight
// recorders first so the post-mortem shows the cycles leading up to it.
func (n *Network) mustInvariants() {
	if !n.cfg.Fault.Paranoid {
		return
	}
	if err := n.CheckInvariants(); err != nil {
		n.recordFlight(0, evInvariantFail, -1, -1, 0)
		n.dumpFlightOnInvariant(err)
		panic(fmt.Sprintf("network: cycle %d: %v", n.now, err))
	}
}
