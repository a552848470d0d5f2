package network

import (
	"fmt"
	"strings"
	"testing"

	"mmr/internal/flit"
	"mmr/internal/routing"
	"mmr/internal/sim"
	"mmr/internal/topology"
	"mmr/internal/traffic"
	"mmr/internal/vcm"
)

// auditConfig is the violation matrix's fabric: a 4×4 mesh with 16 VCs per
// port, on a fresh topology (restored copies need their own link state).
func auditConfig(t testing.TB, seed uint64) Config {
	t.Helper()
	tp, err := topology.Mesh(4, 4, 4)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig(tp)
	cfg.VCs = 16
	cfg.Seed = seed
	return cfg
}

// auditSnapshot loads the matrix's fabric — CBR streams with flits in
// flight, best-effort flows whose packets buffer in the routers, one VBR
// session — and checkpoints it at the first cycle where every corruption
// below has a site to corrupt.
func auditSnapshot(t testing.TB, seed uint64) []byte {
	t.Helper()
	n, err := New(auditConfig(t, seed))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := n.Open(0, 15, traffic.ConnSpec{Class: flit.ClassVBR, Rate: 20 * traffic.Mbps, PeakRate: 40 * traffic.Mbps}); err != nil {
		t.Fatalf("VBR session: %v", err)
	}
	rng := sim.NewRNG(seed ^ 0xa0d17)
	for opened, i := 0, 0; i < 400 && opened < 14; i++ {
		src, dst := rng.Intn(16), rng.Intn(16)
		if src == dst {
			continue
		}
		if _, err := n.Open(src, dst, traffic.ConnSpec{Class: flit.ClassCBR, Rate: 55 * traffic.Mbps}); err == nil {
			opened++
		}
	}
	for i := 0; i < 4; i++ {
		if _, err := n.AddBestEffortFlow(i, 15-i, 0.05); err != nil {
			t.Fatal(err)
		}
	}
	n.Run(1500 + int64(rng.Intn(500)))
	for i := 0; ; i++ {
		loaded := true
		for _, cs := range auditCorruptions {
			loaded = loaded && len(cs.sites(n)) > 0
		}
		if loaded {
			break
		}
		if i == 5000 {
			t.Fatalf("seed %d: the fabric never held a site for every corruption", seed)
		}
		n.Step()
	}
	if err := n.CheckInvariants(); err != nil {
		t.Fatalf("seed %d: loaded fabric fails the audit before any corruption: %v", seed, err)
	}
	blob, err := n.EncodeState()
	if err != nil {
		t.Fatal(err)
	}
	return blob
}

// auditSite is one place a corruption applies: a hop of a live connection
// (c, hop; other is a second live connection), or a VC, port or inbound
// edge of a node.
type auditSite struct {
	c, other       *Conn
	hop            int
	node, port, vc int
}

// liveHops lists every hop of every live connection that keep accepts.
func liveHops(n *Network, keep func(c *Conn, i int) bool) []auditSite {
	var s []auditSite
	for _, c := range n.conns {
		if c.closed || c.broken || c.Degraded {
			continue
		}
		for i := range c.VCs {
			if keep(c, i) {
				s = append(s, auditSite{c: c, hop: i})
			}
		}
	}
	return s
}

// nodeVCs lists every (node, port, VC) that keep accepts.
func nodeVCs(n *Network, keep func(nd *node, p, vc int) bool) []auditSite {
	var s []auditSite
	for _, nd := range n.nodes {
		for p := range nd.Mems {
			for vc := 0; vc < n.cfg.VCs; vc++ {
				if keep(nd, p, vc) {
					s = append(s, auditSite{node: nd.id, port: p, vc: vc})
				}
			}
		}
	}
	return s
}

// freeEmptyVC accepts a VC that is neither reserved nor buffers a flit —
// read from the vectors, since a port where nothing was ever reserved has
// no records.
func freeEmptyVC(nd *node, p, vc int) bool {
	return !nd.Mems[p].ReservedVector().Test(vc) && !nd.Mems[p].FlitsAvailable().Test(vc)
}

// nodePorts lists every (node, port) that keep accepts.
func nodePorts(n *Network, keep func(nd *node, p int) bool) []auditSite {
	return nodeVCs(n, func(nd *node, p, vc int) bool { return vc == 0 && keep(nd, p) })
}

// freeOutVC is a VC of output port out at x no channel mapping leads to, or -1.
func freeOutVC(n *Network, x *node, out int) int {
	for v := 0; v < n.cfg.VCs; v++ {
		if x.cmap.Reverse(routing.VCRef{Port: out, VC: v}) == routing.Invalid {
			return v
		}
	}
	return -1
}

// auditCorruptions is the violation matrix: one entry per class of
// violation CheckInvariants exists to catch. Each corrupts exactly one
// thing at a site and returns the prefix the audit's error must start with.
var auditCorruptions = []struct {
	name    string
	sites   func(n *Network) []auditSite
	corrupt func(n *Network, s auditSite) string
}{
	{"two live connections claim one VC",
		func(n *Network) []auditSite {
			// b comes after a in the audit's walk, so a claims the VC first.
			var s []auditSite
			hops := liveHops(n, func(c *Conn, i int) bool { return true })
			for j, a := range hops {
				for _, b := range hops[j+1:] {
					if b.hop == 0 && b.c != a.c {
						s = append(s, auditSite{c: b.c, other: a.c, hop: a.hop})
					}
				}
			}
			return s
		},
		func(n *Network, s auditSite) string {
			// The later connection's first hop now names the earlier one's VC.
			a, b := s.other, s.c
			b.Nodes[0], b.VCs[0] = a.Nodes[s.hop], a.VCs[s.hop]
			return fmt.Sprintf("invariant: VC {%d %d %d} claimed by both conn %d and conn %d",
				a.Nodes[s.hop], a.VCs[s.hop].Port, a.VCs[s.hop].VC, a.ID, b.ID)
		}},
	{"a claimed VC's record names another connection",
		func(n *Network) []auditSite { return liveHops(n, func(c *Conn, i int) bool { return true }) },
		func(n *Network, s auditSite) string {
			ref := s.c.VCs[s.hop]
			st := n.nodes[s.c.Nodes[s.hop]].Mems[ref.Port].State(ref.VC)
			st.Conn = s.c.ID + 1
			return fmt.Sprintf("invariant: conn %d hop %d VC {%d %d %d} not reserved for it (inUse=true conn=%d)",
				s.c.ID, s.hop, s.c.Nodes[s.hop], ref.Port, ref.VC, st.Conn)
		}},
	{"a channel mapping leads to the wrong VC",
		func(n *Network) []auditSite {
			return liveHops(n, func(c *Conn, i int) bool {
				return i < len(c.Path) && freeOutVC(n, n.nodes[c.Nodes[i]], c.Path[i].Port) >= 0
			})
		},
		func(n *Network, s auditSite) string {
			c, i := s.c, s.hop
			x, out := n.nodes[c.Nodes[i]], c.Path[i].Port
			wrong := routing.VCRef{Port: out, VC: freeOutVC(n, x, out)}
			x.cmap.Unmap(c.VCs[i])
			if err := x.cmap.Map(c.VCs[i], wrong); err != nil {
				panic(err)
			}
			return fmt.Sprintf("invariant: conn %d hop %d VC {%d %d %d} maps to %+v, its route leaves by port %d for VC %d",
				c.ID, i, c.Nodes[i], c.VCs[i].Port, c.VCs[i].VC, wrong, out, c.VCs[i+1].VC)
		}},
	{"a claimed VC is switched to the wrong output",
		func(n *Network) []auditSite { return liveHops(n, func(c *Conn, i int) bool { return true }) },
		func(n *Network, s auditSite) string {
			c, i, ref := s.c, s.hop, s.c.VCs[s.hop]
			out := n.cfg.hostPort()
			if i < len(c.Path) {
				out = c.Path[i].Port
			}
			wrong := (out + 1) % n.cfg.radix()
			n.nodes[c.Nodes[i]].Mems[ref.Port].SetOutput(ref.VC, wrong)
			return fmt.Sprintf("invariant: conn %d hop %d VC {%d %d %d} is switched to port %d, its route leaves by port %d",
				c.ID, i, c.Nodes[i], ref.Port, ref.VC, wrong, out)
		}},
	{"an idle hop loses a credit",
		func(n *Network) []auditSite {
			return liveHops(n, func(c *Conn, i int) bool {
				return i < len(c.Path) && n.nodes[c.Nodes[i]].Credits[c.VCs[i].Port].Available(c.VCs[i].VC) == n.cfg.Depth
			})
		},
		func(n *Network, s auditSite) string {
			up := s.c.VCs[s.hop]
			n.nodes[s.c.Nodes[s.hop]].Credits[up.Port].SetAvailable(up.VC, n.cfg.Depth-1)
			return fmt.Sprintf("invariant: conn %d hop %d credits not conserved: shadow=%d inflight=0 buffered=0 onlink=0",
				s.c.ID, s.hop, n.cfg.Depth-1)
		}},
	{"a VC leaks to a connection nobody holds",
		func(n *Network) []auditSite {
			return nodeVCs(n, freeEmptyVC)
		},
		func(n *Network, s auditSite) string {
			ghost := flit.ConnID(len(n.conns) + 1000)
			n.nodes[s.node].Mems[s.port].Reserve(s.vc, vcm.VCState{Class: flit.ClassCBR, Conn: ghost, Output: -1})
			return fmt.Sprintf("invariant: node %d port %d VC %d leaked (class=%v conn=%d, no live connection claims it)",
				s.node, s.port, s.vc, flit.ClassCBR, ghost)
		}},
	{"a free VC holds a packet",
		func(n *Network) []auditSite {
			return nodeVCs(n, func(nd *node, p, vc int) bool {
				mem := nd.Mems[p]
				return mem.ReservedVector().Test(vc) && mem.FlitsAvailable().Test(vc) && mem.State(vc).Class == flit.ClassBestEffort
			})
		},
		func(n *Network, s auditSite) string {
			mem := n.nodes[s.node].Mems[s.port]
			st := *mem.State(s.vc)
			st.InUse = false
			mem.RestoreState(s.vc, st)
			return fmt.Sprintf("invariant: node %d port %d VC %d free but holds %d flits", s.node, s.port, s.vc, mem.Len(s.vc))
		}},
	{"the guaranteed register is off by one",
		func(n *Network) []auditSite { return nodePorts(n, func(nd *node, p int) bool { return true }) },
		func(n *Network, s auditSite) string {
			a := n.nodes[s.node].Alloc[s.port]
			if !a.AdjustCBR(1) {
				a.AdjustCBR(-1)
			}
			return fmt.Sprintf("invariant: node %d port %d guaranteed bandwidth %d cycles", s.node, s.port, a.Guaranteed())
		}},
	{"the peak register is off by one",
		func(n *Network) []auditSite { return nodePorts(n, func(nd *node, p int) bool { return true }) },
		func(n *Network, s auditSite) string {
			a := n.nodes[s.node].Alloc[s.port]
			a.RestoreState(a.Guaranteed(), a.PeakTotal()+1, a.Connections())
			return fmt.Sprintf("invariant: node %d port %d peak bandwidth %d cycles", s.node, s.port, a.PeakTotal())
		}},
	{"an inbound bit is clear over a lane pair that holds entries",
		func(n *Network) []auditSite {
			var s []auditSite
			for _, nd := range n.nodes {
				for i, e := range nd.in {
					if w := &n.wires[e.lane]; len(w.credits.Pending())+len(w.flits.Pending()) > 0 {
						s = append(s, auditSite{node: nd.id, port: int(e.port), vc: i})
					}
				}
			}
			return s
		},
		func(n *Network, s auditSite) string {
			n.nodes[s.node].inbound.Clear(s.vc) // vc is the edge's index in the node's in list
			return fmt.Sprintf("invariant: node %d port %d: inbound bit clear over a lane pair that holds entries", s.node, s.port)
		}},
	{"a Busy bit is clear on a port that buffers a flit",
		func(n *Network) []auditSite {
			return nodePorts(n, func(nd *node, p int) bool { return nd.Mems[p].Occupied() > 0 })
		},
		func(n *Network, s auditSite) string {
			n.nodes[s.node].Busy.Clear(s.port)
			return fmt.Sprintf("invariant: node %d port %d: vcm: Busy bit %d ", s.node, s.port, s.port)
		}},
	{"a mapping outlives its connection",
		func(n *Network) []auditSite {
			return nodeVCs(n, func(nd *node, p, vc int) bool { return freeEmptyVC(nd, p, vc) && freeOutVC(n, nd, p) >= 0 })
		},
		func(n *Network, s auditSite) string {
			// A free input VC still switched to a free output VC, as a
			// teardown that forgot its Unmap would leave it.
			x := n.nodes[s.node]
			if err := x.cmap.Map(routing.VCRef{Port: s.port, VC: s.vc}, routing.VCRef{Port: s.port, VC: freeOutVC(n, x, s.port)}); err != nil {
				panic(err)
			}
			direct, reverse := x.cmap.Mapped()
			return fmt.Sprintf("invariant: node %d holds %d direct and %d reverse channel mappings, ", s.node, direct, reverse)
		}},
	{"a credit in flight names an unmapped VC",
		func(n *Network) []auditSite {
			// Inbound edges whose port some VC leaves by unmapped.
			var s []auditSite
			for _, nd := range n.nodes {
				for i, e := range nd.in {
					if freeOutVC(n, nd, int(e.port)) >= 0 {
						s = append(s, auditSite{node: nd.id, port: int(e.port), vc: i})
					}
				}
			}
			return s
		},
		func(n *Network, s auditSite) string {
			// A credit for a VC no connection holds, as a purge that
			// missed a torn-down hop's credits would leave it: the
			// delivery pass would find no input VC to return it to.
			x := n.nodes[s.node]
			v := freeOutVC(n, x, s.port)
			n.wires[x.in[s.vc].lane].credits.Push(n.now+n.cfg.LinkDelay, v)
			x.inbound.Set(s.vc) // vc is the edge's index in the node's in list
			return fmt.Sprintf("invariant: node %d port %d: a credit in flight names VC %d, which no mapping leaves by", s.node, s.port, v)
		}},
	{"an establishment hold outlives its attempt",
		func(n *Network) []auditSite {
			return nodeVCs(n, freeEmptyVC)
		},
		func(n *Network, s auditSite) string {
			// The transient state holds.reserve gives a VC: no connection yet.
			n.nodes[s.node].Mems[s.port].Reserve(s.vc, vcm.VCState{Class: flit.ClassCBR, Conn: flit.InvalidConn, Output: -1})
			return fmt.Sprintf("invariant: node %d port %d VC %d leaked (class=%v conn=%d, no live connection claims it)",
				s.node, s.port, s.vc, flit.ClassCBR, flit.InvalidConn)
		}},
}

// checkCorruptions restores blob once per corruption into a fresh fabric,
// applies it at the site pick chooses among the eligible ones, and requires
// the audit to report exactly that violation first.
func checkCorruptions(t *testing.T, seed uint64, blob []byte, pick func(sites int) int) {
	t.Helper()
	for _, cs := range auditCorruptions {
		n, err := New(auditConfig(t, seed))
		if err != nil {
			t.Fatal(err)
		}
		if err := n.RestoreState(blob); err != nil {
			t.Fatalf("seed %d: restore: %v", seed, err)
		}
		sites := cs.sites(n)
		if len(sites) == 0 {
			t.Fatalf("seed %d: %s: no site in the restored fabric", seed, cs.name)
		}
		want := cs.corrupt(n, sites[pick(len(sites))])
		if err := n.CheckInvariants(); err == nil || !strings.HasPrefix(err.Error(), want) {
			t.Errorf("seed %d: %s: audit returned %v, want an error starting %q", seed, cs.name, err, want)
		}
	}
}

// TestCheckInvariantsCatchesEachViolation is the audit's violation matrix:
// on a loaded fabric, every class of violation — a VC claimed twice or by
// the wrong record, a wrong channel mapping or output, a lost credit, a
// leaked VC, a free VC holding a packet, either bandwidth register off, a
// clear inbound or Busy bit over held entries, a mapping left on a free VC,
// a credit in flight for a VC no mapping leaves by, a hold no connection
// owns — is caught, and reported as that violation with its message.
func TestCheckInvariantsCatchesEachViolation(t *testing.T) {
	checkCorruptions(t, 1, auditSnapshot(t, 1), func(int) int { return 0 })
}

// TestCheckInvariantsCatchesRandomViolations applies the same corruptions
// at random live hops, VCs and ports of 20 differently loaded fabrics.
func TestCheckInvariantsCatchesRandomViolations(t *testing.T) {
	for seed := uint64(1); seed <= 20; seed++ {
		rng := sim.NewRNG(seed)
		checkCorruptions(t, seed, auditSnapshot(t, seed), rng.Intn)
	}
}

// TestCheckInvariantsZeroAlloc: on the loaded fabric, the audit allocates
// nothing once its first call has sized the scratch — no hash table, no
// growth — so paranoid mode costs a walk, not garbage.
func TestCheckInvariantsZeroAlloc(t *testing.T) {
	n, err := New(auditConfig(t, 1))
	if err != nil {
		t.Fatal(err)
	}
	if err := n.RestoreState(auditSnapshot(t, 1)); err != nil {
		t.Fatal(err)
	}
	if err := n.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if avg := testing.AllocsPerRun(20, func() { n.CheckInvariants() }); avg != 0 {
		t.Errorf("CheckInvariants allocates %.1f times per call, want 0", avg)
	}
}
