package routing

import (
	"testing"
	"testing/quick"

	"mmr/internal/sim"
	"mmr/internal/topology"
)

func TestChannelMap(t *testing.T) {
	m := newChannelMap(4, 8)
	in := VCRef{Port: 1, VC: 3}
	out := VCRef{Port: 2, VC: 5}
	if err := m.Map(in, out); err != nil {
		t.Fatal(err)
	}
	if m.Direct(in) != out || m.Reverse(out) != in {
		t.Fatal("mapping not bidirectional")
	}
	if d, r := m.Mapped(); d != 1 || r != 1 {
		t.Fatal("mapped count wrong")
	}
	// Double mapping is refused on both sides.
	if err := m.Map(in, VCRef{Port: 3, VC: 0}); err == nil {
		t.Fatal("input double-map accepted")
	}
	if err := m.Map(VCRef{Port: 0, VC: 0}, out); err == nil {
		t.Fatal("output double-map accepted")
	}
	if got := m.Unmap(in); got != out {
		t.Fatalf("Unmap returned %+v", got)
	}
	if d, r := m.Mapped(); m.Direct(in) != Invalid || m.Reverse(out) != Invalid || d != 0 || r != 0 {
		t.Fatal("unmap incomplete")
	}
	if m.Unmap(in) != Invalid {
		t.Fatal("double unmap should be Invalid")
	}
}

func TestChannelMapPanics(t *testing.T) {
	m := newChannelMap(2, 2)
	defer func() {
		if recover() == nil {
			t.Fatal("out-of-range VCRef did not panic")
		}
	}()
	m.Direct(VCRef{Port: 9, VC: 0})
}

func TestHistory(t *testing.T) {
	var h History
	if h.Searched(3) {
		t.Fatal("fresh history has marks")
	}
	h.Mark(3)
	h.Mark(63)
	if !h.Searched(3) || !h.Searched(63) || h.Searched(4) {
		t.Fatal("marks wrong")
	}
	h.Reset()
	if h.Searched(3) {
		t.Fatal("reset incomplete")
	}
}

func TestDistsAndProfitable(t *testing.T) {
	tp, _ := topology.Mesh(3, 3, 4)
	d := NewDists(tp)
	if d.Between(0, 8) != 4 {
		t.Fatalf("corner distance = %d, want 4", d.Between(0, 8))
	}
	// From node 0, east (port 0) and south (port 3) are profitable toward 8.
	if !d.Profitable(tp, 0, 0, 8) || !d.Profitable(tp, 0, 3, 8) {
		t.Fatal("profitable ports not recognized")
	}
	// Unwired port is not profitable.
	if d.Profitable(tp, 0, 1, 8) {
		t.Fatal("unwired port profitable")
	}
}

func TestEPBStepHonorsHistoryAndResources(t *testing.T) {
	tp, _ := topology.Mesh(3, 1, 4) // a 3-node chain
	d := NewDists(tp)
	var h History
	// Port 0 (east) is the only profitable port from node 0 toward 2.
	p, ok := EPBStep(tp, d, 0, 2, &h, nil)
	if !ok || p != 0 {
		t.Fatalf("EPBStep = (%d,%v)", p, ok)
	}
	// The port is now in the history: next step must backtrack.
	if _, ok := EPBStep(tp, d, 0, 2, &h, nil); ok {
		t.Fatal("EPBStep retried a searched port")
	}
	// Resource refusal also marks the history (the probe reserved nothing).
	var h2 History
	if _, ok := EPBStep(tp, d, 0, 2, &h2, func(int) bool { return false }); ok {
		t.Fatal("EPBStep advanced over refused port")
	}
	if !h2.Searched(0) {
		t.Fatal("refused port not recorded in history")
	}
}

// searchFresh is SearchInto on a scratch of its own.
func searchFresh(tp *topology.Topology, d *Dists, src, dest int,
	reserve func(node, port int) bool, release func(node, port int)) (*SearchResult, error) {
	return SearchInto(tp, d, src, dest, reserve, release, NewSearchScratch(tp.Nodes))
}

func TestSearchFindsMinimalPath(t *testing.T) {
	tp, _ := topology.Mesh(4, 4, 4)
	d := NewDists(tp)
	res, err := searchFresh(tp, d, 0, 15, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Path) != d.Between(0, 15) {
		t.Fatalf("path length %d, want %d (minimal)", len(res.Path), d.Between(0, 15))
	}
	// Walk the path to verify it really ends at the destination.
	node := 0
	for _, hop := range res.Path {
		if hop.Node != node {
			t.Fatalf("discontinuous path at %+v", hop)
		}
		node = tp.Neighbor(node, hop.Port)
	}
	if node != 15 {
		t.Fatalf("path ends at %d", node)
	}
	if res.Backtracks != 0 {
		t.Fatalf("unconstrained search backtracked %d times", res.Backtracks)
	}
}

func TestSearchSelfAndErrors(t *testing.T) {
	tp, _ := topology.Mesh(2, 2, 4)
	d := NewDists(tp)
	res, err := searchFresh(tp, d, 1, 1, nil, nil)
	if err != nil || len(res.Path) != 0 {
		t.Fatal("self-search should be an empty path")
	}
	if _, err := searchFresh(tp, d, -1, 0, nil, nil); err == nil {
		t.Fatal("bad endpoint accepted")
	}
}

func TestSearchBacktracksAroundBlockedLinks(t *testing.T) {
	// 3x3 mesh, route 0 → 8. Block the east link out of node 0 so the
	// probe must go south; then block south out of node 3 so it must
	// east... construct reserve() that rejects a specific (node, port).
	tp, _ := topology.Mesh(3, 3, 4)
	d := NewDists(tp)
	blocked := map[[2]int]bool{
		{0, 0}: true, // node 0 east
	}
	var reserved [][2]int
	reserve := func(n, p int) bool {
		if blocked[[2]int{n, p}] {
			return false
		}
		reserved = append(reserved, [2]int{n, p})
		return true
	}
	release := func(n, p int) {
		for i, r := range reserved {
			if r == [2]int{n, p} {
				reserved = append(reserved[:i], reserved[i+1:]...)
				return
			}
		}
		panic("release of unreserved hop")
	}
	res, err := searchFresh(tp, d, 0, 8, reserve, release)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Path) != 4 {
		t.Fatalf("path length %d, want 4", len(res.Path))
	}
	if res.Path[0].Port != 3 {
		t.Fatalf("first hop should avoid the blocked east link, took port %d", res.Path[0].Port)
	}
	// Reserved hops must match the final path exactly (backtracked hops
	// released).
	if len(reserved) != len(res.Path) {
		t.Fatalf("%d hops still reserved for a %d-hop path", len(reserved), len(res.Path))
	}
}

func TestSearchExhaustionFails(t *testing.T) {
	tp, _ := topology.Mesh(3, 1, 4)
	d := NewDists(tp)
	// Refuse everything: the probe must backtrack to the source and fail.
	_, err := searchFresh(tp, d, 0, 2, func(int, int) bool { return false }, func(int, int) {})
	if err == nil {
		t.Fatal("saturated network search should fail")
	}
}

// Property: on random irregular topologies, EPB with no resource limits
// always finds a minimal path, and reserve/release stay balanced even
// with random refusals.
func TestSearchProperty(t *testing.T) {
	rng := sim.NewRNG(5)
	f := func(seed uint64, srcDest uint16, refuseMask uint32) bool {
		rng.Seed(seed)
		tp, err := topology.Irregular(12, 6, 3, rng)
		if err != nil {
			return false
		}
		d := NewDists(tp)
		src := int(srcDest) % 12
		dest := int(srcDest>>4) % 12
		// Unconstrained: must find a path of minimal length.
		res, err := searchFresh(tp, d, src, dest, nil, nil)
		if err != nil {
			return false
		}
		if len(res.Path) != d.Between(src, dest) {
			return false
		}
		// With random refusals: reserve/release must balance.
		outstanding := 0
		res2, err2 := searchFresh(tp, d, src, dest,
			func(n, p int) bool {
				if refuseMask&(1<<uint((n+p)%32)) != 0 {
					return false
				}
				outstanding++
				return true
			},
			func(int, int) { outstanding-- })
		if err2 != nil {
			return outstanding == 0
		}
		return outstanding == len(res2.Path)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestUpDownLegality(t *testing.T) {
	rng := sim.NewRNG(9)
	tp, err := topology.Irregular(16, 8, 4, rng)
	if err != nil {
		t.Fatal(err)
	}
	d := NewDists(tp)
	u := NewUpDown(tp, d)
	for src := 0; src < tp.Nodes; src++ {
		for dest := 0; dest < tp.Nodes; dest++ {
			route := u.Route(src, dest)
			if route == nil {
				t.Fatalf("no up*/down* route %d→%d", src, dest)
			}
			if !u.legal(src, route) {
				t.Fatalf("illegal route %d→%d: %v", src, dest, route)
			}
			// Walk to confirm arrival.
			node := src
			for _, p := range route {
				node = tp.Neighbor(node, p)
			}
			if node != dest {
				t.Fatalf("route %d→%d ends at %d", src, dest, node)
			}
		}
	}
}

func TestUpDownRejectsDownUp(t *testing.T) {
	tp, _ := topology.Mesh(3, 3, 4)
	d := NewDists(tp)
	u := NewUpDown(tp, d)
	// From node 4 (center), port 2 (north) goes to node 1, closer to root
	// 0 → up. Port 3 (south) goes to 7 → down. A down-then-up sequence
	// must be illegal.
	if u.legal(4, []int{3, 2}) {
		t.Fatal("down→up accepted")
	}
}

func TestUpDownNextPortsFiltersWhenDown(t *testing.T) {
	tp, _ := topology.Mesh(3, 3, 4)
	d := NewDists(tp)
	u := NewUpDown(tp, d)
	// At center node 4 heading to 0 having gone down: up ports excluded.
	ports := u.NextPorts(4, 0, true, nil)
	for _, p := range ports {
		if u.isUp(4, p) {
			t.Fatalf("up port %d offered after a down hop", p)
		}
	}
	// Without the down flag, the profitable up ports appear first.
	ports = u.NextPorts(4, 0, false, nil)
	if len(ports) == 0 || !d.Profitable(tp, 4, ports[0], 0) {
		t.Fatalf("profitable port not preferred: %v", ports)
	}
}

// Property: up*/down* routes on random irregular topologies are always
// legal, loop-free and terminate at the destination.
func TestUpDownProperty(t *testing.T) {
	rng := sim.NewRNG(17)
	f := func(seed uint64, pair uint16) bool {
		rng.Seed(seed)
		tp, err := topology.Irregular(14, 7, 3, rng)
		if err != nil {
			return false
		}
		u := NewUpDown(tp, NewDists(tp))
		src := int(pair) % 14
		dest := int(pair>>4) % 14
		route := u.Route(src, dest)
		if route == nil || !u.legal(src, route) {
			return false
		}
		node := src
		seen := map[int]bool{src: true}
		for _, p := range route {
			node = tp.Neighbor(node, p)
			if node < 0 || seen[node] {
				return false
			}
			seen[node] = true
		}
		return node == dest
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// Property: NextPorts never offers a hop after which the destination is
// unreachable — packets routed hop by hop always make it.
func TestUpDownPerHopSafetyProperty(t *testing.T) {
	rng := sim.NewRNG(23)
	f := func(seed uint64, pair uint16) bool {
		rng.Seed(seed)
		tp, err := topology.Irregular(14, 7, 3, rng)
		if err != nil {
			return false
		}
		u := NewUpDown(tp, NewDists(tp))
		src := int(pair) % 14
		dest := int(pair>>4) % 14
		if src == dest {
			return true
		}
		// Walk greedily per hop, always taking the FIRST offered port
		// (the router's adaptive choice), for at most 4N hops.
		node, wentDown := src, false
		var scratch []int
		for hops := 0; hops < 4*14; hops++ {
			if node == dest {
				return true
			}
			scratch = u.NextPorts(node, dest, wentDown, scratch[:0])
			if len(scratch) == 0 {
				return false // stranded: safety violated
			}
			p := scratch[0]
			if !u.IsUp(node, p) {
				wentDown = true
			}
			node = tp.Neighbor(node, p)
		}
		return node == dest
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

func TestDownReachable(t *testing.T) {
	tp, _ := topology.Mesh(3, 3, 4)
	u := NewUpDown(tp, NewDists(tp))
	// Every node is down-reachable from the root (node 0).
	for n := 0; n < tp.Nodes; n++ {
		if !u.downReach[0].Test(n) {
			t.Fatalf("node %d not down-reachable from the root", n)
		}
	}
	// A node is always down-reachable from itself.
	for n := 0; n < tp.Nodes; n++ {
		if !u.downReach[n].Test(n) {
			t.Fatalf("node %d not down-reachable from itself", n)
		}
	}
	// The root is not down-reachable from a leaf (that needs up links).
	if u.downReach[8].Test(0) {
		t.Fatal("root down-reachable from the far corner")
	}
}

func TestDistsRecomputeAfterLinkFailure(t *testing.T) {
	tp, _ := topology.Mesh(3, 3, 4)
	d := NewDists(tp)
	if d.Between(0, 2) != 2 {
		t.Fatalf("dist(0,2) = %d, want 2", d.Between(0, 2))
	}
	// Fail the east link 1→2 of the top row; the table is stale until
	// recomputed, then routes around (0→1→4→5→2 or 0→3→... = 4 hops).
	p := tp.PortTo(1, 2)
	if err := tp.SetLinkUp(1, p, false); err != nil {
		t.Fatal(err)
	}
	d.Recompute(tp)
	if d.Between(0, 2) != 4 {
		t.Fatalf("post-failure dist(0,2) = %d, want 4", d.Between(0, 2))
	}
	// EPB search now finds a minimal path that avoids the dead link.
	sr, err := searchFresh(tp, d, 0, 2, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(sr.Path) != 4 {
		t.Fatalf("rerouted path length %d, want 4", len(sr.Path))
	}
	for _, hop := range sr.Path {
		if hop.Node == 1 && hop.Port == p {
			t.Fatal("search used the failed link")
		}
	}
	// Restore and recompute: back to the original distance.
	tp.SetLinkUp(1, p, true)
	d.Recompute(tp)
	if d.Between(0, 2) != 2 {
		t.Fatalf("post-restore dist(0,2) = %d, want 2", d.Between(0, 2))
	}
}

func TestUpDownRebuildAfterLinkFailure(t *testing.T) {
	tp, _ := topology.Mesh(3, 3, 4)
	d := NewDists(tp)
	u := NewUpDown(tp, d)
	// Fail both links into node 0 (the old root): 0-1 and 0-3.
	for _, m := range []int{1, 3} {
		if err := tp.SetLinkUp(0, tp.PortTo(0, m), false); err != nil {
			t.Fatal(err)
		}
	}
	d.Recompute(tp)
	u.Rebuild()
	// The orientation re-roots on the lowest live node and still routes
	// between all surviving pairs.
	for src := 1; src < tp.Nodes; src++ {
		for dst := 1; dst < tp.Nodes; dst++ {
			if src == dst {
				continue
			}
			ports := u.Route(src, dst)
			if ports == nil {
				t.Fatalf("no up*/down* route %d→%d after rebuild", src, dst)
			}
			if !u.legal(src, ports) {
				t.Fatalf("illegal route %d→%d: %v", src, dst, ports)
			}
			node := src
			for _, p := range ports {
				node = tp.Neighbor(node, p)
				if node < 0 {
					t.Fatalf("route %d→%d crosses a down link", src, dst)
				}
			}
			if node != dst {
				t.Fatalf("route %d→%d ends at %d", src, dst, node)
			}
		}
	}
}

// legal reports whether the port sequence from src is a legal up*/down*
// route (no up link after a down link) ending anywhere.
func (u *UpDown) legal(src int, ports []int) bool {
	node, wentDown := src, false
	for _, p := range ports {
		m := u.t.Neighbor(node, p)
		if m < 0 {
			return false
		}
		up := u.isUp(node, p)
		if wentDown && up {
			return false
		}
		if !up {
			wentDown = true
		}
		node = m
	}
	return true
}
