package routing

import (
	"mmr/internal/bitvec"
	"mmr/internal/topology"
)

// UpDown implements the deadlock-free adaptive routing used for
// best-effort (VCT) packets on irregular topologies (§3.5, after Silla &
// Duato [26,27], building on the Autonet up*/down* scheme [24]): links
// are oriented by a BFS spanning tree ("up" points toward the root;
// ties break toward the smaller node id), and a legal route never takes
// an up link after a down link. Within that rule the router chooses
// adaptively, preferring minimal hops.
type UpDown struct {
	t      *topology.Topology
	d      *Dists
	root   int   // BFS root the orientation hangs from
	level  []int // BFS level from the root
	parent []int // BFS-tree parent (-1 for the root)

	// downReach[n] has bit m set iff m is reachable from n using down
	// links only. A packet that has gone down may only move toward nodes
	// in its current down-cone; offering any other port would strand it
	// (no legal move could ever reach the destination).
	downReach []*bitvec.Vector
}

// NewUpDown orients the topology from the lowest node that still has an
// up link (node 0 on a healthy topology; any root works, and the lowest
// live one keeps results deterministic).
func NewUpDown(t *topology.Topology, d *Dists) *UpDown {
	u := &UpDown{t: t, d: d}
	u.Rebuild()
	return u
}

// Rebuild recomputes the orientation after a topology change (Autonet's
// reconfiguration step [24]): a fresh BFS tree over the up links, rooted
// at the lowest node with a live link, then new down-cones. Packets in
// flight keep their old went-down state; the transient where an old-epoch
// route briefly violates the new orientation is the reconfiguration gap
// real networks also accept.
func (u *UpDown) Rebuild() {
	t := u.t
	u.root = 0
	for n := 0; n < t.Nodes; n++ {
		live := false
		for p := 0; p < t.Ports; p++ {
			if t.Neighbor(n, p) >= 0 {
				live = true
				break
			}
		}
		if live {
			u.root = n
			break
		}
	}
	u.level = t.ShortestDists(u.root)
	u.parent = make([]int, t.Nodes)
	for n := 0; n < t.Nodes; n++ {
		u.parent[n] = -1
		for p := 0; p < t.Ports; p++ {
			m := t.Neighbor(n, p)
			if m >= 0 && u.level[m] >= 0 && u.level[m] == u.level[n]-1 && (u.parent[n] < 0 || m < u.parent[n]) {
				u.parent[n] = m
			}
		}
	}
	u.computeDownReach()
}

// computeDownReach fills downReach by dynamic programming over the down
// DAG. Down edges strictly increase (level, id) lexicographically, so
// processing nodes in descending (level, id) order sees every down
// successor before its predecessors.
func (u *UpDown) computeDownReach() {
	n := u.t.Nodes
	u.downReach = make([]*bitvec.Vector, n)
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	// Sort descending by (level, id); insertion sort is fine at this size.
	less := func(a, b int) bool {
		if u.level[a] != u.level[b] {
			return u.level[a] > u.level[b]
		}
		return a > b
	}
	for i := 1; i < n; i++ {
		for j := i; j > 0 && less(order[j], order[j-1]); j-- {
			order[j], order[j-1] = order[j-1], order[j]
		}
	}
	for _, node := range order {
		v := bitvec.New(n)
		v.Set(node)
		for p := 0; p < u.t.Ports; p++ {
			m := u.t.Neighbor(node, p)
			if m >= 0 && !u.isUp(node, p) {
				v.Or(v, u.downReach[m])
			}
		}
		u.downReach[node] = v
	}
}

// IsUp reports whether taking port p from node n traverses an up link
// (toward the root).
func (u *UpDown) IsUp(n, p int) bool { return u.isUp(n, p) }

// isUp reports whether taking port p from node n traverses an up link
// (toward the root).
func (u *UpDown) isUp(n, p int) bool {
	m := u.t.Neighbor(n, p)
	if m < 0 {
		return false
	}
	if u.level[m] != u.level[n] {
		return u.level[m] < u.level[n]
	}
	return m < n // tie-break by id, as in Autonet
}

// NextPorts appends to dst the legal AND safe output ports for a packet
// at node n heading to dest that has already taken a down link iff
// wentDown. Minimal (profitable) ports come first, then non-minimal ones
// — the fully adaptive routing of [26,27] may misroute to escape
// congestion, so callers choose how deep into the list to go. Safety
// means the destination stays reachable after the hop: up hops always
// preserve reachability (climb to the root, then descend), while a down
// hop is offered only if the destination lies in the neighbor's
// down-cone.
func (u *UpDown) NextPorts(n, dest int, wentDown bool, dst []int) []int {
	appendLegal := func(profitable bool) {
		for p := 0; p < u.t.Ports; p++ {
			m := u.t.Neighbor(n, p)
			if m < 0 {
				continue
			}
			up := u.isUp(n, p)
			if wentDown && up {
				continue // down→up transitions are illegal
			}
			if !up && !u.downReach[m].Test(dest) {
				continue // the down-cone of m cannot reach dest
			}
			if u.d.Profitable(u.t, n, p, dest) != profitable {
				continue
			}
			dst = append(dst, p)
		}
	}
	appendLegal(true)
	appendLegal(false)
	return dst
}

// Route computes a complete up*/down* route from src to dest, greedily
// taking the first legal port (preferring minimal ones) and never
// revisiting a node. It returns the port sequence, or nil if the
// orientation blocks every loop-free choice (cannot happen on a connected
// topology rooted at 0, but the caller should not assume).
func (u *UpDown) Route(src, dest int) []int {
	if src == dest {
		return []int{}
	}
	var ports []int
	visited := map[int]bool{src: true}
	node, wentDown := src, false
	var scratch []int
	for node != dest {
		scratch = u.NextPorts(node, dest, wentDown, scratch[:0])
		advanced := false
		for _, p := range scratch {
			m := u.t.Neighbor(node, p)
			if visited[m] {
				continue
			}
			if !u.isUp(node, p) {
				wentDown = true
			}
			ports = append(ports, p)
			visited[m] = true
			node = m
			advanced = true
			break
		}
		if !advanced {
			return u.treeRoute(src, dest)
		}
	}
	return ports
}

// treeRoute climbs the spanning tree from src to the lowest common
// ancestor with dest, then descends — the canonical all-up-then-all-down
// route that always exists on a connected topology.
func (u *UpDown) treeRoute(src, dest int) []int {
	// Ancestor chains up to the root.
	chain := func(n int) []int {
		var c []int
		for n >= 0 {
			c = append(c, n)
			n = u.parent[n]
		}
		return c
	}
	sc, dc := chain(src), chain(dest)
	anc := map[int]int{} // node → index in dest chain
	for i, n := range dc {
		anc[n] = i
	}
	var ports []int
	node := src
	for _, n := range sc {
		if j, ok := anc[n]; ok {
			// Descend from the common ancestor to dest.
			for k := j - 1; k >= 0; k-- {
				p := u.t.PortTo(node, dc[k])
				if p < 0 {
					return nil
				}
				ports = append(ports, p)
				node = dc[k]
			}
			return ports
		}
		// Climb one level.
		p := u.t.PortTo(node, u.parent[n])
		if p < 0 {
			return nil
		}
		ports = append(ports, p)
		node = u.parent[n]
	}
	return nil
}
