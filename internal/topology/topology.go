// Package topology describes the interconnect graphs the MMR targets:
// switch-based cluster/LAN fabrics. Besides regular meshes and tori it
// generates the irregular topologies the routing algorithms of §3.5 were
// designed for (networks of workstations wired ad hoc, refs [26,27]).
//
// A topology is a set of nodes (routers) and bidirectional links between
// router ports. Port 0..HostPorts-1 of every router attach to hosts;
// the remaining ports attach to other routers or stay unwired.
package topology

import (
	"fmt"

	"mmr/internal/sim"
)

// Link is one bidirectional cable between two router ports.
type Link struct {
	A, B         int // router IDs
	APort, BPort int // port on each side
}

// Topology is an undirected multigraph of routers. Every wired link is
// either up or down: routing and traversal helpers (Neighbor, PeerPort,
// Connected, ShortestDists) see only up links, so marking a link down
// makes path computation route around it, while the raw wiring stays
// queryable through Wired/WiredPeer for teardown and restoration.
type Topology struct {
	Nodes int
	Ports int // ports per router available for inter-router wiring
	Links []Link

	// neighbor[n][p] = router reached from node n port p, or -1.
	neighbor [][]int
	// peerPort[n][p] = the port on the neighbor that the cable plugs into.
	peerPort [][]int
	// linkUp[n][p] = the cable at node n port p carries traffic. Unwired
	// ports are never up.
	linkUp [][]bool

	// shape records generator metadata — kind, shape parameters and the
	// region count (pods, dragonfly groups) — when the topology came from
	// a named generator. Hand-wired topologies keep the zero value.
	// See fabrics.go for the Shape type and accessors.
	shape Shape
}

// New returns an empty topology with the given geometry.
func New(nodes, ports int) *Topology {
	if nodes < 1 || ports < 1 {
		panic(fmt.Sprintf("topology: invalid geometry nodes=%d ports=%d", nodes, ports))
	}
	t := &Topology{Nodes: nodes, Ports: ports}
	t.neighbor = make([][]int, nodes)
	t.peerPort = make([][]int, nodes)
	t.linkUp = make([][]bool, nodes)
	for n := 0; n < nodes; n++ {
		t.neighbor[n] = make([]int, ports)
		t.peerPort[n] = make([]int, ports)
		t.linkUp[n] = make([]bool, ports)
		for p := 0; p < ports; p++ {
			t.neighbor[n][p] = -1
			t.peerPort[n][p] = -1
		}
	}
	return t
}

// Connect wires port ap of node a to port bp of node b. It returns an
// error if either port is already wired or out of range.
func (t *Topology) Connect(a, ap, b, bp int) error {
	if a < 0 || a >= t.Nodes || b < 0 || b >= t.Nodes {
		return fmt.Errorf("topology: node out of range (%d,%d)", a, b)
	}
	if ap < 0 || ap >= t.Ports || bp < 0 || bp >= t.Ports {
		return fmt.Errorf("topology: port out of range (%d,%d)", ap, bp)
	}
	if a == b {
		return fmt.Errorf("topology: self-link on node %d", a)
	}
	if t.neighbor[a][ap] != -1 || t.neighbor[b][bp] != -1 {
		return fmt.Errorf("topology: port already wired (%d.%d or %d.%d)", a, ap, b, bp)
	}
	t.neighbor[a][ap] = b
	t.peerPort[a][ap] = bp
	t.neighbor[b][bp] = a
	t.peerPort[b][bp] = ap
	t.linkUp[a][ap] = true
	t.linkUp[b][bp] = true
	t.Links = append(t.Links, Link{A: a, B: b, APort: ap, BPort: bp})
	return nil
}

// Neighbor returns the router on the far side of node n's port p, or -1
// when the port is unwired or its link is down.
func (t *Topology) Neighbor(n, p int) int {
	if !t.linkUp[n][p] {
		return -1
	}
	return t.neighbor[n][p]
}

// PeerPort returns the far-side port of node n's port p, or -1 when the
// port is unwired or its link is down.
func (t *Topology) PeerPort(n, p int) int {
	if !t.linkUp[n][p] {
		return -1
	}
	return t.peerPort[n][p]
}

// Wired returns the router wired to node n's port p regardless of link
// state, or -1 for an unwired port. Teardown paths use it so resource
// release never depends on whether the cable is currently up.
func (t *Topology) Wired(n, p int) int { return t.neighbor[n][p] }

// WiredPeer returns the far-side port of node n's port p regardless of
// link state, or -1 for an unwired port.
func (t *Topology) WiredPeer(n, p int) int { return t.peerPort[n][p] }

// LinkUp reports whether the link at node n port p is wired and up.
func (t *Topology) LinkUp(n, p int) bool { return t.linkUp[n][p] }

// SetLinkUp marks the link at node n port p (and its far side) up or
// down. It returns an error for an unwired port and is a no-op when the
// link is already in the requested state.
func (t *Topology) SetLinkUp(n, p int, up bool) error {
	if n < 0 || n >= t.Nodes || p < 0 || p >= t.Ports {
		return fmt.Errorf("topology: port %d.%d out of range", n, p)
	}
	if t.neighbor[n][p] < 0 {
		return fmt.Errorf("topology: port %d.%d is not wired", n, p)
	}
	if t.linkUp[n][p] == up {
		return nil
	}
	m, mp := t.neighbor[n][p], t.peerPort[n][p]
	t.linkUp[n][p] = up
	t.linkUp[m][mp] = up
	return nil
}

// Validate audits the wiring invariants: neighbor/peer tables symmetric,
// link state mirrored on both sides, every Links entry consistent with
// the tables, and no port wired twice. It returns the first violation.
func (t *Topology) Validate() error {
	seen := make(map[[2]int]bool, 2*len(t.Links))
	for _, l := range t.Links {
		for _, side := range [2][2]int{{l.A, l.APort}, {l.B, l.BPort}} {
			if seen[side] {
				return fmt.Errorf("topology: port %d.%d wired twice", side[0], side[1])
			}
			seen[side] = true
		}
		if t.neighbor[l.A][l.APort] != l.B || t.peerPort[l.A][l.APort] != l.BPort {
			return fmt.Errorf("topology: link %+v not reflected at %d.%d", l, l.A, l.APort)
		}
		if t.neighbor[l.B][l.BPort] != l.A || t.peerPort[l.B][l.BPort] != l.APort {
			return fmt.Errorf("topology: link %+v not reflected at %d.%d", l, l.B, l.BPort)
		}
		if t.linkUp[l.A][l.APort] != t.linkUp[l.B][l.BPort] {
			return fmt.Errorf("topology: link %+v up/down state split across sides", l)
		}
	}
	for n := 0; n < t.Nodes; n++ {
		for p := 0; p < t.Ports; p++ {
			m := t.neighbor[n][p]
			if m < 0 {
				if t.linkUp[n][p] {
					return fmt.Errorf("topology: unwired port %d.%d marked up", n, p)
				}
				continue
			}
			if !seen[[2]int{n, p}] {
				return fmt.Errorf("topology: port %d.%d wired outside the Links list", n, p)
			}
			mp := t.peerPort[n][p]
			if mp < 0 || mp >= t.Ports || t.neighbor[m][mp] != n || t.peerPort[m][mp] != p {
				return fmt.Errorf("topology: asymmetric wiring at %d.%d", n, p)
			}
		}
	}
	return nil
}

// FreePort returns the lowest unwired port of node n, or -1.
func (t *Topology) FreePort(n int) int {
	for p := 0; p < t.Ports; p++ {
		if t.neighbor[n][p] == -1 {
			return p
		}
	}
	return -1
}

// PortTo returns a port of node n with an up link to node m, or -1.
func (t *Topology) PortTo(n, m int) int {
	for p := 0; p < t.Ports; p++ {
		if t.Neighbor(n, p) == m {
			return p
		}
	}
	return -1
}

// WiredConnected reports whether the static wiring connects every node,
// ignoring live link state. This is the build-time check: a fabric may
// legitimately be constructed while links are down — restoring a
// checkpoint taken mid-outage — as long as the wiring itself is sound.
func (t *Topology) WiredConnected() bool {
	return t.connected(t.Wired)
}

func (t *Topology) connected(peer func(n, p int) int) bool {
	if t.Nodes == 0 {
		return true
	}
	seen := make([]bool, t.Nodes)
	stack := []int{0}
	seen[0] = true
	count := 1
	for len(stack) > 0 {
		n := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for p := 0; p < t.Ports; p++ {
			if m := peer(n, p); m >= 0 && !seen[m] {
				seen[m] = true
				count++
				stack = append(stack, m)
			}
		}
	}
	return count == t.Nodes
}

// ShortestDists returns, for every node, its hop distance from src over
// up links (-1 if unreachable) — the reference for minimal-path routing
// checks.
func (t *Topology) ShortestDists(src int) []int {
	dist := make([]int, t.Nodes)
	for i := range dist {
		dist[i] = -1
	}
	dist[src] = 0
	queue := []int{src}
	for len(queue) > 0 {
		n := queue[0]
		queue = queue[1:]
		for p := 0; p < t.Ports; p++ {
			if m := t.Neighbor(n, p); m >= 0 && dist[m] < 0 {
				dist[m] = dist[n] + 1
				queue = append(queue, m)
			}
		}
	}
	return dist
}

// Mesh builds a w×h 2D mesh. Each router needs at least 4 inter-router
// ports.
func Mesh(w, h, ports int) (*Topology, error) {
	if ports < 4 {
		return nil, fmt.Errorf("topology: mesh needs >= 4 ports, got %d", ports)
	}
	t := New(w*h, ports)
	id := func(x, y int) int { return y*w + x }
	// Port convention: 0=east 1=west 2=north 3=south.
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			if x+1 < w {
				if err := t.Connect(id(x, y), 0, id(x+1, y), 1); err != nil {
					return nil, err
				}
			}
			if y+1 < h {
				if err := t.Connect(id(x, y), 3, id(x, y+1), 2); err != nil {
					return nil, err
				}
			}
		}
	}
	t.shape = Shape{Kind: "mesh", Params: []ShapeParam{{"w", w}, {"h", h}}, Regions: 1}
	return t, nil
}

// Torus builds a w×h 2D torus (wraparound mesh). w and h must be >= 3 so
// wrap links do not collide with mesh links on the same port pair.
func Torus(w, h, ports int) (*Topology, error) {
	if ports < 4 {
		return nil, fmt.Errorf("topology: torus needs >= 4 ports, got %d", ports)
	}
	if w < 3 || h < 3 {
		return nil, fmt.Errorf("topology: torus needs dimensions >= 3, got %dx%d", w, h)
	}
	t, err := Mesh(w, h, ports)
	if err != nil {
		return nil, err
	}
	id := func(x, y int) int { return y*w + x }
	for y := 0; y < h; y++ {
		if err := t.Connect(id(w-1, y), 0, id(0, y), 1); err != nil {
			return nil, err
		}
	}
	for x := 0; x < w; x++ {
		if err := t.Connect(id(x, h-1), 3, id(x, 0), 2); err != nil {
			return nil, err
		}
	}
	t.shape = Shape{Kind: "torus", Params: []ShapeParam{{"w", w}, {"h", h}}, Regions: 1}
	return t, nil
}

// Irregular builds a random connected topology in the style of the NOW
// networks of [26,27]: a random spanning tree (guaranteeing connectivity)
// plus extra random links up to the requested average degree, subject to
// port limits.
func Irregular(nodes, ports, avgDegree int, rng *sim.RNG) (*Topology, error) {
	if nodes < 2 {
		return nil, fmt.Errorf("topology: need >= 2 nodes, got %d", nodes)
	}
	if avgDegree < 1 || avgDegree > ports {
		return nil, fmt.Errorf("topology: average degree %d outside [1,%d]", avgDegree, ports)
	}
	t := New(nodes, ports)
	// Random spanning tree: attach each node to a random earlier node
	// that still has a free port (a popular hub can fill up).
	perm := rng.Perm(nodes)
	for i := 1; i < nodes; i++ {
		a := perm[i]
		b := -1
		off := rng.Intn(i)
		for k := 0; k < i; k++ {
			cand := perm[(off+k)%i]
			if t.FreePort(cand) >= 0 {
				b = cand
				break
			}
		}
		if b < 0 {
			return nil, fmt.Errorf("topology: out of ports while building spanning tree")
		}
		if err := t.Connect(a, t.FreePort(a), b, t.FreePort(b)); err != nil {
			return nil, err
		}
	}
	// Extra links to reach the target degree.
	want := nodes * avgDegree / 2
	for tries := 0; len(t.Links) < want && tries < nodes*ports*4; tries++ {
		a, b := rng.Intn(nodes), rng.Intn(nodes)
		if a == b || t.PortTo(a, b) >= 0 {
			continue
		}
		ap, bp := t.FreePort(a), t.FreePort(b)
		if ap < 0 || bp < 0 {
			continue
		}
		if err := t.Connect(a, ap, b, bp); err != nil {
			return nil, err
		}
	}
	// Randomized construction: audit the wiring invariants before handing
	// the topology out, so a generator bug cannot produce duplicate port
	// wiring or asymmetric tables that corrupt routing later.
	if err := t.Validate(); err != nil {
		return nil, err
	}
	t.shape = Shape{Kind: "irregular", Params: []ShapeParam{{"nodes", nodes}, {"degree", avgDegree}}, Regions: 1}
	return t, nil
}
