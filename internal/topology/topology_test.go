package topology

import (
	"testing"
	"testing/quick"

	"mmr/internal/sim"
)

func TestNewValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic on bad geometry")
		}
	}()
	New(0, 4)
}

func TestConnectAndQueries(t *testing.T) {
	tp := New(3, 4)
	if err := tp.Connect(0, 1, 1, 2); err != nil {
		t.Fatal(err)
	}
	if tp.Neighbor(0, 1) != 1 || tp.Neighbor(1, 2) != 0 {
		t.Fatal("neighbor wrong")
	}
	if tp.PeerPort(0, 1) != 2 || tp.PeerPort(1, 2) != 1 {
		t.Fatal("peer port wrong")
	}
	if tp.PortTo(0, 1) != 1 || tp.PortTo(1, 0) != 2 || tp.PortTo(0, 2) != -1 {
		t.Fatal("PortTo wrong")
	}
	if tp.degree(0) != 1 || tp.degree(2) != 0 {
		t.Fatal("degree wrong")
	}
	if tp.FreePort(0) != 0 {
		t.Fatal("free port wrong")
	}
	if len(tp.Links) != 1 {
		t.Fatal("link list wrong")
	}
}

func TestConnectErrors(t *testing.T) {
	tp := New(2, 2)
	cases := []struct{ a, ap, b, bp int }{
		{-1, 0, 1, 0}, // bad node
		{0, 5, 1, 0},  // bad port
		{0, 0, 0, 1},  // self link
	}
	for _, c := range cases {
		if err := tp.Connect(c.a, c.ap, c.b, c.bp); err == nil {
			t.Errorf("accepted %+v", c)
		}
	}
	tp.Connect(0, 0, 1, 0)
	if err := tp.Connect(0, 0, 1, 1); err == nil {
		t.Fatal("double-wired port accepted")
	}
}

func TestConnectedAndDists(t *testing.T) {
	tp := New(4, 4)
	if tp.upConnected() {
		t.Fatal("disconnected graph reported connected")
	}
	tp.Connect(0, 0, 1, 0)
	tp.Connect(1, 1, 2, 0)
	tp.Connect(2, 1, 3, 0)
	if !tp.upConnected() {
		t.Fatal("chain not connected")
	}
	d := tp.ShortestDists(0)
	for i, want := range []int{0, 1, 2, 3} {
		if d[i] != want {
			t.Fatalf("dist[%d] = %d, want %d", i, d[i], want)
		}
	}
}

func TestMesh(t *testing.T) {
	tp, err := Mesh(4, 3, 4)
	if err != nil {
		t.Fatal(err)
	}
	if tp.Nodes != 12 || !tp.upConnected() {
		t.Fatal("mesh malformed")
	}
	// Interior node has degree 4, corner 2.
	if tp.degree(5) != 4 { // (1,1)
		t.Fatalf("interior degree = %d", tp.degree(5))
	}
	if tp.degree(0) != 2 {
		t.Fatalf("corner degree = %d", tp.degree(0))
	}
	// 2w*h - w - h links in a mesh.
	if want := 2*4*3 - 4 - 3; len(tp.Links) != want {
		t.Fatalf("links = %d, want %d", len(tp.Links), want)
	}
	// Manhattan distance check.
	d := tp.ShortestDists(0)
	if d[11] != 3+2 {
		t.Fatalf("corner-to-corner dist = %d, want 5", d[11])
	}
	if _, err := Mesh(2, 2, 3); err == nil {
		t.Fatal("mesh with 3 ports accepted")
	}
}

func TestTorus(t *testing.T) {
	tp, err := Torus(4, 4, 4)
	if err != nil {
		t.Fatal(err)
	}
	if !tp.upConnected() {
		t.Fatal("torus not connected")
	}
	// Every node in a torus has degree 4.
	for n := 0; n < tp.Nodes; n++ {
		if tp.degree(n) != 4 {
			t.Fatalf("node %d degree = %d", n, tp.degree(n))
		}
	}
	// Wraparound shortens corner-to-corner to 2+2... actually (0,0) to
	// (3,3) is 1+1 via wrap links.
	d := tp.ShortestDists(0)
	if d[15] != 2 {
		t.Fatalf("wrap distance = %d, want 2", d[15])
	}
	if _, err := Torus(2, 4, 4); err == nil {
		t.Fatal("degenerate torus accepted")
	}
}

func TestIrregular(t *testing.T) {
	rng := sim.NewRNG(42)
	tp, err := Irregular(16, 8, 4, rng)
	if err != nil {
		t.Fatal(err)
	}
	if !tp.upConnected() {
		t.Fatal("irregular topology not connected")
	}
	for n := 0; n < tp.Nodes; n++ {
		if tp.degree(n) > 8 {
			t.Fatalf("node %d exceeds port count", n)
		}
	}
	// Link count should approach nodes*avgDegree/2.
	if len(tp.Links) < 16 { // at least the spanning tree + extras
		t.Fatalf("too few links: %d", len(tp.Links))
	}
	if _, err := Irregular(1, 4, 2, rng); err == nil {
		t.Fatal("single-node irregular accepted")
	}
	if _, err := Irregular(8, 4, 9, rng); err == nil {
		t.Fatal("degree above ports accepted")
	}
}

func TestSetLinkUp(t *testing.T) {
	tp := New(3, 4)
	tp.Connect(0, 0, 1, 0)
	tp.Connect(1, 1, 2, 0)
	if err := tp.SetLinkUp(0, 0, false); err != nil {
		t.Fatal(err)
	}
	// Both sides see the link down; raw wiring stays visible.
	if tp.Neighbor(0, 0) != -1 || tp.Neighbor(1, 0) != -1 {
		t.Fatal("down link still visible to Neighbor")
	}
	if tp.PeerPort(0, 0) != -1 || tp.LinkUp(0, 0) || tp.LinkUp(1, 0) {
		t.Fatal("down link state not mirrored")
	}
	if tp.Wired(0, 0) != 1 || tp.WiredPeer(0, 0) != 0 {
		t.Fatal("raw wiring lost when link went down")
	}
	if tp.upConnected() {
		t.Fatal("partitioned topology reported connected")
	}
	if d := tp.ShortestDists(0); d[1] != -1 || d[2] != -1 {
		t.Fatalf("dists cross a down link: %v", d)
	}
	if tp.upLinks() != 1 {
		t.Fatalf("UpLinks = %d, want 1", tp.upLinks())
	}
	if err := tp.Validate(); err != nil {
		t.Fatalf("valid topology failed audit: %v", err)
	}
	// Restore: traversal sees the link again.
	if err := tp.SetLinkUp(1, 0, true); err != nil { // far side works too
		t.Fatal(err)
	}
	if tp.Neighbor(0, 0) != 1 || !tp.upConnected() || tp.upLinks() != 2 {
		t.Fatal("restore did not bring the link back")
	}
	// An idempotent no-op is no error and changes nothing.
	if err := tp.SetLinkUp(0, 0, true); err != nil || tp.Neighbor(0, 0) != 1 || tp.upLinks() != 2 {
		t.Fatal("no-op SetLinkUp changed state")
	}
	// Error paths.
	if err := tp.SetLinkUp(0, 3, false); err == nil {
		t.Fatal("unwired port accepted")
	}
	if err := tp.SetLinkUp(-1, 0, false); err == nil || tp.SetLinkUp(0, 9, false) == nil {
		t.Fatal("out-of-range port accepted")
	}
}

func TestValidateDetectsMalformedWiring(t *testing.T) {
	tp := New(3, 4)
	tp.Connect(0, 0, 1, 0)
	if err := tp.Validate(); err != nil {
		t.Fatal(err)
	}
	// Duplicate port wiring smuggled into the Links list.
	tp.Links = append(tp.Links, Link{A: 0, B: 2, APort: 0, BPort: 0})
	if err := tp.Validate(); err == nil {
		t.Fatal("duplicate port wiring not detected")
	}
	tp.Links = tp.Links[:1]

	// Asymmetric neighbor table.
	tp2 := New(3, 4)
	tp2.Connect(0, 0, 1, 0)
	tp2.neighbor[1][0] = 2
	if err := tp2.Validate(); err == nil {
		t.Fatal("asymmetric wiring not detected")
	}

	// Wiring present in the tables but missing from Links.
	tp3 := New(3, 4)
	tp3.Connect(0, 0, 1, 0)
	tp3.Links = nil
	if err := tp3.Validate(); err == nil {
		t.Fatal("orphan wiring not detected")
	}

	// Split up/down state across the two sides of one cable.
	tp4 := New(3, 4)
	tp4.Connect(0, 0, 1, 0)
	tp4.linkUp[1][0] = false
	if err := tp4.Validate(); err == nil {
		t.Fatal("split link state not detected")
	}

	// An unwired port marked up.
	tp5 := New(3, 4)
	tp5.linkUp[2][2] = true
	if err := tp5.Validate(); err == nil {
		t.Fatal("unwired-but-up port not detected")
	}
}

// Property: irregular topologies are always connected and respect port
// limits, for any seed.
func TestIrregularProperty(t *testing.T) {
	rng := sim.NewRNG(1)
	f := func(seed uint64, n8, deg8 uint8) bool {
		rng.Seed(seed)
		nodes := int(n8)%30 + 2
		ports := 8
		deg := int(deg8)%4 + 1
		tp, err := Irregular(nodes, ports, deg, rng)
		if err != nil {
			return false
		}
		if !tp.upConnected() {
			return false
		}
		for n := 0; n < nodes; n++ {
			if tp.degree(n) > ports {
				return false
			}
		}
		// Symmetry: neighbor relations must be mutual.
		for n := 0; n < nodes; n++ {
			for p := 0; p < ports; p++ {
				m := tp.Neighbor(n, p)
				if m < 0 {
					continue
				}
				q := tp.PeerPort(n, p)
				if tp.Neighbor(m, q) != n || tp.PeerPort(m, q) != p {
					return false
				}
			}
		}
		return tp.Validate() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// upLinks returns how many of the topology's links are currently up.
func (t *Topology) upLinks() int {
	n := 0
	for _, l := range t.Links {
		if t.linkUp[l.A][l.APort] {
			n++
		}
	}
	return n
}

// degree returns the number of wired ports of node n.
func (t *Topology) degree(n int) int {
	d := 0
	for p := 0; p < t.Ports; p++ {
		if t.neighbor[n][p] != -1 {
			d++
		}
	}
	return d
}

// upConnected reports whether the graph of up links is connected.
func (t *Topology) upConnected() bool {
	return t.connected(t.Neighbor)
}
