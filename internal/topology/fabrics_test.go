package topology

import (
	"testing"

	"mmr/internal/sim"
)

// wiringSignature flattens the full wiring into a comparable string so
// determinism tests can assert byte-identical builds across runs.
func wiringSignature(t *Topology) string {
	sig := make([]byte, 0, len(t.Links)*8)
	for _, l := range t.Links {
		sig = append(sig, byte(l.A), byte(l.A>>8), byte(l.APort),
			byte(l.B), byte(l.B>>8), byte(l.BPort))
	}
	return string(sig)
}

func TestFatTreeShape(t *testing.T) {
	for _, k := range []int{2, 4, 8, 16} {
		ft, err := FatTree(k)
		if err != nil {
			t.Fatalf("FatTree(%d): %v", k, err)
		}
		if ft.Nodes != FatTreeNodes(k) {
			t.Fatalf("FatTree(%d): %d nodes, want %d", k, ft.Nodes, FatTreeNodes(k))
		}
		if err := ft.Validate(); err != nil {
			t.Fatalf("FatTree(%d) invalid: %v", k, err)
		}
		if !ft.WiredConnected() || !ft.upConnected() {
			t.Fatalf("FatTree(%d) not connected", k)
		}
		wantLinks := k * (k / 2) * (k / 2) * 2 // edge↔agg plus agg↔core per pod
		if len(ft.Links) != wantLinks {
			t.Fatalf("FatTree(%d): %d links, want %d", k, len(ft.Links), wantLinks)
		}
		// Degree bounds: edge routers use half their ports (the rest are
		// host-facing and stay unwired), agg and core use all k.
		for p := 0; p < k; p++ {
			for i := 0; i < k/2; i++ {
				if d := ft.degree(p*k + i); d != k/2 {
					t.Fatalf("FatTree(%d): edge %d degree %d, want %d", k, p*k+i, d, k/2)
				}
				if d := ft.degree(p*k + k/2 + i); d != k {
					t.Fatalf("FatTree(%d): agg %d degree %d, want %d", k, p*k+k/2+i, d, k)
				}
			}
		}
		for n := k * k; n < ft.Nodes; n++ {
			if d := ft.degree(n); d != k {
				t.Fatalf("FatTree(%d): core %d degree %d, want %d", k, n, d, k)
			}
		}
		// Regions: one per pod plus the core plane.
		if ft.NumRegions() != k+1 {
			t.Fatalf("FatTree(%d): %d regions, want %d", k, ft.NumRegions(), k+1)
		}
		sh := ft.Shape()
		if sh.Kind != "fattree" || len(sh.Params) != 1 || sh.Params[0] != (ShapeParam{"k", k}) {
			t.Fatalf("FatTree(%d): bad shape %+v", k, sh)
		}
	}
}

func TestFatTreeRejectsBadK(t *testing.T) {
	for _, k := range []int{0, 1, 3, 5, -2} {
		if _, err := FatTree(k); err == nil {
			t.Fatalf("FatTree(%d) accepted", k)
		}
	}
}

func TestDragonflyShape(t *testing.T) {
	cases := []struct{ a, p, h int }{{2, 1, 1}, {4, 2, 2}, {6, 3, 3}, {8, 4, 4}}
	for _, c := range cases {
		df, err := Dragonfly(c.a, c.p, c.h)
		if err != nil {
			t.Fatalf("Dragonfly(%d,%d,%d): %v", c.a, c.p, c.h, err)
		}
		g := c.a*c.h + 1
		if df.Nodes != g*c.a {
			t.Fatalf("Dragonfly(%d,%d,%d): %d nodes, want %d", c.a, c.p, c.h, df.Nodes, g*c.a)
		}
		if err := df.Validate(); err != nil {
			t.Fatalf("Dragonfly(%d,%d,%d) invalid: %v", c.a, c.p, c.h, err)
		}
		if !df.WiredConnected() || !df.upConnected() {
			t.Fatalf("Dragonfly(%d,%d,%d) not connected", c.a, c.p, c.h)
		}
		// Balanced dragonfly: every router fully wired — a-1 local links
		// plus h global channels, and one global link per group pair.
		wantLinks := g*c.a*(c.a-1)/2 + g*(g-1)/2
		if len(df.Links) != wantLinks {
			t.Fatalf("Dragonfly(%d,%d,%d): %d links, want %d", c.a, c.p, c.h, len(df.Links), wantLinks)
		}
		for n := 0; n < df.Nodes; n++ {
			if d := df.degree(n); d != c.a-1+c.h {
				t.Fatalf("Dragonfly(%d,%d,%d): node %d degree %d, want %d", c.a, c.p, c.h, n, d, c.a-1+c.h)
			}
		}
		// Regions: one per group.
		if df.NumRegions() != g {
			t.Fatalf("Dragonfly(%d,%d,%d): %d regions, want %d", c.a, c.p, c.h, df.NumRegions(), g)
		}
		// Exactly one global link between every pair of groups.
		pair := map[[2]int]int{}
		for _, l := range df.Links {
			ga, gb := l.A/c.a, l.B/c.a
			if ga != gb {
				if ga > gb {
					ga, gb = gb, ga
				}
				pair[[2]int{ga, gb}]++
			}
		}
		if len(pair) != g*(g-1)/2 {
			t.Fatalf("Dragonfly(%d,%d,%d): %d group pairs linked, want %d", c.a, c.p, c.h, len(pair), g*(g-1)/2)
		}
		for k, v := range pair {
			if v != 1 {
				t.Fatalf("Dragonfly(%d,%d,%d): groups %v joined by %d links", c.a, c.p, c.h, k, v)
			}
		}
	}
}

func TestDragonflyRejectsBadShape(t *testing.T) {
	for _, c := range [][3]int{{1, 1, 1}, {2, 0, 1}, {2, 1, 0}, {0, 1, 1}} {
		if _, err := Dragonfly(c[0], c[1], c[2]); err == nil {
			t.Fatalf("Dragonfly(%d,%d,%d) accepted", c[0], c[1], c[2])
		}
	}
}

// TestGeneratorsDeterministic asserts byte-identical wiring across
// repeated builds — checkpoint compatibility and cross-run determinism
// both hang on this.
func TestGeneratorsDeterministic(t *testing.T) {
	build := map[string]func() (*Topology, error){
		"fattree-8":       func() (*Topology, error) { return FatTree(8) },
		"dragonfly-4-2-2": func() (*Topology, error) { return Dragonfly(4, 2, 2) },
		"mesh-5-3":        func() (*Topology, error) { return Mesh(5, 3, 4) },
		"torus-4-4":       func() (*Topology, error) { return Torus(4, 4, 4) },
		"irregular-24": func() (*Topology, error) {
			rng := sim.NewRNG(99)
			return Irregular(24, 6, 3, rng)
		},
	}
	for name, f := range build {
		a, err := f()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		b, err := f()
		if err != nil {
			t.Fatalf("%s rebuild: %v", name, err)
		}
		if wiringSignature(a) != wiringSignature(b) {
			t.Fatalf("%s: wiring differs between identical builds", name)
		}
	}
}

func TestShapeDefaults(t *testing.T) {
	// Hand-wired topologies report the zero shape and a single region.
	hw := New(4, 2)
	if err := hw.Connect(0, 0, 1, 0); err != nil {
		t.Fatal(err)
	}
	if hw.Shape().Kind != "" || hw.NumRegions() != 1 {
		t.Fatalf("hand-wired shape not zero: %+v", hw.Shape())
	}
	m, err := Mesh(3, 3, 4)
	if err != nil {
		t.Fatal(err)
	}
	if m.Shape().Kind != "mesh" || m.NumRegions() != 1 {
		t.Fatalf("mesh shape wrong: %+v", m.Shape())
	}
}
