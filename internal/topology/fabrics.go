// fabrics.go generates the datacenter-scale fabrics the large-network
// experiments run on: k-ary fat trees (folded Clos, Al-Fares numbering)
// and dragonflies (Kim et al. a/p/h parameterization). Both generators
// produce deterministic node numbering — the same parameters always
// yield the same wiring, so checkpoints, golden figures, and cross-run
// determinism checks stay byte-stable — and both attach a Shape record
// describing the build, which the daemon's status report reads.
package topology

import "fmt"

// ShapeParam is one named generator parameter (k, a, p, h, ...).
type ShapeParam struct {
	Name  string
	Value int
}

// Shape describes how a topology was generated. Kind is the generator
// name ("mesh", "torus", "irregular", "fattree", "dragonfly"); Params
// are its arguments in declaration order; Regions counts the locality
// domains the fabric divides into (fat-tree pods plus the core,
// dragonfly groups; 1 when the generator has no such structure).
// Shape is derived metadata: it does not affect routing or wiring and
// is deliberately excluded from configuration hashes.
type Shape struct {
	Kind    string
	Params  []ShapeParam
	Regions int
}

// Shape returns the generator metadata. Hand-wired topologies report
// the zero Shape (Kind "").
func (t *Topology) Shape() Shape { return t.shape }

// NumRegions returns the number of locality regions (at least 1).
func (t *Topology) NumRegions() int {
	if t.shape.Regions < 1 {
		return 1
	}
	return t.shape.Regions
}

// FatTreeNodes returns the router count of a k-ary fat tree: k pods of
// k routers plus (k/2)² core routers.
func FatTreeNodes(k int) int { return k*k + (k/2)*(k/2) }

// FatTree builds the k-ary folded-Clos fat tree (k even, ≥ 2): k pods,
// each with k/2 edge and k/2 aggregation routers, and (k/2)² core
// routers. Numbering is deterministic:
//
//	edge(p,i) = p·k + i            i ∈ [0,k/2)
//	agg(p,j)  = p·k + k/2 + j      j ∈ [0,k/2)
//	core(j,c) = k² + j·(k/2) + c   j,c ∈ [0,k/2)
//
// so pods occupy contiguous ID blocks and the core plane sits above
// them. Wiring: edge(p,i) port k/2+j ↔ agg(p,j) port i, and agg(p,j)
// port k/2+c ↔ core(j,c) port p — aggregation router j of every pod
// reaches core row j, the standard rotational striping. Edge ports
// 0..k/2-1 stay unwired: they are the host-facing ports of the real
// fat tree, which this model subsumes into the router's dedicated host
// interface. Regions: the k pods and the core plane.
func FatTree(k int) (*Topology, error) {
	if k < 2 || k%2 != 0 {
		return nil, fmt.Errorf("topology: fat tree needs even k >= 2, got %d", k)
	}
	half := k / 2
	t := New(FatTreeNodes(k), k)
	edge := func(p, i int) int { return p*k + i }
	agg := func(p, j int) int { return p*k + half + j }
	core := func(j, c int) int { return k*k + j*half + c }
	for p := 0; p < k; p++ {
		for i := 0; i < half; i++ {
			for j := 0; j < half; j++ {
				if err := t.Connect(edge(p, i), half+j, agg(p, j), i); err != nil {
					return nil, err
				}
			}
		}
		for j := 0; j < half; j++ {
			for c := 0; c < half; c++ {
				if err := t.Connect(agg(p, j), half+c, core(j, c), p); err != nil {
					return nil, err
				}
			}
		}
	}
	if err := t.Validate(); err != nil {
		return nil, err
	}
	t.shape = Shape{
		Kind:    "fattree",
		Params:  []ShapeParam{{"k", k}},
		Regions: k + 1,
	}
	return t, nil
}

// Dragonfly builds the canonical dragonfly: groups of a routers in a
// full local mesh, h global channels per router, and the balanced group
// count g = a·h + 1 so every group pair is joined by exactly one global
// link. p is the modeled host count per router; it only scales the
// offered load (each router exposes a single aggregate host interface),
// so it is validated and recorded in the Shape but does not change the
// wiring. Numbering: router r of group grp is node grp·a + r. Local
// links use ports 0..a-2 (router r reaches peer s>r on port s-1, and
// s reaches r on port r); global channel c of a group sits on router
// c/h port (a-1)+c%h, and group i's channel toward group j is channel
// j-1 for j>i (j for j<i) — the standard skip-self indexing, so the
// wiring is fully determined by (a,h). Regions: one per group.
func Dragonfly(a, p, h int) (*Topology, error) {
	if a < 2 {
		return nil, fmt.Errorf("topology: dragonfly needs a >= 2 routers per group, got %d", a)
	}
	if h < 1 {
		return nil, fmt.Errorf("topology: dragonfly needs h >= 1 global channels, got %d", h)
	}
	if p < 1 {
		return nil, fmt.Errorf("topology: dragonfly needs p >= 1 hosts per router, got %d", p)
	}
	g := a*h + 1
	t := New(g*a, (a-1)+h)
	node := func(grp, r int) int { return grp*a + r }
	for grp := 0; grp < g; grp++ {
		for r := 0; r < a; r++ {
			for s := r + 1; s < a; s++ {
				if err := t.Connect(node(grp, r), s-1, node(grp, s), r); err != nil {
					return nil, err
				}
			}
		}
	}
	for i := 0; i < g; i++ {
		for j := i + 1; j < g; j++ {
			// Channel j-1 of group i (peer j > i skips self) meets
			// channel i of group j (peer i < j).
			ci, cj := j-1, i
			err := t.Connect(
				node(i, ci/h), (a-1)+ci%h,
				node(j, cj/h), (a-1)+cj%h,
			)
			if err != nil {
				return nil, err
			}
		}
	}
	if err := t.Validate(); err != nil {
		return nil, err
	}
	t.shape = Shape{
		Kind:    "dragonfly",
		Params:  []ShapeParam{{"a", a}, {"p", p}, {"h", h}},
		Regions: g,
	}
	return t, nil
}
