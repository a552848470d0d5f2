package routing

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"mmr/internal/topology"
)

// refChannelMap is the channel map as two Go maps: the model the compact
// table is held to.
type refChannelMap struct {
	direct, reverse map[VCRef]VCRef
}

func (r *refChannelMap) lookup(m map[VCRef]VCRef, k VCRef) VCRef {
	if v, ok := m[k]; ok {
		return v
	}
	return Invalid
}

// checkChannelMap compares every observable of m against the model:
// Direct and Reverse at every reference, Mapped, and AppendMapped's order.
func checkChannelMap(t *testing.T, m *ChannelMap, ref *refChannelMap) {
	t.Helper()
	if got, want := m.Mapped(), len(ref.direct); got != want {
		t.Fatalf("Mapped = %d, want %d", got, want)
	}
	var want [][2]VCRef
	got := m.AppendMapped(nil)
	for in, out := range ref.direct {
		want = append(want, [2]VCRef{in, out})
	}
	slices.SortFunc(want, func(a, b [2]VCRef) int {
		if a[0].Port != b[0].Port {
			return a[0].Port - b[0].Port
		}
		return a[0].VC - b[0].VC
	})
	if !slices.Equal(got, want) {
		t.Fatalf("AppendMapped lists %v, want %v", got, want)
	}
	for p := 0; p < m.ports; p++ {
		for v := 0; v < m.vcs; v++ {
			r := VCRef{Port: p, VC: v}
			if got, want := m.Direct(r), ref.lookup(ref.direct, r); got != want {
				t.Fatalf("Direct(%+v) = %+v, want %+v", r, got, want)
			}
			if got, want := m.Reverse(r), ref.lookup(ref.reverse, r); got != want {
				t.Fatalf("Reverse(%+v) = %+v, want %+v", r, got, want)
			}
		}
	}
}

// TestChannelMapMatchesReference drives random Map/Unmap sequences on
// radixes up to 33 with up to 256 VCs, and on geometries at the 32,767
// bound of either dimension, against a map-based model: every Direct and
// Reverse, Mapped, ForEach's order and both refusal messages must agree.
func TestChannelMapMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	type geometry struct{ ports, vcs int }
	geos := []geometry{{1, 1}, {33, 256}, {32767, 2}, {2, 32767}}
	for i := 0; i < 12; i++ {
		geos = append(geos, geometry{1 + rng.Intn(33), 1 + rng.Intn(256)})
	}
	for _, g := range geos {
		m := NewChannelMap(g.ports, g.vcs)
		ref := &refChannelMap{direct: map[VCRef]VCRef{}, reverse: map[VCRef]VCRef{}}
		// Draw indices from a small pool that includes both ends of each
		// range, so double maps and the highest index occur often.
		pick := func(n int) int {
			switch rng.Intn(4) {
			case 0:
				return n - 1
			case 1:
				return 0
			default:
				return rng.Intn(min(n, 8))
			}
		}
		draw := func() VCRef { return VCRef{Port: pick(g.ports), VC: pick(g.vcs)} }
		small := g.ports*g.vcs <= 4096
		for op := 0; op < 3000; op++ {
			if rng.Intn(3) == 0 {
				in := draw()
				want := ref.lookup(ref.direct, in)
				if got := m.Unmap(in); got != want {
					t.Fatalf("%v: Unmap(%+v) = %+v, want %+v", g, in, got, want)
				}
				delete(ref.direct, in)
				delete(ref.reverse, want)
				continue
			}
			in, out := draw(), draw()
			var want error
			if _, ok := ref.direct[in]; ok {
				want = fmt.Errorf("routing: input %+v already mapped", in)
			} else if _, ok := ref.reverse[out]; ok {
				want = fmt.Errorf("routing: output %+v already mapped", out)
			} else {
				ref.direct[in], ref.reverse[out] = out, in
			}
			got := m.Map(in, out)
			if (got == nil) != (want == nil) || got != nil && got.Error() != want.Error() {
				t.Fatalf("%v: Map(%+v, %+v) = %v, want %v", g, in, out, got, want)
			}
			if small && op%97 == 0 {
				checkChannelMap(t, m, ref)
			}
		}
		checkChannelMap(t, m, ref)
	}
}

// TestDistsMatchShortestDists holds the distance table to a fresh BFS per
// source on a mesh, a fat tree and a dragonfly, healthy and with links
// failed and restored one at a time: every Between and every Profitable
// must equal what topology.ShortestDists implies, and Recompute must
// allocate nothing.
func TestDistsMatchShortestDists(t *testing.T) {
	mesh, _ := topology.Mesh(4, 3, 4)
	tree, err := topology.FatTree(4)
	if err != nil {
		t.Fatal(err)
	}
	fly, err := topology.Dragonfly(3, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(5))
	for _, tp := range []*topology.Topology{mesh, tree, fly} {
		d := NewDists(tp)
		check := func(when string) {
			t.Helper()
			for s := 0; s < tp.Nodes; s++ {
				want := tp.ShortestDists(s)
				for x := 0; x < tp.Nodes; x++ {
					if got := d.Between(s, x); got != want[x] {
						t.Fatalf("%s %s: Between(%d,%d) = %d, want %d", tp.Shape().Kind, when, s, x, got, want[x])
					}
				}
			}
			for n := 0; n < tp.Nodes; n++ {
				dn := tp.ShortestDists(n)
				for p := 0; p < tp.Ports; p++ {
					m := tp.Neighbor(n, p)
					var dm []int
					if m >= 0 {
						dm = tp.ShortestDists(m)
					}
					for dest := 0; dest < tp.Nodes; dest++ {
						want := m >= 0 && dm[dest] >= 0 && dm[dest] < dn[dest]
						if got := d.Profitable(tp, n, p, dest); got != want {
							t.Fatalf("%s %s: Profitable(%d,%d,%d) = %v, want %v", tp.Shape().Kind, when, n, p, dest, got, want)
						}
					}
				}
			}
		}
		check("healthy")
		if allocs := testing.AllocsPerRun(5, func() { d.Recompute(tp) }); allocs != 0 {
			t.Fatalf("%s: Recompute allocates %.1f times", tp.Shape().Kind, allocs)
		}
		var down []topology.Link
		for step := 0; step < 12; step++ {
			if len(down) > 0 && (rng.Intn(3) == 0 || len(down) == 4) {
				l := down[len(down)-1]
				down = down[:len(down)-1]
				if err := tp.SetLinkUp(l.A, l.APort, true); err != nil {
					t.Fatal(err)
				}
			} else {
				l := tp.Links[rng.Intn(len(tp.Links))]
				if !tp.LinkUp(l.A, l.APort) {
					continue
				}
				if err := tp.SetLinkUp(l.A, l.APort, false); err != nil {
					t.Fatal(err)
				}
				down = append(down, l)
			}
			d.Recompute(tp)
			check(fmt.Sprintf("step %d (%d links down)", step, len(down)))
		}
	}
}
