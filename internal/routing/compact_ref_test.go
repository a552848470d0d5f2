package routing

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"mmr/internal/sim"
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
// source: on a mesh, a fat tree and a dragonfly of at most 20 nodes, where
// every source fits in one 64-bit word, and on FatTree(8) (80 nodes), tori of
// 64 and 65 nodes and an irregular fabric of 130, which cross one, two and
// three word boundaries. Each is checked healthy, after each of 32 random
// link flips, with one router cut off by every one of its links down (its
// entries read -1), and with those links back: every Between and every
// Profitable must equal what topology.ShortestDists implies, and Recompute
// must allocate nothing.
func TestDistsMatchShortestDists(t *testing.T) {
	must := func(tp *topology.Topology, err error) *topology.Topology {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		return tp
	}
	fabrics := []*topology.Topology{
		must(topology.Mesh(4, 3, 4)),
		must(topology.FatTree(4)),
		must(topology.Dragonfly(3, 1, 1)),
		must(topology.FatTree(8)),
		must(topology.Torus(8, 8, 4)),
		must(topology.Torus(13, 5, 4)),
		must(topology.Irregular(130, 6, 3, sim.NewRNG(9))),
	}
	rng := rand.New(rand.NewSource(5))
	for _, tp := range fabrics {
		name := fmt.Sprintf("%s(%d nodes)", tp.Shape().Kind, tp.Nodes)
		d := NewDists(tp)
		check := func(when string) {
			t.Helper()
			want := make([][]int, tp.Nodes)
			for s := range want {
				want[s] = tp.ShortestDists(s)
			}
			for s := 0; s < tp.Nodes; s++ {
				for x := 0; x < tp.Nodes; x++ {
					if got := d.Between(s, x); got != want[s][x] {
						t.Fatalf("%s %s: Between(%d,%d) = %d, want %d", name, when, s, x, got, want[s][x])
					}
				}
			}
			for n := 0; n < tp.Nodes; n++ {
				for p := 0; p < tp.Ports; p++ {
					m := tp.Neighbor(n, p)
					for dest := 0; dest < tp.Nodes; dest++ {
						want := m >= 0 && want[m][dest] >= 0 && want[m][dest] < want[n][dest]
						if got := d.Profitable(tp, n, p, dest); got != want {
							t.Fatalf("%s %s: Profitable(%d,%d,%d) = %v, want %v", name, when, n, p, dest, got, want)
						}
					}
				}
			}
		}
		check("healthy")
		if allocs := testing.AllocsPerRun(5, func() { d.Recompute(tp) }); allocs != 0 {
			t.Fatalf("%s: Recompute allocates %.1f times", name, allocs)
		}
		for step := 0; step < 32; step++ {
			l := tp.Links[rng.Intn(len(tp.Links))]
			if err := tp.SetLinkUp(l.A, l.APort, !tp.LinkUp(l.A, l.APort)); err != nil {
				t.Fatal(err)
			}
			d.Recompute(tp)
			check(fmt.Sprintf("flip %d (%d of %d links up)", step, tp.UpLinks(), len(tp.Links)))
		}

		// Cut one router off: every link it has goes down.
		r := rng.Intn(tp.Nodes)
		var cut []int
		for p := 0; p < tp.Ports; p++ {
			if tp.Wired(r, p) >= 0 && tp.LinkUp(r, p) {
				if err := tp.SetLinkUp(r, p, false); err != nil {
					t.Fatal(err)
				}
				cut = append(cut, p)
			}
		}
		d.Recompute(tp)
		check(fmt.Sprintf("router %d cut off", r))
		for x := 0; x < tp.Nodes; x++ {
			if x != r && (d.Between(r, x) != -1 || d.Between(x, r) != -1) {
				t.Fatalf("%s: router %d is cut off, yet Between(%d,%d) = %d and Between(%d,%d) = %d",
					name, r, r, x, d.Between(r, x), x, r, d.Between(x, r))
			}
		}
		for _, p := range cut {
			if err := tp.SetLinkUp(r, p, true); err != nil {
				t.Fatal(err)
			}
		}
		d.Recompute(tp)
		check(fmt.Sprintf("router %d back", r))
	}
}
