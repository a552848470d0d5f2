package network

import (
	"fmt"
	"math"
	"reflect"
	"strings"
	"testing"

	"mmr/internal/flit"
	"mmr/internal/router"
	"mmr/internal/topology"
	"mmr/internal/traffic"
)

// openAs is one synchronous attempt through OpenRequest on behalf of a
// tenant, with the outcome returned the way Open returns it.
func openAs(n *Network, tenant string, src, dst int, spec traffic.ConnSpec) (c *Conn, err error) {
	verr := n.OpenRequest(OpenReq{Src: src, Dst: dst, Spec: spec, Tenant: tenant}, FormOnce,
		func(cc *Conn, e error) { c, err = cc, e })
	if verr != nil {
		return nil, verr
	}
	return c, err
}

// heldResources is what establishment takes from the fabric: free VCs
// per input port and guaranteed load per output port, host ports
// included.
type heldResources struct {
	free []int
	load []float64
}

func snapshotHeld(n *Network) heldResources {
	var h heldResources
	for node := range n.nodes {
		for port := range n.nodes[node].Mems {
			h.free = append(h.free, n.FreeVCsAt(node, port))
			h.load = append(h.load, n.GuaranteedLoadAt(node, port))
		}
	}
	return h
}

// portTo is the port of a wired to b.
func portTo(t *testing.T, tp *topology.Topology, a, b int) int {
	t.Helper()
	for p := 0; p < tp.Ports; p++ {
		if tp.Wired(a, p) == b {
			return p
		}
	}
	t.Fatalf("no link %d→%d", a, b)
	return -1
}

// TestEstablishmentLeavesNoHolds drives each reservation shape — the
// fixed candidate path, the EPB search — into each way an establishment
// can end without a session, and asserts the fabric is exactly as it was
// before the attempt: the invariants hold, and every port has its VCs and
// bandwidth back.
func TestEstablishmentLeavesNoHolds(t *testing.T) {
	// Both fabrics put 4 hops between the endpoints: a 5-router chain
	// (one path, so one blocked link refuses the attempt) and opposite
	// corners of a 3×3 mesh (six minimal paths to search and back out of).
	chain, mesh := []int{0, 1, 2, 3, 4}, []int{0, 1, 2, 5, 8}
	spec := traffic.ConnSpec{Class: flit.ClassCBR, Rate: 100 * traffic.Mbps}

	type scenario struct {
		name  string
		chain bool // run on the chain instead of the mesh
		// arrange prepares the fabric before the baseline snapshot.
		arrange func(t *testing.T, n *Network)
		hookAt  int // panic inside the hookAt-th per-hop reservation (1-based)
		wantErr string
	}
	var scenarios []scenario
	for k := 1; k < len(chain)-1; k++ {
		scenarios = append(scenarios, scenario{
			name: fmt.Sprintf("refusal at hop %d", k), chain: true,
			// Sessions from k to k+1 hold every VC of that link.
			arrange: func(t *testing.T, n *Network) {
				for i := 0; i < n.cfg.VCs; i++ {
					if _, err := n.Open(k, k+1, traffic.ConnSpec{Class: flit.ClassCBR, Rate: traffic.Mbps}); err != nil {
						t.Fatal(err)
					}
				}
			},
			wantErr: "no minimal path",
		})
	}
	scenarios = append(scenarios, scenario{
		name: "refusal at ejection",
		// Fill the destination's host port over both links into it, until
		// it admits no session of the attempt's rate.
		arrange: func(t *testing.T, n *Network) {
			for _, mbps := range []traffic.Rate{300, 100} {
				for i := 0; ; i++ {
					if _, err := n.Open([]int{5, 7}[i%2], 8, traffic.ConnSpec{Class: flit.ClassCBR, Rate: mbps * traffic.Mbps}); err != nil {
						break
					}
				}
			}
		},
		wantErr: "destination host port",
	})
	for k := 1; k <= 4; k++ {
		scenarios = append(scenarios, scenario{name: fmt.Sprintf("panic in reservation %d", k), hookAt: k})
	}

	for _, sc := range scenarios {
		for _, shape := range []string{"fixed", "epb"} {
			t.Run(sc.name+"/"+shape, func(t *testing.T) {
				route, w, h := mesh, 3, 3
				if sc.chain {
					route, w, h = chain, 5, 1
				}
				src, dst := route[0], route[len(route)-1]
				tp, err := topology.Mesh(w, h, 4)
				if err != nil {
					t.Fatal(err)
				}
				cfg := DefaultConfig(tp)
				cfg.VCs = 4
				n, err := New(cfg)
				if err != nil {
					t.Fatal(err)
				}
				if sc.arrange != nil {
					sc.arrange(t, n)
				}
				before, conns := snapshotHeld(n), len(n.conns)

				if sc.hookAt > 0 {
					calls := 0
					searchHook = func() {
						if calls++; calls == sc.hookAt {
							panic("injected reservation fault")
						}
					}
					defer func() { searchHook = nil }()
				}
				req := OpenReq{Src: src, Dst: dst, Spec: spec, Tenant: "t"}
				var outcome error
				panicked := func() (panicked bool) {
					defer func() { panicked = recover() != nil }()
					switch shape {
					case "fixed":
						ports := make([]int, len(route)-1)
						for i := range ports {
							ports[i] = portTo(t, tp, route[i], route[i+1])
						}
						l := &n.sync
						l.begin(n, req, n.demandFor(spec))
						outcome = l.try(func() error { return l.along(ports) })
					case "epb":
						_, outcome = openAs(n, req.Tenant, src, dst, spec)
					}
					return false
				}()
				searchHook = nil
				if panicked != (sc.hookAt > 0) {
					t.Fatalf("panicked = %v, want %v", panicked, sc.hookAt > 0)
				}
				switch {
				case panicked:
				case outcome == nil:
					t.Fatal("the attempt established a session")
				case shape != "fixed" && !strings.Contains(outcome.Error(), sc.wantErr):
					t.Fatalf("refused with %q, want %q", outcome, sc.wantErr)
				}
				if err := n.CheckInvariants(); err != nil {
					t.Fatal(err)
				}
				if after := snapshotHeld(n); !reflect.DeepEqual(before, after) {
					t.Fatalf("holds leaked:\\n before %v\\n after  %v", before, after)
				}
				if len(n.conns) != conns {
					t.Fatalf("%d sessions registered by a failed attempt", len(n.conns)-conns)
				}
			})
		}
	}
}

// raceEnabled is set by race_test.go when the race detector is compiled in.
var raceEnabled bool

// TestOpenWarmAllocs bounds what a single Open allocates once the arenas
// and the ledger have grown: the traffic source, and nothing per hop.
func TestOpenWarmAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("a build with the race detector allocates 5 times here, one without it at most 2; the bound is for the latter")
	}
	tp, err := topology.FatTree(4)
	if err != nil {
		t.Fatal(err)
	}
	n, err := New(DefaultConfig(tp))
	if err != nil {
		t.Fatal(err)
	}
	spec := traffic.ConnSpec{Class: flit.ClassCBR, Rate: 8 * traffic.Mbps}
	i := 0
	openClose := func() {
		c, err := n.Open(i%8, 8+i%8, spec)
		if err != nil {
			t.Fatal(err)
		}
		if err := n.Close(c); err != nil {
			t.Fatal(err)
		}
		i++
	}
	for k := 0; k < 100; k++ {
		openClose()
	}
	// Amortized arena chunks and slice growth stay below one allocation
	// per call; the parent's map-based search made this 19.
	if got := testing.AllocsPerRun(2000, openClose); got > 2 {
		t.Fatalf("warm Open+Close allocates %.1f times, want at most 2", got)
	}
}

// TestOpenCarvesStorageByChunk guards the Open path against paying an
// allocation per port for VC storage: the same opens across ports no VC was
// ever reserved on allocate, beyond what they allocate on a twin whose every
// port already holds storage, one chunk — its records and its flit slots —
// per 128 ports they give storage to, at most.
func TestOpenCarvesStorageByChunk(t *testing.T) {
	const k, perCall, chunkPorts = 16, 96, 128
	tp, err := topology.FatTree(k)
	if err != nil {
		t.Fatal(err)
	}
	// The warm-up call opens sessions among the edge routers of the first
	// half of the pods, the measured one among those of the second, which
	// nothing has crossed yet.
	edge := func(half, j int) int { return (half*k/2+j/(k/2)%(k/2))*k + j%(k/2) }
	session := func(i int) (src, dst int) {
		half := i / perCall % 2
		return edge(half, i), edge(half, 5*i+3)
	}
	spec := traffic.ConnSpec{Class: flit.ClassCBR, Rate: 8 * traffic.Mbps}
	allocs := func(warm bool) (perRun float64, fresh int) {
		n, err := New(DefaultConfig(tp))
		if err != nil {
			t.Fatal(err)
		}
		for _, nd := range n.nodes {
			for _, mem := range nd.Mems {
				if warm {
					mem.Materialize()
				}
			}
		}
		next := 0
		perRun = testing.AllocsPerRun(1, func() {
			had := materializedPorts(n)
			for range perCall {
				src, dst := session(next)
				if _, err := n.Open(src, dst, spec); err != nil {
					t.Fatal(err)
				}
				next++
			}
			fresh = materializedPorts(n) - had
		})
		return perRun, fresh
	}
	// An allocation of the runtime's own now and then lands in one
	// measurement (2 in about 1 run of 12); the least of three is the opens'.
	least := func(warm bool) (perRun float64, fresh int) {
		perRun = math.Inf(1)
		for range 3 {
			a, f := allocs(warm)
			perRun, fresh = min(perRun, a), f
		}
		return perRun, fresh
	}
	warm, _ := least(true)
	cold, fresh := least(false)
	chunks := (fresh + chunkPorts - 1) / chunkPorts
	t.Logf("%d opens: %.0f allocations on storage-holding ports, %.0f across %d ports given storage", perCall, warm, cold, fresh)
	if fresh <= chunkPorts {
		t.Fatalf("degenerate: the opens gave only %d ports storage", fresh)
	}
	if extra := cold - warm; extra > float64(2*chunks) {
		t.Errorf("giving %d ports storage cost %.0f allocations, more than %d chunks' %d", fresh, extra, chunks, 2*chunks)
	}
}

// TestAdmissionRefusesNonFiniteRates: a rate or a VBR peak that is not
// finite, or whose flit cycles per round overflow, is refused wherever a
// demand is admitted — establishment and renegotiation, by the single
// router under both admission modes and by the fabric — and leaves every
// register as it was. GuaranteedCyclesFor prices such a rate (a peak is
// not its to price) above any round.
func TestAdmissionRefusesNonFiniteRates(t *testing.T) {
	const ok = 10 * traffic.Mbps
	for _, bad := range []traffic.Rate{1e300 * traffic.Mbps, traffic.Rate(math.Inf(1)), traffic.Rate(math.NaN())} {
		specs := map[string]traffic.ConnSpec{
			"CBR":      {Class: flit.ClassCBR, Rate: bad, In: 0, Out: 1},
			"VBR peak": {Class: flit.ClassVBR, Rate: ok, PeakRate: bad, In: 0, Out: 1},
			"VBR rate": {Class: flit.ClassVBR, Rate: bad, PeakRate: bad, In: 0, Out: 1},
		}
		for _, mode := range []router.AdmissionMode{router.AdmitRate, router.AdmitAllocation} {
			cfg := router.PaperConfig()
			cfg.Admission = mode
			r, err := router.New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			for name, spec := range specs {
				if _, err := r.Establish(spec); err == nil {
					t.Errorf("router (%v admission): %s at %v established", mode, name, float64(bad))
				}
			}
			good, err := r.Establish(traffic.ConnSpec{Class: flit.ClassCBR, Rate: ok, In: 0, Out: 1})
			if err != nil {
				t.Fatal(err)
			}
			load := r.Allocator(1).GuaranteedLoad()
			if err := r.SetBandwidth(good, bad); err == nil {
				t.Errorf("router (%v admission): SetBandwidth to %v accepted", mode, float64(bad))
			}
			if a := r.Allocator(1); a.GuaranteedLoad() != load || a.Connections() != 1 {
				t.Errorf("router (%v admission): refusals moved output 1 to load %v, %d connections", mode, a.GuaranteedLoad(), a.Connections())
			}
		}

		tp, err := topology.Mesh(3, 3, 4)
		if err != nil {
			t.Fatal(err)
		}
		cfg := DefaultConfig(tp)
		n, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		for name, spec := range specs {
			if _, err := n.Open(0, 8, spec); err == nil {
				t.Errorf("fabric: %s at %v established", name, float64(bad))
			}
			if got := n.GuaranteedCyclesFor(spec); name != "VBR peak" && got <= cfg.K*cfg.VCs {
				t.Errorf("fabric: %s at %v is priced %d cycles/round, within a %d-cycle round", name, float64(bad), got, cfg.K*cfg.VCs)
			}
		}
		c, err := n.Open(0, 8, traffic.ConnSpec{Class: flit.ClassCBR, Rate: ok})
		if err != nil {
			t.Fatal(err)
		}
		held := snapshotHeld(n)
		if err := n.ModifyBandwidth(c, bad); err == nil {
			t.Errorf("fabric: ModifyBandwidth to %v accepted", float64(bad))
		}
		if c.Spec.Rate != ok || !reflect.DeepEqual(held, snapshotHeld(n)) {
			t.Errorf("fabric: a refused ModifyBandwidth to %v moved the connection or the registers", float64(bad))
		}
		if err := n.CheckInvariants(); err != nil {
			t.Error(err)
		}
	}
}
