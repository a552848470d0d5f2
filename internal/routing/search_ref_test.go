package routing

import (
	"fmt"
	"reflect"
	"testing"

	"mmr/internal/sim"
	"mmr/internal/topology"
)

// referenceSearch is the map-based EPB search SearchInto replaced: one
// history store per node, keyed by node, created on first visit and
// deleted when the probe backtracks off it. Kept as the oracle the
// stack-of-histories stepper is checked against.
func referenceSearch(t *topology.Topology, d *Dists, src, dest int,
	reserve func(node, port int) bool, release func(node, port int)) (*SearchResult, error) {

	if src < 0 || src >= t.Nodes || dest < 0 || dest >= t.Nodes {
		return nil, fmt.Errorf("routing: endpoints (%d,%d) out of range", src, dest)
	}
	res := &SearchResult{}
	if src == dest {
		return res, nil
	}
	hist := map[int]*History{src: {}}
	node := src
	for {
		canUse := func(p int) bool { return reserve == nil || reserve(node, p) }
		port, ok := EPBStep(t, d, node, dest, hist[node], canUse)
		if ok {
			res.Path = append(res.Path, PathHop{Node: node, Port: port})
			res.Visited++
			node = t.Neighbor(node, port)
			if node == dest {
				return res, nil
			}
			if hist[node] == nil {
				hist[node] = &History{}
			}
			continue
		}
		delete(hist, node)
		if node == src {
			return nil, fmt.Errorf("routing: no minimal path with free resources from %d to %d", src, dest)
		}
		last := res.Path[len(res.Path)-1]
		res.Path = res.Path[:len(res.Path)-1]
		if release != nil {
			release(last.Node, last.Port)
		}
		res.Backtracks++
		node = last.Node
	}
}

// searchCall is one resource callback as the search issued it.
type searchCall struct {
	reserve    bool
	node, port int
	granted    bool
}

// searchCase derives a topology, a set of failed links and a stream of
// src/dest pairs with per-hop refusal masks from a seed, and checks that
// SearchInto — one scratch reused across every search — agrees with
// referenceSearch on the outcome, the path, the counters and the exact
// sequence of reserve/release calls. It returns how many backtracks and
// failed searches the case contained.
func searchCase(t *testing.T, seed uint64, kind uint8, searches uint8) (backtracks, failures int) {
	rng := sim.NewRNG(seed)
	var tp *topology.Topology
	var err error
	switch kind % 3 {
	case 0:
		tp, err = topology.Irregular(10+rng.Intn(14), 6, 3, rng)
	case 1:
		tp, err = topology.Mesh(2+rng.Intn(4), 2+rng.Intn(4), 6)
	default:
		tp, err = topology.FatTree(4)
	}
	if err != nil {
		t.Skip(err)
	}
	// A few dead links make unreachable pairs and longer detours.
	for i := rng.Intn(4); i > 0; i-- {
		n, p := rng.Intn(tp.Nodes), rng.Intn(tp.Ports)
		if tp.Wired(n, p) >= 0 {
			tp.SetLinkUp(n, p, false)
		}
	}
	d := NewDists(tp)
	scr := NewSearchScratch(tp.Nodes)
	for i := 0; i < 1+int(searches%16); i++ {
		src, dest := rng.Intn(tp.Nodes), rng.Intn(tp.Nodes)
		refuse := rng.Uint64() & rng.Uint64() // a quarter of the (node, port) slots refuse
		run := func(search func(reserve func(int, int) bool, release func(int, int)) (*SearchResult, error)) ([]searchCall, SearchResult, error) {
			var calls []searchCall
			res, err := search(
				func(n, p int) bool {
					ok := refuse&(1<<uint((n*7+p)%64)) == 0
					calls = append(calls, searchCall{reserve: true, node: n, port: p, granted: ok})
					return ok
				},
				func(n, p int) { calls = append(calls, searchCall{node: n, port: p}) })
			if err != nil {
				return calls, SearchResult{}, err
			}
			return calls, SearchResult{Path: append([]PathHop(nil), res.Path...), Backtracks: res.Backtracks, Visited: res.Visited}, nil
		}
		wantCalls, want, wantErr := run(func(rv func(int, int) bool, rl func(int, int)) (*SearchResult, error) {
			return referenceSearch(tp, d, src, dest, rv, rl)
		})
		gotCalls, got, gotErr := run(func(rv func(int, int) bool, rl func(int, int)) (*SearchResult, error) {
			return SearchInto(tp, d, src, dest, rv, rl, scr)
		})
		if (wantErr == nil) != (gotErr == nil) || (wantErr != nil && wantErr.Error() != gotErr.Error()) {
			t.Fatalf("search %d (%d→%d): error %v, reference %v", i, src, dest, gotErr, wantErr)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("search %d (%d→%d): result %+v, reference %+v", i, src, dest, got, want)
		}
		if !reflect.DeepEqual(gotCalls, wantCalls) {
			t.Fatalf("search %d (%d→%d): callback sequence\n %+v\nreference\n %+v", i, src, dest, gotCalls, wantCalls)
		}
		backtracks += want.Backtracks
		if wantErr != nil {
			failures++
		}
	}
	return backtracks, failures
}

func TestSearchIntoMatchesReference(t *testing.T) {
	backtracks, failures := 0, 0
	for seed := uint64(1); seed <= 300; seed++ {
		b, f := searchCase(t, seed, uint8(seed), uint8(seed>>2))
		backtracks, failures = backtracks+b, failures+f
	}
	if backtracks == 0 || failures == 0 {
		t.Fatalf("cases too easy to tell the searches apart: %d backtracks, %d failed searches", backtracks, failures)
	}
}

func FuzzSearchIntoMatchesReference(f *testing.F) {
	f.Add(uint64(1), uint8(0), uint8(3))
	f.Add(uint64(7), uint8(1), uint8(9))
	f.Add(uint64(42), uint8(2), uint8(15))
	f.Fuzz(func(t *testing.T, seed uint64, kind, searches uint8) { searchCase(t, seed, kind, searches) })
}
