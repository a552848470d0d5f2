package routing

import (
	"fmt"

	"mmr/internal/topology"
)

// Dists is an all-pairs hop-distance table over a topology, the basis for
// "profitable" (minimal-path) decisions. It is one flat table, row a
// holding the distances from node a, that Recompute refills in place.
type Dists struct {
	nodes int
	d     []int32 // d[a*nodes+b]: hops from a to b, -1 if unreachable
	queue []int32 // BFS scratch
}

// NewDists precomputes BFS distances from every node.
func NewDists(t *topology.Topology) *Dists {
	d := &Dists{nodes: t.Nodes, d: make([]int32, t.Nodes*t.Nodes), queue: make([]int32, t.Nodes)}
	d.Recompute(t)
	return d
}

// Recompute refreshes the table after a topology change (a link failing
// or being restored): distances follow only the currently-up links, so
// minimal-path searches route around failures. It allocates nothing.
func (d *Dists) Recompute(t *topology.Topology) {
	for s := 0; s < d.nodes; s++ {
		row := d.d[s*d.nodes : (s+1)*d.nodes]
		for i := range row {
			row[i] = -1
		}
		row[s] = 0
		q := append(d.queue[:0], int32(s))
		for head := 0; head < len(q); head++ {
			n := int(q[head])
			for p := 0; p < t.Ports; p++ {
				if m := t.Neighbor(n, p); m >= 0 && row[m] < 0 {
					row[m] = row[n] + 1
					q = append(q, int32(m))
				}
			}
		}
	}
}

// Between returns the hop distance from a to b (-1 if unreachable).
func (d *Dists) Between(a, b int) int { return int(d.d[a*d.nodes+b]) }

// Profitable reports whether taking port p from node n moves strictly
// closer to dest — the EPB definition of a profitable link ("an
// exhaustive search of the minimal paths", §3.5).
func (d *Dists) Profitable(t *topology.Topology, n, p, dest int) bool {
	m := t.Neighbor(n, p)
	if m < 0 {
		return false
	}
	dm := d.d[m*d.nodes+dest]
	return dm >= 0 && dm < d.d[n*d.nodes+dest]
}

// EPBStep makes one routing decision for a probe at node n heading to
// dest: the first profitable output port not yet recorded in the history
// store and accepted by canUse (which tests VC and bandwidth
// availability, §4.2). It returns (port, true) to advance, or (-1, false)
// to backtrack — every profitable link from n has been searched.
func EPBStep(t *topology.Topology, d *Dists, n, dest int, h *History, canUse func(port int) bool) (int, bool) {
	for p := 0; p < t.Ports; p++ {
		if h.Searched(p) || !d.Profitable(t, n, p, dest) {
			continue
		}
		h.Mark(p)
		if canUse == nil || canUse(p) {
			return p, true
		}
	}
	return -1, false
}

// PathHop is one reserved hop of an EPB search: the node and the output
// port taken from it.
type PathHop struct {
	Node, Port int
}

// SearchResult reports an EPB search.
type SearchResult struct {
	Path       []PathHop // hops from src to dest (empty if src == dest)
	Backtracks int       // how many times the probe backed up
	Visited    int       // total forward hops taken, including undone ones
}

// SearchScratch is the state of one EPB search: the hops behind the
// probe and one history store per node on that path — in hardware this
// state lives with the input VC the probe occupies (§3.5). A minimal path
// never revisits a node, so the stores form a stack that grows and
// shrinks with the path, and a node the probe backtracked off and later
// re-enters starts a fresh exhaustive scan. The zero value is ready to
// use, and one scratch serves any number of searches in turn without
// allocating once its slices have grown to the longest path met.
type SearchScratch struct {
	hist []History // hist[i] belongs to the node at depth i of the path
	res  SearchResult
}

// NewSearchScratch returns an empty scratch. The argument (the order of
// the topology) is unused — the state is O(path), not O(nodes) — and is
// kept for callers written against the earlier flat-array scratch.
func NewSearchScratch(nodes int) *SearchScratch { return &SearchScratch{} }

// SearchInto runs the complete EPB protocol over a topology as a
// synchronous algorithm against caller-owned scratch: the probe advances
// over the first profitable link that reserves, backtracks — releasing
// the hop that led to the node — when a node's profitable links are
// exhausted, and fails only after backtracking past the source — at which
// point EPB has provably searched every minimal path (§3.5). reserve and
// release are the resource callbacks (nil to search topology-only);
// releases are LIFO by construction. The returned result aliases the
// scratch and is valid until its next search.
func SearchInto(t *topology.Topology, d *Dists, src, dest int,
	reserve func(node, port int) bool, release func(node, port int), scr *SearchScratch) (*SearchResult, error) {

	if src < 0 || src >= t.Nodes || dest < 0 || dest >= t.Nodes {
		return nil, fmt.Errorf("routing: endpoints (%d,%d) out of range", src, dest)
	}
	scr.hist = append(scr.hist[:0], History{})
	res := &scr.res
	*res = SearchResult{Path: res.Path[:0]}
	node := src
	canUse := func(p int) bool { return reserve == nil || reserve(node, p) }
	for node != dest {
		if port, ok := EPBStep(t, d, node, dest, &scr.hist[len(scr.hist)-1], canUse); ok {
			res.Path = append(res.Path, PathHop{Node: node, Port: port})
			res.Visited++
			node = t.Neighbor(node, port)
			scr.hist = append(scr.hist, History{})
			continue
		}
		if len(res.Path) == 0 {
			return nil, fmt.Errorf("routing: no minimal path with free resources from %d to %d", src, dest)
		}
		scr.hist = scr.hist[:len(scr.hist)-1]
		last := res.Path[len(res.Path)-1]
		res.Path = res.Path[:len(res.Path)-1]
		if release != nil {
			release(last.Node, last.Port)
		}
		res.Backtracks++
		node = last.Node
	}
	return res, nil
}
