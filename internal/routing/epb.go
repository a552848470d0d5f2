package routing

import (
	"fmt"
	"math/bits"

	"mmr/internal/topology"
)

// Dists is an all-pairs hop-distance table over a topology, the basis for
// "profitable" (minimal-path) decisions. It is one flat table, row a
// holding the distances from node a, that Recompute refills in place.
//
// Recompute runs every source's breadth-first search at once, bit-parallel
// (multi-source BFS, as in Then et al., "The More the Merrier", VLDB 2014):
// each node keeps a bitset of the sources that have reached it and one of
// those that reached it at the last level, and its next frontier is the OR
// of its neighbours' frontiers minus the sources it has already seen. A
// level then costs a few word operations per up link, not a queue walk per
// source, and the scratch — a flat adjacency of the up links and three
// bitsets per node — is sized once, so a refresh allocates nothing.
type Dists struct {
	nodes, words int
	d            []int32 // d[a*nodes+b]: hops from a to b, -1 if unreachable

	// Recompute's scratch: node a's up-link neighbours are nbr[off[a]:off[a+1]];
	// seen, front and next hold words uint64s per node, bit s for source s.
	off, nbr          []int32
	seen, front, next []uint64
}

// NewDists computes the distances between every pair of nodes.
func NewDists(t *topology.Topology) *Dists {
	n, w := t.Nodes, (t.Nodes+63)/64
	d := &Dists{
		nodes: n, words: w, d: make([]int32, n*n),
		off: make([]int32, n+1), nbr: make([]int32, 0, n*t.Ports),
		seen: make([]uint64, n*w), front: make([]uint64, n*w), next: make([]uint64, n*w),
	}
	d.Recompute(t)
	return d
}

// Recompute refreshes the table after a topology change (a link failing
// or being restored): distances follow only the currently-up links, so
// minimal-path searches route around failures. A link is up in both
// directions or in neither, so the hops from a to s equal those from s to
// a, and the level at which source s first reaches node a fills entry
// (a, s). It allocates nothing.
func (d *Dists) Recompute(t *topology.Topology) {
	n, w := d.nodes, d.words
	d.nbr = d.nbr[:0]
	for a := 0; a < n; a++ {
		d.off[a] = int32(len(d.nbr))
		for p := 0; p < t.Ports; p++ {
			if m := t.Neighbor(a, p); m >= 0 {
				d.nbr = append(d.nbr, int32(m))
			}
		}
	}
	d.off[n] = int32(len(d.nbr))

	for i := range d.d {
		d.d[i] = -1
	}
	clear(d.seen)
	for a := 0; a < n; a++ {
		d.d[a*n+a] = 0
		d.seen[a*w+a/64] = 1 << (a % 64)
	}
	copy(d.front, d.seen)
	for level, grew := int32(1), true; grew; level++ {
		grew = false
		for a := 0; a < n; a++ {
			next, seen, row := d.next[a*w:(a+1)*w], d.seen[a*w:(a+1)*w], d.d[a*n:(a+1)*n]
			clear(next)
			for _, m := range d.nbr[d.off[a]:d.off[a+1]] {
				for i, f := range d.front[int(m)*w : int(m+1)*w] {
					next[i] |= f
				}
			}
			for i, x := range next {
				x &^= seen[i]
				next[i], seen[i] = x, seen[i]|x
				grew = grew || x != 0
				for ; x != 0; x &= x - 1 {
					row[i*64+bits.TrailingZeros64(x)] = level
				}
			}
		}
		d.front, d.next = d.next, d.front
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
