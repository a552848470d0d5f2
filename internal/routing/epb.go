package routing

import (
	"fmt"

	"mmr/internal/topology"
)

// Dists is an all-pairs hop-distance table over a topology, the basis for
// "profitable" (minimal-path) decisions.
type Dists struct {
	d [][]int
}

// NewDists precomputes BFS distances from every node.
func NewDists(t *topology.Topology) *Dists {
	d := &Dists{d: make([][]int, t.Nodes)}
	d.Recompute(t)
	return d
}

// Recompute refreshes the table after a topology change (a link failing
// or being restored): distances follow only the currently-up links, so
// minimal-path searches route around failures.
func (d *Dists) Recompute(t *topology.Topology) {
	for s := 0; s < t.Nodes; s++ {
		d.d[s] = t.ShortestDists(s)
	}
}

// Between returns the hop distance from a to b (-1 if unreachable).
func (d *Dists) Between(a, b int) int { return d.d[a][b] }

// Profitable reports whether taking port p from node n moves strictly
// closer to dest — the EPB definition of a profitable link ("an
// exhaustive search of the minimal paths", §3.5).
func (d *Dists) Profitable(t *topology.Topology, n, p, dest int) bool {
	m := t.Neighbor(n, p)
	return m >= 0 && d.d[m][dest] >= 0 && d.d[m][dest] < d.d[n][dest]
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

// SearchScratch is the state of one EPB probe: where it stands, the
// hops behind it and one history store per node on that path — in
// hardware this state lives with the input VC the probe occupies (§3.5).
// A minimal path never revisits a node, so the stores form a stack that
// grows and shrinks with the path, and a node the probe backtracked off
// and later re-enters starts a fresh exhaustive scan. The zero value is
// ready to use, and one scratch serves any number of searches in turn
// without allocating once its slices have grown to the longest path met.
type SearchScratch struct {
	node int
	hist []History // hist[i] belongs to the node at depth i of the path
	res  SearchResult
}

// NewSearchScratch returns an empty scratch. The argument (the order of
// the topology) is unused — the state is O(path), not O(nodes) — and is
// kept for callers written against the earlier flat-array scratch.
func NewSearchScratch(nodes int) *SearchScratch { return &SearchScratch{} }

// Begin places the probe at src with nothing searched.
func (s *SearchScratch) Begin(src int) {
	s.node = src
	s.hist = append(s.hist[:0], History{})
	s.res = SearchResult{Path: s.res.Path[:0]}
}

// Step is the outcome of one probe move.
type Step uint8

const (
	StepForward Step = iota // advanced one hop
	StepArrived             // advanced one hop, onto dest
	StepBack                // backtracked one hop, releasing it
	StepFailed              // backtracked past the source: no minimal path has resources
)

// Step moves the probe once: forward over the first profitable link
// that reserves, or — when every profitable link of the current node has
// been searched — back over the hop that led here, releasing it. reserve
// and release are the resource callbacks (nil to search topology-only).
// Releases are LIFO by construction: only the newest hop is ever undone.
// The synchronous SearchInto loops over Step; the event-driven probes of
// the network package take one Step per HopLatency cycles.
func (s *SearchScratch) Step(t *topology.Topology, d *Dists, dest int,
	reserve func(node, port int) bool, release func(node, port int)) Step {

	canUse := func(p int) bool { return reserve == nil || reserve(s.node, p) }
	if port, ok := EPBStep(t, d, s.node, dest, &s.hist[len(s.hist)-1], canUse); ok {
		s.res.Path = append(s.res.Path, PathHop{Node: s.node, Port: port})
		s.res.Visited++
		s.node = t.Neighbor(s.node, port)
		if s.node == dest {
			return StepArrived
		}
		s.hist = append(s.hist, History{})
		return StepForward
	}
	if len(s.res.Path) == 0 {
		return StepFailed
	}
	s.hist = s.hist[:len(s.hist)-1]
	last := s.res.Path[len(s.res.Path)-1]
	s.res.Path = s.res.Path[:len(s.res.Path)-1]
	if release != nil {
		release(last.Node, last.Port)
	}
	s.res.Backtracks++
	s.node = last.Node
	return StepBack
}

// SearchInto runs the complete EPB protocol over a topology as a
// synchronous algorithm against caller-owned scratch: the probe advances
// over profitable links that reserve successfully, backtracks when a
// node's profitable links are exhausted, and fails only after
// backtracking past the source — at which point EPB has provably
// searched every minimal path (§3.5). The returned result aliases the
// scratch and is valid until its next search.
func SearchInto(t *topology.Topology, d *Dists, src, dest int,
	reserve func(node, port int) bool, release func(node, port int), scr *SearchScratch) (*SearchResult, error) {

	if src < 0 || src >= t.Nodes || dest < 0 || dest >= t.Nodes {
		return nil, fmt.Errorf("routing: endpoints (%d,%d) out of range", src, dest)
	}
	scr.Begin(src)
	if src == dest {
		return &scr.res, nil
	}
	for {
		switch scr.Step(t, d, dest, reserve, release) {
		case StepArrived:
			return &scr.res, nil
		case StepFailed:
			return nil, fmt.Errorf("routing: no minimal path with free resources from %d to %d", src, dest)
		}
	}
}
