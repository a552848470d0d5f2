package routing

import (
	"mmr/internal/sim"
	"mmr/internal/topology"
)

// multipath.go layers Valiant and UGAL path selection over the up*/down*
// orientation, in the style of sst-macro's multipath_router: the
// multipath layer only *chooses among* candidate paths, while legality
// (deadlock freedom) still comes entirely from the underlying routing
// discipline. A Valiant candidate is a short random walk over the legal
// safe ports (NextPorts — misroutes allowed) to an implicit random
// intermediate, followed by a randomized minimal descent to the
// destination; every hop is drawn from NextPorts, so the whole path is
// a legal up*/down* route and spreading never weakens the
// deadlock-freedom argument. On fat trees the detour randomizes over
// the aggregation/core plane exactly like classic Valiant load
// balancing; on dragonflies it randomizes the global channel taken out
// of the source group.

// RouteMode selects how connection establishment picks candidate paths.
type RouteMode int

const (
	// RouteMinimal is the existing behavior: EPB searches the minimal
	// paths exhaustively and takes the first that reserves (§3.5).
	RouteMinimal RouteMode = iota
	// RouteValiant routes via a random intermediate reached by an up*
	// walk (Valiant load balancing), then descends up*/down* to the
	// destination. Non-minimal, but spreads load across the fabric core.
	RouteValiant
	// RouteUGAL chooses per connection between the minimal route and a
	// Valiant detour by comparing load-weighted path costs (Universal
	// Globally-Adaptive Load-balancing, Singh et al.).
	RouteUGAL
)

// String names the mode for flags and status reports.
func (m RouteMode) String() string {
	switch m {
	case RouteValiant:
		return "valiant"
	case RouteUGAL:
		return "ugal"
	default:
		return "minimal"
	}
}

// Multipath generates candidate port paths for connection establishment.
// It is stateless between calls except for reusable scratch, so one
// instance serves a whole network; it is not safe for concurrent use.
type Multipath struct {
	t  *topology.Topology
	d  *Dists
	ud *UpDown

	// trials bounds how many random walks Valiant tries before falling
	// back to the minimal route; maxDetour bounds the misroute prefix
	// of each walk (the "distance" to the implicit intermediate).
	trials    int
	maxDetour int

	visited []int64 // per-node visit stamps for loop rejection
	stamp   int64
	scratch []int
}

// NewMultipath builds a path generator over an existing orientation.
func NewMultipath(t *topology.Topology, d *Dists, ud *UpDown) *Multipath {
	return &Multipath{t: t, d: d, ud: ud, trials: 4, maxDetour: 3, visited: make([]int64, t.Nodes)}
}

// Valiant returns a randomized-detour route: a misroute prefix of
// random length (uniform draws over all legal safe ports, minimal or
// not — the implicit Valiant intermediate is wherever the prefix ends)
// followed by a randomized minimal descent to dst. Every hop comes from
// NextPorts, so the result is always a legal up*/down* route that never
// strands the packet; walks that would revisit a node are abandoned and
// retried, and after `trials` failures the deterministic minimal route
// is returned instead. All draws come from rng, so path choice is a
// pure function of the RNG stream (deterministic per seed).
func (mp *Multipath) Valiant(src, dst int, rng *sim.RNG) []int {
	if src == dst {
		return []int{}
	}
	for try := 0; try < mp.trials; try++ {
		if path := mp.valiantOnce(src, dst, rng); path != nil {
			return path
		}
	}
	return mp.ud.Route(src, dst)
}

func (mp *Multipath) valiantOnce(src, dst int, rng *sim.RNG) []int {
	detour := rng.Intn(mp.maxDetour + 1)
	path := make([]int, 0, detour+4)
	mp.stamp++
	mp.visited[src] = mp.stamp
	node, wentDown := src, false
	for hops := 0; node != dst; hops++ {
		if hops >= mp.t.Nodes {
			return nil // every hop visits a fresh node, so this is unreachable
		}
		// Legal safe ports, profitable first; drop ports that lead to a
		// node already on the walk (a looping candidate would reserve
		// two VCs on one router for a single connection, which the
		// node/port-keyed establishment bookkeeping does not model).
		mp.scratch = mp.ud.NextPorts(node, dst, wentDown, mp.scratch[:0])
		fresh := mp.scratch[:0]
		profitable := 0
		for _, p := range mp.scratch {
			m := mp.t.Neighbor(node, p)
			if mp.visited[m] == mp.stamp {
				continue
			}
			fresh = append(fresh, p)
			if mp.d.Profitable(mp.t, node, p, dst) {
				profitable++
			}
		}
		if len(fresh) == 0 {
			return nil // walked into a corner; retry with a new draw
		}
		var p int
		if hops < detour {
			p = fresh[rng.Intn(len(fresh))] // misroute phase: any legal port
		} else if profitable > 0 {
			p = fresh[rng.Intn(profitable)] // descent: random minimal port
		} else {
			p = fresh[0] // no minimal choice left; take the safe one
		}
		if !mp.ud.IsUp(node, p) {
			wentDown = true
		}
		path = append(path, p)
		node = mp.t.Neighbor(node, p)
		mp.visited[node] = mp.stamp
	}
	return path
}

// Choose returns the candidate path for one establishment attempt under
// the given mode. load reports the first-hop congestion estimate
// (guaranteed bandwidth fraction on node's output port) UGAL weighs
// paths by; it may be nil, in which case UGAL degenerates to shortest
// candidate. A nil return means no legal route exists and the caller
// should fall back to the EPB search.
func (mp *Multipath) Choose(mode RouteMode, src, dst int, rng *sim.RNG, load func(node, port int) float64) []int {
	switch mode {
	case RouteValiant:
		return mp.Valiant(src, dst, rng)
	case RouteUGAL:
		min := mp.ud.Route(src, dst)
		val := mp.Valiant(src, dst, rng)
		return mp.ugalPick(src, min, val, load)
	default:
		return mp.ud.Route(src, dst)
	}
}

// ugalPick implements the UGAL comparison: cost = (1 + first-hop load) ×
// hop count, minimal route winning ties — the same "minimal unless the
// queue says otherwise" rule as sst-macro's multipath_valiant template,
// with admission-guaranteed bandwidth standing in for queue depth.
func (mp *Multipath) ugalPick(src int, min, val []int, load func(node, port int) float64) []int {
	if min == nil {
		return val
	}
	if val == nil || len(val) == 0 || len(min) == 0 {
		return min
	}
	cost := func(path []int) float64 {
		c := float64(len(path))
		if load != nil {
			c *= 1 + load(src, path[0])
		}
		return c
	}
	if cost(val) < cost(min) {
		return val
	}
	return min
}
