package network

import (
	"strconv"

	"mmr/internal/router"
	"mmr/internal/routing"
	"mmr/internal/traffic"
)

// batch.go is what batched establishment adds to the single request:
// admission pre-checks — per-source entry VCs, per-destination ejection
// headroom, per-region border-capacity aggregates — that reject provably
// doomed requests under minimal routing before any probe walks the
// fabric, and the chunked arenas every session's Conn record and
// Path/VCs/Nodes slices are carved from. Bringing up ~10⁶ sessions on a
// datacenter-scale fabric is the target workload; the search and its
// ledger are probe.go's.

// OpenResult reports one request's outcome: the established connection,
// or the error that rejected it.
type OpenResult struct {
	Conn *Conn
	Err  error
}

// precheckError is a deferred-format rejection: pre-checks sit on the
// batch fast path, so the message is only rendered when someone reads it,
// and without fmt, since callers that count refusals read every one.
type precheckError struct {
	kind precheckKind
	node int // or region
	rate traffic.Rate
	dir  string // border refusals: the cut that is full
}

type precheckKind uint8

const (
	precheckNoEntryVC precheckKind = iota
	precheckNoEjection
	precheckNoBorder
)

func (e *precheckError) Error() string {
	switch e.kind {
	case precheckNoEntryVC:
		return "network: no free VC on host port of node " + strconv.Itoa(e.node)
	case precheckNoEjection:
		return "network: destination host port of node " + strconv.Itoa(e.node) + " cannot admit " + e.rate.String()
	default:
		return "network: region " + strconv.Itoa(e.node) + " has no " + e.dir + " border capacity for " + e.rate.String()
	}
}

// connArena is where sessions' records live. Chunks are never moved or
// freed while any of their connections is referenced, so pointers into a
// chunk are stable for the life of the fabric.
type connArena struct {
	chunk []Conn
	hops  []routing.PathHop
	vcs   []routing.VCRef
	nodes []int
}

// precheckTables are one OpenBatch call's admission pre-check tables,
// derived lazily, per node touched.
type precheckTables struct {
	// freeVCs[src] counts down the unreserved VCs on src's host input
	// port (every accepted session consumes exactly one entry VC there);
	// ejHead[dst] counts down the guaranteed-cycle headroom of dst's host
	// output port (every accepted session consumes its allocation there).
	// Both are exact within the batch; -1 means not yet read.
	freeVCs []int32
	ejHead  []int32

	// Per-region border-capacity aggregates, built once per batch on the
	// first cross-region request.
	// outBorder[r] bounds the guaranteed cycles still admissible across
	// region r's outbound cut, inBorder[r] across its inbound cut. Both
	// are maintained as upper bounds of the true cut capacity, so
	// "aggregate < demand" proves every individual border link would
	// reject the demand.
	outBorder   []int64
	inBorder    []int64
	borderReady bool
}

// refit returns s emptied if it has room for need elements, else a
// zero-length, exact-capacity slice carved from *arena (a fresh chunk
// when the current one is exhausted). installPath appends exactly need,
// so a new connection's records land in the arena with no allocation of
// their own.
func refit[T any](s []T, arena *[]T, need int) []T {
	if cap(s) >= need {
		return s[:0]
	}
	if cap(*arena)-len(*arena) < need {
		*arena = make([]T, 0, max(4096, need))
	}
	base := len(*arena)
	*arena = (*arena)[:base+need]
	return (*arena)[base : base : base+need]
}

// conn carves one Conn record from the arena, 1024 to a chunk.
func (a *connArena) conn() *Conn {
	if len(a.chunk) == cap(a.chunk) {
		a.chunk = make([]Conn, 0, 1024)
	}
	a.chunk = a.chunk[:len(a.chunk)+1]
	return &a.chunk[len(a.chunk)-1]
}

func (n *Network) newPrecheckTables() *precheckTables {
	pre := &precheckTables{freeVCs: make([]int32, len(n.nodes)), ejHead: make([]int32, len(n.nodes))}
	for i := range pre.freeVCs {
		pre.freeVCs[i], pre.ejHead[i] = -1, -1
	}
	return pre
}

// buildBorders derives the per-region border-capacity aggregates from
// the live admission registers: one O(nodes × radix) sweep per batch,
// paid only when a cross-region request shows up.
func (n *Network) buildBorders(pre *precheckTables) {
	tp := n.cfg.Topology
	pre.outBorder = make([]int64, tp.NumRegions())
	pre.inBorder = make([]int64, tp.NumRegions())
	for _, nd := range n.nodes {
		r := tp.Region(nd.id)
		for p := 0; p < tp.Ports; p++ {
			peer := tp.Wired(nd.id, p)
			if peer < 0 {
				continue
			}
			if pr := tp.Region(peer); pr != r {
				h := int64(nd.Alloc[p].Headroom())
				pre.outBorder[r] += h
				pre.inBorder[pr] += h
			}
		}
	}
	pre.borderReady = true
}

// precheck rejects requests that provably cannot establish, without
// touching the fabric: no entry VC left at the source, a demand larger
// than the destination's ejection headroom, or (for cross-region
// requests) a demand larger than every border link of the source's
// outbound cut or the destination's inbound cut can carry. Each check
// fails only when real establishment must fail too. Only minimal routing
// runs it (OpenBatch): no minimal path depends on the VC picks a refusal
// skips, or crosses a region border its endpoints do not.
func (n *Network) precheck(pre *precheckTables, req OpenReq, d router.Demand) error {
	hp := n.cfg.hostPort()
	if pre.freeVCs[req.Src] < 0 {
		pre.freeVCs[req.Src] = int32(n.nodes[req.Src].Mems[hp].FreeVCs())
	}
	if pre.freeVCs[req.Src] == 0 {
		return &precheckError{kind: precheckNoEntryVC, node: req.Src}
	}
	if pre.ejHead[req.Dst] < 0 {
		pre.ejHead[req.Dst] = int32(n.nodes[req.Dst].Alloc[hp].Headroom())
	}
	if d.Alloc > int(pre.ejHead[req.Dst]) {
		return &precheckError{kind: precheckNoEjection, node: req.Dst, rate: req.Spec.Rate}
	}
	tp := n.cfg.Topology
	if tp.NumRegions() > 1 {
		sr, dr := tp.Region(req.Src), tp.Region(req.Dst)
		if sr != dr {
			if !pre.borderReady {
				n.buildBorders(pre)
			}
			if pre.outBorder[sr] < int64(d.Alloc) {
				return &precheckError{kind: precheckNoBorder, node: sr, rate: req.Spec.Rate, dir: "outbound"}
			}
			if pre.inBorder[dr] < int64(d.Alloc) {
				return &precheckError{kind: precheckNoBorder, node: dr, rate: req.Spec.Rate, dir: "inbound"}
			}
		}
	}
	return nil
}

// precheckCommit updates the tables after an accepted establishment: one entry
// VC at the source, d.Alloc ejection cycles at the destination (both
// exact), and d.Alloc against each border aggregate a cross-region path
// must have crossed (keeping the aggregates upper bounds — a path may
// cross a cut more than once, never less).
func (n *Network) precheckCommit(pre *precheckTables, req OpenReq, d router.Demand) {
	pre.freeVCs[req.Src]--
	pre.ejHead[req.Dst] -= int32(d.Alloc)
	if pre.borderReady {
		tp := n.cfg.Topology
		if sr, dr := tp.Region(req.Src), tp.Region(req.Dst); sr != dr {
			pre.outBorder[sr] -= int64(d.Alloc)
			pre.inBorder[dr] -= int64(d.Alloc)
		}
	}
}

// OpenBatch is OpenRequest(FormOnce) for every request in order,
// reporting per-request outcomes. Under minimal routing the admission
// pre-checks refuse provably doomed requests before any search runs: the
// batch accepts the same sessions as opening them one at a time, on the
// same paths with the same setup times and backtracks, but a refusal skips
// the VC picks a serial attempt draws, so the VCs later sessions hold may
// differ. Under Valiant and UGAL routing, whose detours draw from the same
// RNG, there are no pre-checks and the batch is opening them one at a time.
func (n *Network) OpenBatch(reqs []OpenReq) []OpenResult {
	out := make([]OpenResult, len(reqs))
	var pre *precheckTables
	if n.cfg.Route == routing.RouteMinimal {
		pre = n.newPrecheckTables()
	}
	for i, req := range reqs {
		out[i].Conn, out[i].Err = n.open(req, pre)
	}
	return out
}
