package network

import "mmr/internal/flow"

// lanes.go holds the single-writer/single-reader staging lanes that carry
// a cycle's effects between nodes. A flit leaving on a wire or a credit
// returning upstream is appended to a lane owned by the *sender* during
// the commit phase, and drained by the unique *receiver* (the node wired
// to the other end) during a later cycle's delivery phase. Each lane has
// exactly one writer and one reader, in different phases, and each
// receiver drains its inbound lanes in ascending port order, so the merge
// order — and therefore the simulation — does not depend on the order the
// nodes are visited in within a phase. The FIFO itself is flow.Lane, the
// one the single router's control words ride; what the
// fabric owns is where the lanes live and who may touch them when.

// wire is the outbound lane pair of one port p of node x, side by side in
// one cache line: both are written by x alone and drained by Wired(x, p)
// alone, in one visit (deliverLanes).
type wire struct {
	// flits were sent from x's output port p toward Wired(x, p).
	flits flow.Lane[linkFlit]
	// credits return to Wired(x, p) — the node feeding x's input port p —
	// each naming the VC of that input port whose buffer slot it frees;
	// the receiver's reverse channel mapping names its own VC it credits.
	credits flow.Lane[int]
}

// stagedCredit is a credit synthesized during the delivery phase (a
// receiver detecting an impairment drop) that cannot be pushed onto its
// credit lane immediately: the lane's reader drains it in that same
// phase, and would or would not see the entry depending on which of the
// two nodes ran first. It is staged node-locally and flushed to
// out[port].credits at the start of the commit phase (drop credits precede
// that cycle's transmit credits).
type stagedCredit struct {
	port int   // input port whose lane the credit belongs on
	at   int64 // when it arrives upstream
	vc   int   // the VC of that port the dropped flit was bound for
}
