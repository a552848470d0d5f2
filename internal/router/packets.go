package router

import (
	"cmp"
	"fmt"
	"slices"

	"mmr/internal/flit"
	"mmr/internal/traffic"
)

// packetFlow is a generator of VCT packets between one input/output port
// pair — control messages or best-effort traffic coexisting with the
// streams (§3.4).
type packetFlow struct {
	class   flit.Class // ClassControl or ClassBestEffort
	id      int64      // class, then the order added: the order the flows draw from the RNG in
	in, out int
	ni      traffic.Injector // its queue: packets waiting for a free VC or the fast path
}

// AddBestEffortFlow attaches a Poisson best-effort packet flow producing
// packetsPerCycle single-flit packets on average from input in to output
// out.
func (r *Router) AddBestEffortFlow(in, out int, packetsPerCycle float64) error {
	return r.addPacketFlow(flit.ClassBestEffort, in, out, packetsPerCycle)
}

// AddControlFlow attaches a Poisson control-message flow (probes,
// acknowledgments, management commands) between the given ports.
func (r *Router) AddControlFlow(in, out int, packetsPerCycle float64) error {
	return r.addPacketFlow(flit.ClassControl, in, out, packetsPerCycle)
}

func (r *Router) addPacketFlow(class flit.Class, in, out int, packetsPerCycle float64) error {
	if in < 0 || in >= r.cfg.Ports || out < 0 || out >= r.cfg.Ports {
		return fmt.Errorf("router: ports (%d,%d) out of range", in, out)
	}
	pf := &packetFlow{class: class, id: int64(class)<<32 | int64(len(r.flows)), in: in, out: out}
	pf.ni.Source = traffic.NewBestEffortSource(r.rng, packetsPerCycle)
	pf.ni.Start(r.now)
	r.flows = append(r.flows, pf)
	slices.SortFunc(r.flows, func(a, b *packetFlow) int { return cmp.Compare(a.id, b.id) })
	r.pcal.Invalidate()
	return nil
}

// calendarKey says where the packet calendar files pf: by its forecast,
// and every cycle while packets queue at its interface.
func (pf *packetFlow) calendarKey() (due int64, held bool, id int64) {
	return pf.ni.NextDue, pf.ni.Queue.Len() > 0, pf.id
}

// injectPackets generates VCT packets and routes them per §3.4:
//
//   - Control packets are forwarded immediately — bypassing flit-cycle
//     synchronization — when the requested output link is idle; the output
//     is then busy during the next flit cycle's arbitration.
//   - Otherwise (and always, for best-effort packets) a free virtual
//     channel is reserved and the packet is buffered, to be scheduled
//     synchronously with the data streams; control packets buffer at
//     higher precedence than streams, best-effort below them.
//   - With no free VC the packet blocks in the NI queue (at a previous
//     router in the real network).
//
// As injectStreams does with the connections, it visits the flows the
// packet calendar hands over.
func (r *Router) injectPackets(t int64) {
	r.pcal.Visit(t, r.cfg.NoIdleSkip, r.flows, (*packetFlow).calendarKey, func(pf *packetFlow, tick bool) {
		r.injectPacketFlow(t, pf, tick)
	})
}

// injectPacketFlow is one flow's share of injectPackets.
func (r *Router) injectPacketFlow(t int64, pf *packetFlow, tick bool) {
	if tick {
		r.m.pktGenerated[pf.class] += pf.ni.Mint(t, r.pool, flit.Flit{Conn: flit.InvalidConn, Class: pf.class})
	}
	// Drain the NI queue in order, stopping at the first packet that does
	// not fit: all packets of a flow need the same resource (a free VC on
	// the input port), so scanning past a failure cannot succeed and
	// would make a backlogged flow cost O(queue) per cycle.
	for pf.ni.Queue.Len() > 0 && r.placePacket(t, pf) {
	}
}

// placePacket attempts delivery or buffering of the flow's head packet,
// popping it from the NI queue and reporting success.
func (r *Router) placePacket(t int64, pf *packetFlow) bool {
	f := pf.ni.Queue.Peek()
	// Control fast path (§3.4): if the requested switch input port and
	// output link are both free this flit cycle (and the output is not
	// already claimed by another cut-through), the packet is forwarded
	// immediately without flit-cycle synchronization; the output is then
	// busy during the next cycle's arbitration.
	if pf.class == flit.ClassControl && !r.outputBusyAsync[pf.out] && r.portsIdleThisCycle(pf.in, pf.out) {
		r.outputBusyAsync[pf.out] = true
		r.m.sink.Packet(f.Class, float64(t-f.CreatedAt))
		r.m.ctlFastPath++
		pf.ni.Queue.Pop()
		r.pool.Put(f) // delivered: the cut-through leaves the router now
		return true
	}
	// Buffered path: reserve a free VC on the input port, or block in the
	// NI queue with none free (§3.4).
	if !r.core.BufferPacket(pf.in, pf.out, f, t, r.rng) {
		return false
	}
	pf.ni.Queue.Pop()
	return true
}

// portsIdleThisCycle reports whether input in and output out both carried
// no flit during the current flit cycle. For the perfect switch (no
// crossbar state) the fast path is always available.
func (r *Router) portsIdleThisCycle(in, out int) bool {
	if r.core.arbiter.OutputSharing() {
		return true
	}
	return r.xbar.InputFor(out) < 0 && r.xbar.OutputFor(in) < 0
}
