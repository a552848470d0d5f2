package router

import (
	"fmt"

	"mmr/internal/flit"
	"mmr/internal/traffic"
)

// control.go implements §4.3's dynamic bandwidth management: "using
// control words along a connection we can dynamically vary the bandwidth
// requirements of a connection ... The response may involve a change in
// data rate, selective dropping of data packets, or injection
// limitation." Commands are encoded in control words that travel in-band
// with the connection's flits (Myrinet-style), taking effect at the
// router after a small propagation delay.

// pendingControl is a command in flight toward the router.
type pendingControl struct {
	conn *Connection
	word flit.ControlWord
}

// SetBandwidth asks the source interface to change a CBR connection's
// data rate. The command is carried by a control word: admission
// re-checks the delta at the output link, the per-VC allocation and
// aging interval are rewritten, and the source changes rate — all after
// the in-band propagation delay of one flit cycle.
func (r *Router) SetBandwidth(conn *Connection, rate traffic.Rate) error {
	if conn.Spec.Class != flit.ClassCBR {
		return fmt.Errorf("router: SetBandwidth supports CBR connections, got %v", conn.Spec.Class)
	}
	if rate <= 0 {
		return fmt.Errorf("router: invalid rate %v", rate)
	}
	// Admission on the delta against what the output link holds for the
	// connection, so shrinking always succeeds and growth is subject to
	// the same §4.2 test as establishment.
	next := conn.Spec
	next.Rate = rate
	if !r.core.AdjustAt(conn.Spec.Out, conn.held(), next) {
		return fmt.Errorf("router: output %d cannot grow connection %d to %v", conn.Spec.Out, conn.ID, rate)
	}
	conn.admitted = rate
	r.pendingCtl.Push(r.now+1, pendingControl{
		conn: conn,
		word: flit.ControlWord{VC: conn.VC, Op: flit.CtlSetBandwidth, Arg: int(rate), Conn: conn.ID},
	})
	return nil
}

// SetPriority changes a VBR connection's static priority via a control
// word (§4.3: the priority "can be dynamically modified by sending
// control words from the network interface").
func (r *Router) SetPriority(conn *Connection, priority int) error {
	if conn.Spec.Class != flit.ClassVBR {
		return fmt.Errorf("router: SetPriority supports VBR connections, got %v", conn.Spec.Class)
	}
	r.pendingCtl.Push(r.now+1, pendingControl{
		conn: conn,
		word: flit.ControlWord{VC: conn.VC, Op: flit.CtlSetPriority, Arg: priority, Conn: conn.ID},
	})
	return nil
}

// AbortFrame drops a connection's queued flits at the source interface
// and in its input VC — the §4.3 response of an interface that sees a
// low-priority video frame making no progress: "less bandwidth is wasted
// in the transmission of a frame that will not meet the deadline." It
// returns the number of flits dropped.
func (r *Router) AbortFrame(conn *Connection) int {
	dropped := 0
	for conn.ni.Queue.Len() > 0 {
		r.pool.Put(conn.ni.Queue.Pop())
		dropped++
	}
	mem := r.core.Mems[conn.Spec.In]
	for mem.Len(conn.VC) > 0 {
		r.pool.Put(mem.Pop(conn.VC))
		dropped++
		// The freed slot returns a credit to the source side implicitly
		// (injection checks Free directly).
	}
	r.m.framesAborted++
	r.m.flitsDropped += int64(dropped)
	return dropped
}

// Release tears a connection down: injection stops, buffered flits are
// discarded (counted as dropped), the virtual channel is freed and the
// output link's bandwidth registers are decremented (§4.2: the register
// "is decremented when a connection is removed") by what admission holds
// for it — the rate of a bandwidth word still in flight, which will now
// never land, not the rate it would have replaced. The Connection must
// not be used afterwards.
func (r *Router) Release(conn *Connection) error {
	if conn.released {
		return fmt.Errorf("router: connection %d already released", conn.ID)
	}
	conn.released = true
	r.AbortFrame(conn) // drain NI queue and VC
	conn.ni.Source = nil
	r.cal.Invalidate()
	r.core.Mems[conn.Spec.In].Release(conn.VC)
	held := conn.held()
	r.core.ReleaseAt(held.Out, held, r.core.DemandOf(held))
	return nil
}

// held is the spec admission holds bandwidth for: conn's, at the rate it
// admitted.
func (conn *Connection) held() traffic.ConnSpec {
	spec := conn.Spec
	spec.Rate = conn.admitted
	return spec
}

// applyControls executes control words whose propagation delay elapsed.
func (r *Router) applyControls(t int64) {
	for r.pendingCtl.Ready(t) {
		pc := r.pendingCtl.Pop()
		if pc.conn.released {
			continue // the connection was torn down while the word was in flight
		}
		switch pc.word.Op {
		case flit.CtlSetBandwidth:
			rate := traffic.Rate(pc.word.Arg)
			pc.conn.Spec.Rate = rate
			r.core.Retune(pc.conn.Spec.In, pc.conn.VC, r.core.DemandOf(pc.conn.Spec))
			if !pc.conn.ni.Retune(t-1, r.cfg.Link.FlitsPerCycle(rate)) {
				pc.conn.ni.Source = traffic.NewCBRSource(r.cfg.Link, rate, r.rng.Float64())
			}
			r.cal.Invalidate()
		case flit.CtlSetPriority:
			r.core.Mems[pc.conn.Spec.In].State(pc.conn.VC).BasePriority = pc.word.Arg
			pc.conn.Spec.Priority = pc.word.Arg
		}
		r.m.controlWords++
	}
	r.pendingCtl.Settle()
}
