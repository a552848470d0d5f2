package router

import (
	"mmr/internal/flit"
	"mmr/internal/sched"
	"mmr/internal/traffic"
)

// Step advances the router by one flit cycle (§3.4), driving the Core's
// stages: per-round bandwidth accounting rolls over at round boundaries
// (BeginCycle), credits return, link schedulers nominate candidates
// (Nominate), the switch scheduler arbitrates (Arbitrate), winning flits
// leave their VCs (Pop) and traverse the switch and the output links,
// and sources inject (Enqueue). Arbitration for cycle t+1 conceptually
// overlaps the transmission of cycle t in hardware; the software model
// runs them in sequence inside one tick, which preserves the observable
// timing.
func (r *Router) Step() {
	t := r.now

	r.core.BeginCycle(t)

	// Credit return: sinks drained earlier flits.
	for p := range r.pipes {
		r.pipes[p].DeliverTo(t, r.core.Credits[p])
	}

	// In-band management commands whose propagation delay elapsed (§4.3).
	r.applyControls(t)

	// Link scheduling (§4.3), less the outputs an asynchronous control
	// cut-through claimed last cycle — busy during this cycle's
	// arbitration (§3.4) — then switch scheduling (§4.4).
	r.core.Nominate(t, !r.cfg.NoIdleSkip)
	r.maskAsyncOutputs()
	r.core.Arbitrate()

	// Transmission: winners cross the switch and leave on output links.
	r.transmit(t)

	// The asynchronous transmissions that blocked this cycle are done.
	for o := range r.outputBusyAsync {
		r.outputBusyAsync[o] = false
	}

	// Injection: sources generate flits into NI queues; NI queues drain
	// into input VCs while buffer space remains (source-side flow
	// control, §4.2). Flits arriving now become schedulable next cycle.
	r.injectStreams(t)
	r.injectPackets(t)

	r.now++
}

// maskAsyncOutputs removes candidates whose output is busy with an
// asynchronous control transmission.
func (r *Router) maskAsyncOutputs() {
	anyBusy := false
	for _, b := range r.outputBusyAsync {
		if b {
			anyBusy = true
			break
		}
	}
	if !anyBusy {
		return
	}
	for p := range r.core.Cands {
		kept := r.core.Cands[p][:0]
		for _, c := range r.core.Cands[p] {
			if !r.outputBusyAsync[c.Output] {
				kept = append(kept, c)
			}
		}
		r.core.Cands[p] = kept
	}
}

// injectStreams ticks the connection sources and moves flits from NI
// queues into input virtual channels, for the connections the source
// calendar hands over (traffic.Calendar.Visit: gated, those whose forecast
// has come due or whose interface queues flits; under NoIdleSkip, every
// one). r.conns is ID-ascending; the control paths — Establish, Release, a
// bandwidth word — only invalidate the calendar.
func (r *Router) injectStreams(t int64) {
	r.cal.Visit(t, r.cfg.NoIdleSkip, r.conns, r.calendarKey, func(c *Connection, tick bool) {
		r.injectStream(c, t, tick)
	})
}

// calendarKey says where the source calendar files c (traffic.Calendar):
// by its forecast while it has a source, held while its interface queues a
// flit its VC has room for.
func (r *Router) calendarKey(c *Connection) (due int64, held bool, id int64) {
	due = traffic.NoEvent
	if c.ni.Source != nil {
		due = c.ni.NextDue
	}
	return due, r.core.CanFeed(c.Spec.In, c.VC, &c.ni.Queue), int64(c.ID)
}

// injectStream is one connection's share of injectStreams.
func (r *Router) injectStream(c *Connection, t int64, tick bool) {
	if tick && c.ni.Source != nil {
		r.m.generated += c.ni.Mint(t, r.pool, flit.Flit{Conn: c.ID, Class: c.Spec.Class})
	}
	r.core.Feed(c.Spec.In, c.VC, &c.ni.Queue, t)
}

// transmit pops granted flits, records statistics and returns credits
// into the pipes. The grants are the switch's configuration for this flit
// cycle: a matching of inputs to outputs (a sub-permutation unless the
// arbiter shares outputs), whose reconfiguration clock cycle is hidden
// inside the flit cycle (§3.3-3.4).
func (r *Router) transmit(t int64) {
	for in, g := range r.core.Grants {
		if g == sched.NoGrant {
			continue
		}
		cand, f := r.core.Pop(in, t)
		// Sink-side credit: consume on transmit, returned next cycle.
		if r.core.Credits[in].Consume(cand.VC) {
			r.pipes[in].Send(t, cand.VC)
		}
		if f.Class.IsStream() {
			r.m.recordDeparture(t, f)
			// The freed slot takes the connection's next queued flit now,
			// stamped as this cycle's injection would have stamped it.
			r.core.Feed(in, cand.VC, &r.conns[f.Conn].ni.Queue, t)
		} else {
			// §3.4: "When a control or a best-effort packet is completely
			// transmitted, the corresponding virtual channel is released".
			if mem := r.core.Mems[in]; mem.Len(cand.VC) == 0 {
				mem.Release(cand.VC)
			}
			r.m.sink.Packet(f.Class, float64(t-f.CreatedAt))
		}
		// Departure is the single-router sink: the flit is fully accounted
		// (metrics copy what they need) and returns to the pool for the next
		// injection.
		r.pool.Put(f)
	}
	r.m.cycles++
}

// Run executes warmup cycles, resets measurement state, then executes
// measure cycles and returns the collected metrics. The paper runs "until
// steady state was reached and statistics gathered over approximately
// 100,000 router cycles" (§5).
func (r *Router) Run(warmup, measure int64) *Metrics {
	r.runCycles(warmup)
	r.m.reset()
	r.runCycles(measure)
	return r.m.snapshot(r)
}

// runCycles advances the router the given number of cycles, eliding
// stretches where the router is provably idle: the clock jumps straight
// to the earliest due traffic source, with skipped cycles credited to the
// cycle counter so utilization and rate figures are identical to stepping
// through them. Step itself always advances exactly one cycle.
func (r *Router) runCycles(cycles int64) {
	limit := r.now + cycles
	for r.now < limit {
		if !r.cfg.NoIdleSkip && r.idle(r.now) {
			next := r.nextWake(r.now, limit)
			r.m.cycles += next - r.now
			r.now = next
			continue
		}
		r.Step()
	}
}

// idle reports whether cycle t can do anything at all: any buffered flit,
// credit in flight, pending control word or asynchronous cut-through makes
// the router active, as does a calendar that holds a session (a queued
// flit its VC has room for, a queued packet, which retries VC allocation —
// an RNG draw — every cycle), is due or is stale. Everything here is a pure
// read, so the check cannot perturb the simulation.
func (r *Router) idle(t int64) bool {
	if r.core.Occ > 0 {
		return false
	}
	for _, p := range r.pipes {
		if p.InFlight() > 0 {
			return false
		}
	}
	if len(r.pendingCtl.Pending()) > 0 {
		return false
	}
	for _, b := range r.outputBusyAsync {
		if b {
			return false
		}
	}
	return !r.cal.Stale() && !r.cal.Holding() && r.cal.NextDue() > t &&
		!r.pcal.Stale() && !r.pcal.Holding() && r.pcal.NextDue() > t
}

// nextWake returns the earliest cycle in (t, limit] at which a traffic
// source comes due. Called only when idle(t) holds, so sources are the
// only possible wake-up.
func (r *Router) nextWake(t, limit int64) int64 {
	return max(min(limit, r.cal.NextDue(), r.pcal.NextDue()), t+1)
}
