package router

import (
	"mmr/internal/crossbar"
	"mmr/internal/flit"
	"mmr/internal/sched"
	"mmr/internal/traffic"
)

// idleForecastHorizon bounds how far ahead a source forecast looks. A
// forecast returning the horizon means "nothing before then; re-forecast
// there", so the constant only trades forecast loop length against
// wake-up frequency for very-low-rate sources; it never affects results.
const idleForecastHorizon = 4096

// Step advances the router by one flit cycle (§3.4): credits return,
// sources inject, link schedulers nominate candidates, the switch
// scheduler arbitrates, winning flits traverse the crossbar and the
// output links, and per-round bandwidth accounting rolls over at round
// boundaries. Arbitration for cycle t+1 conceptually overlaps the
// transmission of cycle t in hardware; the software model runs them in
// sequence inside one tick, which preserves the observable timing.
func (r *Router) Step() {
	t := r.now

	// Round boundary: reset per-round service counters (§4.1). Lazy —
	// the reset fires on the first cycle actually stepped in each round,
	// so idle cycles elided by Run catch up here. Equivalent to the eager
	// modulo check because per-round counters are frozen and unread while
	// the router is idle and the reset is idempotent across any number of
	// skipped boundaries.
	if round := t / int64(r.cfg.RoundLen()); r.lastRound != round {
		r.lastRound = round
		for _, ls := range r.links {
			ls.OnRoundBoundary()
		}
	}

	// Credit return: sinks drained earlier flits.
	for p := range r.pipes {
		r.pipes[p].DeliverTo(t, r.credits[p])
	}

	// In-band management commands whose propagation delay elapsed (§4.3).
	r.applyControls(t)

	// Link scheduling: each input port nominates candidates (§4.3) based
	// on the state at the end of the previous cycle — in hardware,
	// arbitration for cycle t overlaps transmission of cycle t-1. Ports
	// with zero buffered flits are skipped: Candidates on an empty memory
	// is provably a pure no-op (see sched.LinkScheduler.Active).
	skipIdle := !r.cfg.NoIdleSkip
	for p := 0; p < r.cfg.Ports; p++ {
		if skipIdle && !r.links[p].Active() {
			r.cands[p] = r.cands[p][:0]
			continue
		}
		r.cands[p] = r.links[p].Candidates(t, r.cands[p][:0])
	}
	// Outputs claimed by an asynchronous control cut-through last cycle
	// are busy during this cycle's arbitration (§3.4).
	r.maskAsyncOutputs()

	// Switch scheduling (§4.4).
	r.arbiter.Schedule(r.cands, r.grants)

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
	for p := range r.cands {
		kept := r.cands[p][:0]
		for _, c := range r.cands[p] {
			if !r.outputBusyAsync[c.Output] {
				kept = append(kept, c)
			}
		}
		r.cands[p] = kept
	}
}

// injectStreams ticks the connection sources and moves flits from NI
// queues into input virtual channels.
//
// Gating contract: sources are stateful and must see every cycle, but the
// gated engine visits a connection only when the source calendar says to
// — its forecast (c.nextDue) has come due, or flits queue at its
// interface — in ascending connection ID, the order the ungated engine's
// walk over every connection gives the same ones. A due source first
// replays the cycles it was left alone for (no-ops by construction: the
// forecast promised no arrivals and gap ticks draw no RNG; the sum is the
// one the forecast already made, see traffic.Forecaster), then ticks the
// live cycle. The forecast is recomputed only once it expires, after the
// tick, so it always describes the source's actual per-cycle state. A
// connection that is only draining its queue is not ticked.
func (r *Router) injectStreams(t int64) {
	if r.cfg.NoIdleSkip {
		for _, c := range r.conns {
			r.injectStream(c, t, true)
		}
		return
	}
	// r.conns is ID-ascending. The control paths — Establish, Release, a
	// bandwidth word — only invalidate the calendar.
	r.cal.Visit(t, r.conns, (*Connection).calendarKey, func(c *Connection) {
		r.injectStream(c, t, c.nextDue <= t)
	})
}

// calendarKey says where the source calendar files c (traffic.Calendar):
// by its forecast while it has a source, by its interface queue while
// that drains.
func (c *Connection) calendarKey() (due int64, queued bool, id int64) {
	due = traffic.NoEvent
	if c.src != nil {
		due = c.nextDue
	}
	return due, c.niQueue.Len() > 0, int64(c.ID)
}

// injectStream is one connection's share of injectStreams.
func (r *Router) injectStream(c *Connection, t int64, tick bool) {
	if tick && c.src != nil {
		traffic.ReplayGap(c.src, c.lastTick, t-1)
		for n := c.src.Tick(t); n > 0; n-- {
			f := r.pool.Get()
			f.Conn = c.ID
			f.Class = c.Spec.Class
			f.Type = flit.TypeBody
			f.Seq = c.nextSeq
			f.CreatedAt = t
			f.SrcPort = int16(c.Spec.In)
			f.DstPort = int16(c.Spec.Out)
			c.nextSeq++
			c.niQueue.Push(f)
			r.m.generated++
		}
		c.lastTick = t
		if !r.cfg.NoIdleSkip && c.nextDue <= t {
			c.nextDue = traffic.ForecastSource(c.src, t, t+idleForecastHorizon)
		}
	}
	// Drain the NI queue into the VC while there is room.
	mem := r.mems[c.Spec.In]
	for c.niQueue.Len() > 0 && mem.Free(c.VC) > 0 {
		f := c.niQueue.Pop()
		f.ReadyAt = t // VCM entry
		if mem.Len(c.VC) == 0 {
			// Straight to the head: ready to transmit through the
			// switch — §5's delay reference point.
			f.HeadAt = t
		}
		mem.Push(c.VC, f)
		c.injected++
	}
}

// transmit pops granted flits, moves them through the crossbar model,
// records statistics and returns credits into the pipes.
func (r *Router) transmit(t int64) {
	if !r.arbiter.OutputSharing() {
		// Configure the multiplexed crossbar for this flit cycle; the
		// reconfiguration clock cycle is hidden inside the flit cycle
		// (§3.3-3.4).
		if r.xcfg == nil {
			r.xcfg = make([]int, r.cfg.Ports)
		}
		for in := range r.xcfg {
			r.xcfg[in] = crossbar.Unconnected
			if g := r.grants[in]; g != sched.NoGrant {
				r.xcfg[in] = r.cands[in][g].Output
			}
		}
		if err := r.xbar.Configure(r.xcfg); err != nil {
			panic("router: arbiter produced conflicting matching: " + err.Error())
		}
	}
	for in := 0; in < r.cfg.Ports; in++ {
		g := r.grants[in]
		if g == sched.NoGrant {
			continue
		}
		cand := r.cands[in][g]
		mem := r.mems[in]
		f := mem.Pop(cand.VC)
		if f == nil {
			panic("router: granted VC has no flit")
		}
		if !r.arbiter.OutputSharing() {
			r.xbar.Transmit(in)
		}
		mem.IncServiced(cand.VC)
		// Sink-side credit: consume on transmit, returned next cycle.
		if r.credits[in].Consume(cand.VC) {
			r.pipes[in].Send(t, cand.VC)
		}
		// The next flit (if any) reaches the head of the VC now.
		if next := mem.Peek(cand.VC); next != nil {
			next.HeadAt = t
		}
		r.m.recordDeparture(t, f, cand)
		if f.Class == flit.ClassControl || f.Class == flit.ClassBestEffort {
			r.finishPacketFlit(in, cand.VC, f)
		} else {
			// Departure is the single-router sink: the flit is fully
			// accounted (metrics copy what they need) and returns to the
			// pool for the next injection.
			r.pool.Put(f)
		}
	}
	r.m.cycleDone(r.cfg.Ports)
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
// queued NI backlog, credit in flight, pending control word or
// asynchronous cut-through makes the router active, as does any traffic
// source whose forecast says it is due. Everything here is a pure read,
// so the check cannot perturb the simulation.
func (r *Router) idle(t int64) bool {
	if r.occ > 0 {
		return false
	}
	for _, p := range r.pipes {
		if p.InFlight() > 0 {
			return false
		}
	}
	if len(r.pendingCtl) > 0 {
		return false
	}
	for _, b := range r.outputBusyAsync {
		if b {
			return false
		}
	}
	if r.cal.Stale() || r.cal.Holding() || r.cal.NextDue() <= t {
		return false
	}
	for _, pf := range r.ctlFlows {
		// A queued packet retries VC allocation (an RNG draw) every cycle,
		// so a non-empty NI queue forces activity.
		if pf.niQueue.Len() > 0 || pf.nextDue <= t {
			return false
		}
	}
	for _, pf := range r.beFlows {
		if pf.niQueue.Len() > 0 || pf.nextDue <= t {
			return false
		}
	}
	return true
}

// nextWake returns the earliest cycle in (t, limit] at which a traffic
// source comes due. Called only when idle(t) holds, so sources are the
// only possible wake-up.
func (r *Router) nextWake(t, limit int64) int64 {
	next := limit
	if due := r.cal.NextDue(); due < next {
		next = due
	}
	for _, pf := range r.ctlFlows {
		if pf.nextDue < next {
			next = pf.nextDue
		}
	}
	for _, pf := range r.beFlows {
		if pf.nextDue < next {
			next = pf.nextDue
		}
	}
	if next <= t {
		next = t + 1
	}
	return next
}
