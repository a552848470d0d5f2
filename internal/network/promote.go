package network

import (
	"fmt"
	"sort"

	"mmr/internal/flit"
)

// promote.go closes the fault lifecycle's one-way door: a session that
// degraded to best-effort service (faults.go abandon) is re-promoted to
// guaranteed service when capacity returns — §4.3's dynamic bandwidth
// renegotiation applied to recovery. Every capacity-returning control
// event (link-up, router-up, conn-restored, a graceful Close, a
// ModifyBandwidth shrink) arms a scan; the scan re-runs establishment
// for each degraded session's original spec, retires the best-effort
// fallback flow on success, and backs off with jitter while capacity is
// still short. Scans ride the durable-event journal on the serial
// control path — like restoration retries they cost the flit-cycle hot
// path nothing and survive checkpoints.

// promoteBudget bounds establishment attempts per scan, so one scan
// event never turns into an unbounded search storm on a large fabric;
// the remainder waits for the rescan the scan itself schedules.
const promoteBudget = 8

// schedulePromotion arms a re-promotion scan for the next cycle. Called
// on every capacity-returning control event; O(1) and a no-op when
// nothing is degraded or promotion is disabled. Each call supersedes
// any scan already journaled (the generation bump makes stale scans
// no-op), so the backoff clock restarts whenever fresh capacity
// appears.
func (n *Network) schedulePromotion() {
	if !n.cfg.Fault.Promote || !n.cfg.Fault.Degrade || n.degradedLive == 0 {
		return
	}
	n.promoteGen++
	n.scheduleDurable(n.now+1, durPromote, n.promoteGen, 0)
}

// promoteScan is one journaled re-promotion pass (attempt is 0-based
// within the current generation's backoff sequence). Candidates are
// ordered for cross-tenant fairness — tenants using the least of their
// guaranteed budget recover first, ties broken by connection ID — and
// up to promoteBudget of them re-run establishment. Any success
// restarts the backoff (capacity is appearing); a fully failed scan
// backs off exponentially with jitter and gives up after MaxRetries
// until the next trigger re-arms it.
func (n *Network) promoteScan(gen int64, attempt int) {
	if gen != n.promoteGen || n.degradedLive == 0 {
		return
	}
	cand := n.promoteScratch[:0]
	for _, c := range n.conns {
		if c.Degraded && !c.closed {
			cand = append(cand, c)
		}
	}
	n.promoteScratch = cand
	sort.SliceStable(cand, func(i, j int) bool {
		fi := n.tenants.GuaranteedFraction(cand[i].Tenant)
		fj := n.tenants.GuaranteedFraction(cand[j].Tenant)
		if fi != fj {
			return fi < fj
		}
		return cand[i].ID < cand[j].ID
	})

	budget := promoteBudget
	promoted := 0
	for _, c := range cand {
		if budget == 0 {
			break
		}
		d := n.demandFor(c.Spec)
		// Quota first, search second: re-promotion re-enters admission, so
		// an over-budget tenant's sessions stay degraded without spending
		// any of the scan's establishment budget on them.
		if !n.tenants.ChargeGuaranteed(c.Tenant, d.Alloc) {
			continue
		}
		budget--
		if err := n.establish(c); err != nil {
			n.tenants.ReleaseGuaranteed(c.Tenant, d.Alloc)
			continue
		}
		n.finishPromotion(c, attempt)
		promoted++
	}

	if n.degradedLive == 0 {
		return // everyone recovered; the next trigger starts fresh
	}
	if promoted > 0 {
		// Capacity is appearing — rescan on the shortest backoff instead
		// of escalating, so recovery ripples through the backlog.
		n.scheduleDurable(n.now+n.retryBackoff(0), durPromote, gen, 0)
		return
	}
	if attempt >= n.cfg.Fault.MaxRetries {
		return // capacity is not coming back by itself; wait for a trigger
	}
	n.scheduleDurable(n.now+n.retryBackoff(attempt), durPromote, gen, int64(attempt+1))
}

// finishPromotion completes one successful re-promotion: establish has
// already installed the guaranteed path (with installPath's
// restart of its source), so what remains is retiring the
// best-effort fallback flow by its owner ID, restoring the conn's live
// flags and injector-list membership, and announcing the transition.
func (n *Network) finishPromotion(c *Conn, attempt int) {
	var fallback FlowID
	for _, bf := range n.beFlows {
		if bf.conn == c.ID {
			fallback = bf.id
			break
		}
	}
	n.dropBEFlow(c.ID)
	c.Degraded = false
	n.degradedLive--
	n.insertSrcConn(c)
	n.m.ConnsPromoted++
	n.logEvent(SessionEvent{Kind: "conn-promoted", Conn: c.ID, Node: c.Src, Port: -1,
		Detail: fmt.Sprintf("guaranteed service restored %d cycles after the fault; fallback flow %d retired (scan attempt %d)",
			n.now-c.brokenAt, fallback, attempt+1)})
	n.recordFlight(c.Src, evConnPromoted, int32(c.Dst), int32(attempt+1), int64(c.ID))
	n.mustInvariants()
}

// CheckBEFlowOwners audits the degraded-session ↔ fallback-flow
// pairing: every connection-owned best-effort flow must belong to a
// live degraded connection, and every live degraded connection must own
// exactly one fallback. The soak harness and the promotion tests run it
// after fault recovery to prove promotion retires fallbacks exactly
// once and leaks none.
func (n *Network) CheckBEFlowOwners() error {
	owned := map[int64]int{}
	for _, bf := range n.beFlows {
		if bf.conn == flit.InvalidConn {
			continue
		}
		owned[int64(bf.conn)]++
		c := n.conns[bf.conn]
		if !c.Degraded || c.closed {
			return fmt.Errorf("network: best-effort flow %d owned by conn %d, which is not live-degraded (degraded=%v closed=%v)",
				bf.id, bf.conn, c.Degraded, c.closed)
		}
		if owned[int64(bf.conn)] > 1 {
			return fmt.Errorf("network: conn %d owns %d fallback flows, want exactly one", bf.conn, owned[int64(bf.conn)])
		}
	}
	live := 0
	for _, c := range n.conns {
		if c.Degraded && !c.closed {
			live++
			if owned[int64(c.ID)] != 1 {
				return fmt.Errorf("network: degraded conn %d owns %d fallback flows, want exactly one", c.ID, owned[int64(c.ID)])
			}
		}
	}
	if live != n.degradedLive {
		return fmt.Errorf("network: degradedLive counter %d, but %d live degraded conns found", n.degradedLive, live)
	}
	return nil
}

// DegradedLive reports the number of sessions currently degraded to
// best-effort service and not yet closed or re-promoted.
func (n *Network) DegradedLive() int { return n.degradedLive }
