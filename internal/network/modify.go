package network

import (
	"fmt"

	"mmr/internal/flit"
	"mmr/internal/traffic"
)

// ModifyBandwidth renegotiates an established CBR connection's rate in
// place — the network-level form of §4.3's dynamic bandwidth
// management (the single-router Router.SetBandwidth). Admission runs on
// the delta at every output along the path, so shrinking always
// succeeds and growth faces the same §4.2 test as establishment; a
// rejection at any hop rolls the earlier hops back and leaves the
// connection untouched. On success the per-hop scheduling state
// (allocation, inter-arrival spacing) and the source's injection rate
// switch to the new rate from the next cycle.
func (n *Network) ModifyBandwidth(c *Conn, rate traffic.Rate) error {
	// Each refusal names the actual lifecycle state, so a caller can tell
	// "retry later" (broken: restoration is pending) from "renegotiate the
	// session" (degraded: no guaranteed path exists to modify) from
	// "give up" (closed/lost).
	switch {
	case c == nil:
		return fmt.Errorf("network: ModifyBandwidth on nil connection")
	case c.closed:
		return fmt.Errorf("network: connection %d is closed", c.ID)
	case c.lost:
		return fmt.Errorf("network: connection %d was lost (restoration exhausted)", c.ID)
	case c.Degraded:
		return fmt.Errorf("network: connection %d is degraded to best-effort; it holds no guaranteed path to modify (re-promotion will restore one when capacity returns)", c.ID)
	case c.broken:
		return fmt.Errorf("network: connection %d is fault-broken; restoration is pending, retry after it completes", c.ID)
	case !c.open:
		return fmt.Errorf("network: connection %d is not open", c.ID)
	}
	if c.Spec.Class != flit.ClassCBR {
		return fmt.Errorf("network: ModifyBandwidth supports CBR connections, got %v", c.Spec.Class)
	}
	if rate <= 0 {
		return fmt.Errorf("network: invalid rate %v", rate)
	}
	oldSpec := c.Spec
	newSpec := oldSpec
	newSpec.Rate = rate
	dOld := n.demandFor(oldSpec)
	dNew := n.demandFor(newSpec)
	delta := dNew.Alloc - dOld.Alloc

	// Growth is charged against the tenant's guaranteed-bandwidth budget
	// before any link register is touched; shrinking refunds it.
	if !n.tenants.AdjustGuaranteed(c.Tenant, delta) {
		n.m.SetupRejected++
		return fmt.Errorf("network: tenant %q over guaranteed-bandwidth quota growing connection %d to %v", c.Tenant, c.ID, rate)
	}

	// The connection holds bandwidth on each hop's output plus the
	// destination host port — the same set establishment admitted on.
	type out struct{ node, port int }
	outs := make([]out, 0, len(c.Path)+1)
	for _, h := range c.Path {
		outs = append(outs, out{h.Node, h.Port})
	}
	outs = append(outs, out{c.Dst, n.cfg.hostPort()})
	for i, o := range outs {
		if !n.nodes[o.node].Alloc[o.port].AdjustCBR(delta) {
			for _, u := range outs[:i] {
				n.nodes[u.node].Alloc[u.port].AdjustCBR(-delta)
			}
			n.tenants.AdjustGuaranteed(c.Tenant, -delta)
			n.m.SetupRejected++
			return fmt.Errorf("network: output %d:%d cannot grow connection %d to %v", o.node, o.port, c.ID, rate)
		}
	}

	c.Spec = newSpec
	for i, ref := range c.VCs {
		n.nodes[c.Nodes[i]].Retune(ref.Port, ref.VC, dNew)
	}
	// The source changes rate from this cycle on, due at once so that
	// either engine forecasts it afresh on the next injection pass.
	c.ni.Retune(n.now-1, n.cfg.Link.FlitsPerCycle(rate))
	n.touch(c.Src)

	n.logEvent(SessionEvent{Kind: "conn-modified", Conn: c.ID, Node: c.Src, Port: -1,
		Detail: fmt.Sprintf("rate %v -> %v", oldSpec.Rate, rate)})
	n.recordFlight(c.Src, evConnModified, int32(c.Dst), int32(dNew.Alloc), int64(c.ID))
	n.mustInvariants()
	if delta < 0 {
		// Shrinking frees guaranteed cycles along the path — capacity a
		// degraded session's re-promotion may now fit into.
		n.schedulePromotion()
	}
	return nil
}
