package router

import (
	"testing"

	"mmr/internal/flit"
	"mmr/internal/sched"
)

// runCounting is runCycles spelled out again so that it can count by scan —
// not from the Busy vector the gated Nominate walks — the input ports that
// buffer a flit on each cycle the router steps.
func runCounting(r *Router, cycles int64) (busyPorts int64) {
	for limit := r.now + cycles; r.now < limit; {
		for _, mem := range r.core.Mems {
			if mem.Occupied() > 0 {
				busyPorts++
			}
		}
		r.Step()
	}
	return busyPorts
}

// TestRouterWorkGolden pins the single router's work ledger on the packet-flow
// scenario at 0.7 load: the exact counts of what 5,000 cycles made the Core's
// stages do, with the stream flits and packets delivered over them. The gated
// engine polls exactly the ports that buffer a flit; NoIdleSkip polls every
// port every cycle and otherwise does the same work.
func TestRouterWorkGolden(t *testing.T) {
	const cycles = 5_000
	gated, all := packetFlowRun(t, 0.7, 1, false), packetFlowRun(t, 0.7, 1, true)
	gated.core.Work, all.core.Work = sched.Work{}, sched.Work{}
	busyPorts := runCounting(gated, cycles)
	runCounting(all, cycles)

	gw, aw := gated.core.Work, all.core.Work
	if gw.PortsScanned != busyPorts {
		t.Errorf("gated Nominate polled %d ports; %d buffered a flit", gw.PortsScanned, busyPorts)
	}
	if want := int64(all.cfg.Ports) * cycles; aw.PortsScanned != want {
		t.Errorf("NoIdleSkip polled %d ports; want %d", aw.PortsScanned, want)
	}
	gs, as := gw, aw
	gs.PortsScanned, as.PortsScanned = 0, 0
	if gs != as {
		t.Errorf("work differs beyond the polls:\ngated      %+v\nNoIdleSkip %+v", gw, aw)
	}

	m := gated.m.snapshot(gated)
	packets := m.PerClassDelivered[flit.ClassControl] + m.PerClassDelivered[flit.ClassBestEffort]
	want := sched.Work{PortsScanned: 34335, VCsVisited: 2316676, PriorityEvals: 2315468, Candidates: 82355, Grants: 29841, Enqueued: 30266}
	const wantFlits, wantPackets = 27988, 1866
	if gw != want || m.FlitsDelivered != wantFlits || packets != wantPackets {
		t.Errorf("work ledger moved:\ngot  %+v, %d stream flits and %d packets delivered\nwant %+v, %d and %d",
			gw, m.FlitsDelivered, packets, want, wantFlits, wantPackets)
	}
}
