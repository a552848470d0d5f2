package network

import (
	"math"

	"mmr/internal/checkpoint"
	"mmr/internal/flit"
	"mmr/internal/vcm"
)

// state_node.go holds a router's checkpoint sections: its RNG, datapath
// statistics, trackers, ports, channel mappings, metric shard and flight
// recorder (state.go has the walk's order).

// nodeState: one router and its host interface.
func (n *Network) nodeState(c *codec, nd *node) {
	c.rng(nd.rng)
	c.I64(&nd.LastRound)

	// The fabric reads only the sum of the sink's stream classes, and the
	// format keeps only it: a restored node counts it all as CBR.
	d, sk := &nd.stats, &nd.stats.sink
	streams := sk.Streams()
	c.I64(&d.generated)
	c.I64(&streams)
	c.I64(&d.linkFlits)
	c.I64(&d.beGenerated)
	c.I64(&sk.Delivered[flit.ClassBestEffort])
	c.acc(&sk.Latency[flit.ClassBestEffort])
	c.I64(&d.flitsDropped)
	c.I64(&d.flitsCorrupted)
	if c.Decoding() {
		sk.Delivered[flit.ClassCBR], sk.Delivered[flit.ClassVBR] = streams, 0
	}

	// One tracker slot per connection ejecting here; adoptConn has grown
	// the tracker to the restored connections' count.
	tr := &sk.Tracker
	c.Fixed(tr.NumConns(), "tracked connections")
	c.acc(tr.Delay())
	c.acc(tr.Jitter())
	for i := 0; i < tr.NumConns() && c.Err() == nil; i++ {
		c.acc(tr.ConnDelay(i))
		c.acc(tr.ConnJitter(i))
		prev, seen := tr.Baseline(i)
		c.F64(prev)
		c.Bool(seen)
	}

	for p := range nd.Mems {
		n.portState(c, nd, p)
	}

	// Channel mappings, input → output, ascending by input (port, VC).
	c.mapped = nd.cmap.AppendMapped(c.mapped[:0])
	for i, k := 0, c.Count(len(c.mapped), "channel mappings"); i < k && c.Err() == nil; i++ {
		m := checkpoint.At(c.Codec, c.mapped, i)
		c.vcRef(&m[0])
		c.vcRef(&m[1])
		if c.Decoding() && c.Err() == nil {
			if err := nd.cmap.Map(m[0], m[1]); err != nil {
				c.Failf("network: checkpoint channel map on node %d: %v", nd.id, err)
			}
		}
	}

	// The metric shard, in place: its shape is the registry's, which the
	// build fixes, not the payload.
	counters, gauges, histBuf, histCount, histSum := nd.ms.ExportState()
	c.I64s(counters, "metric counters")
	c.F64s(gauges, "metric gauges")
	c.I64s(histBuf, "histogram buckets")
	c.I64s(histCount, "histogram counts")
	c.F64s(histSum, "histogram sums")

	// The flight recorder: retained events oldest first, then the
	// lifetime total (replaying through Record resets it).
	c.events = nd.rec.Events(c.events[:0])
	for i, k := 0, c.Count(len(c.events), "flight events"); i < k && c.Err() == nil; i++ {
		ev := checkpoint.At(c.Codec, c.events, i)
		c.I64(&ev.Cycle)
		c.U16(&ev.Code)
		nodeIdx(c, &ev.Node)
		num(c, &ev.A)
		num(c, &ev.B)
		c.I64(&ev.Aux)
		if c.Decoding() && c.Err() == nil {
			nd.rec.Record(ev)
		}
	}
	total := nd.rec.Total()
	c.I64(&total)
	nd.rec.SetTotal(total)
}

// portState: everything router nd keeps per port p — the input side's
// VC memory and shadow credits, the output side's bandwidth registers,
// the link scheduler, and the two outbound lanes.
// A per-VC table lists only the VCs that differ from a fresh fabric's, in
// c.vcs when encoding; each element is a VC index (c.vc), then its fields.
func (n *Network) portState(c *codec, nd *node, p int) {
	mem, depth, vcs := nd.Mems[p], n.cfg.Depth, n.cfg.VCs

	// The vectors pick the VCs: a port has no records before its first reservation.
	c.vcs = mem.ReservedVector().AppendSet(c.vcs[:0])
	for i, k := 0, c.CountOf(len(c.vcs), 8, "reserved VCs"); i < k && c.Err() == nil; i++ {
		v := c.vc(i)
		st, serviced := vcm.VCState{InUse: true}, 0 // RestoreState sets the reserved bit
		if !c.Decoding() {
			st, serviced = *mem.State(v), mem.Serviced(v)
		}
		connIdx(c, &st.Conn)
		class(c, &st.Class)
		c.Int(&st.Allocated)
		c.Int(&st.Peak)
		c.Int(&serviced)
		c.Int(&st.BasePriority)
		c.F64(&st.InterArrival)
		idx(c, &st.Output, -1, n.cfg.radix(), "output port") // -1: an unrouted packet
		mem.RestoreState(v, st)
		mem.SetServiced(v, serviced)
	}

	c.vcs = mem.FlitsAvailable().AppendSet(c.vcs[:0])
	for i, k := 0, c.CountOf(len(c.vcs), 8, "buffered VCs"); i < k && c.Err() == nil; i++ {
		v := c.vc(i)
		mem.Materialize() // flits where nothing is reserved fail the audit, not Push
		for j, flits := 0, c.Count(mem.Len(v), "buffered flits"); j < flits && c.Err() == nil; j++ {
			var f *flit.Flit
			if !c.Decoding() {
				f = mem.FlitAt(v, j)
			}
			c.flit(&f)
			if c.Decoding() && c.Err() == nil && !mem.Push(v, f) {
				c.Failf("network: checkpoint overflows VC %d on node %d port %d", v, nd.id, p)
			}
		}
	}

	shadow := nd.Credits[p]
	c.vcs = c.vcs[:0]
	for v := range vcs {
		if shadow.Available(v) != depth {
			c.vcs = append(c.vcs, v)
		}
	}
	for i, k := 0, c.CountOf(len(c.vcs), 8, "shadow credits"); i < k && c.Err() == nil; i++ {
		v := c.vc(i)
		avail := shadow.Available(v)
		c.Range(&avail, 0, depth+1, "credit count")
		shadow.SetAvailable(v, avail)
	}

	a := nd.Alloc[p]
	guaranteed, peak, conns := a.Guaranteed(), a.PeakTotal(), a.Connections()
	c.Range(&guaranteed, 0, math.MaxInt, "guaranteed bandwidth")
	c.Range(&peak, 0, math.MaxInt, "peak bandwidth")
	c.Range(&conns, 0, math.MaxInt, "admitted connections")
	a.RestoreState(guaranteed, peak, conns)

	excess, lc := nd.Links[p].State()
	c.Range(excess, -1, n.cfg.VCs, "excess VC") // -1: none elected
	c.I64(&lc.Nominated)
	c.I64(&lc.CreditStalled)
	c.I64(&lc.RoundExhausted)
	c.I64(&lc.BiasBoosted)

	lane(c, &nd.out[p].flits, "pipe entries")
	lane(c, &nd.out[p].credits, "credit entries")
}
