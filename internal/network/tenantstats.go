package network

// tenantstats.go is the per-tenant delivery telemetry: the admission
// quota table (internal/admission) tracks what each tenant was *allowed*
// to establish, and these counters track what its sessions actually
// *received* — delivered stream flits and their end-to-end delay
// distribution, per tenant, on the metrics surface
// (mmr_net_tenant_delivered_total, mmr_net_tenant_delay_cycles).
//
// Storage follows the dpStats pattern: flat per-node arrays indexed by a
// dense tenant slot, written only while the node is stepped (eject runs
// in the destination node's commit phase), merged in ascending node order
// at gather time. Tenant slots are assigned on the control path the first
// time a tenant establishes a connection, and the per-node arrays grow
// there too — the hot path is two increments and a small bucket scan,
// zero allocations.
//
// The registry freezes ordinary series registration once shards exist,
// and the tenant label set only emerges at runtime, so these families
// publish through the metrics.OnSnapshot appender instead of
// pre-registered handles. Tenant telemetry is observability, not model
// state: like the rest of the metrics layer it rides outside
// EncodeState, so checkpoints are unaffected (a restored fabric starts
// its tenant counters at zero, exactly like its other metric mirrors
// before the first gather).

import (
	"fmt"

	"mmr/internal/metrics"
)

// tenantDelayBuckets is the bucket ladder of the per-tenant delay
// histogram — same power-of-two ladder as the per-class delay series so
// the two are directly comparable.
var tenantDelayBuckets = metrics.Pow2Buckets(1, 14) // 1 .. 8192 cycles

// tenantNodeStats is one node's shard of the per-tenant telemetry.
// Slices are indexed by tenant slot: delivered is both the counter and
// the histogram's sample count (every delivered flit is one sample);
// buckets is the flattened histogram (tenant-major,
// len(tenantDelayBuckets)+1 slots each, the last being overflow).
type tenantNodeStats struct {
	delivered []int64
	delaySum  []float64
	buckets   []int64
}

// grow sizes the shard for n tenant slots (control path only).
func (ts *tenantNodeStats) grow(n int) {
	for len(ts.delivered) < n {
		ts.delivered = append(ts.delivered, 0)
		ts.delaySum = append(ts.delaySum, 0)
		for i := 0; i <= len(tenantDelayBuckets); i++ {
			ts.buckets = append(ts.buckets, 0)
		}
	}
}

// reset zeroes the shard (warmup boundary, with ResetStats).
func (ts *tenantNodeStats) reset() {
	for i := range ts.delivered {
		ts.delivered[i] = 0
		ts.delaySum[i] = 0
	}
	for i := range ts.buckets {
		ts.buckets[i] = 0
	}
}

// observe records one delivered flit with the given end-to-end delay.
// Hot path: called from eject at the destination node.
func (ts *tenantNodeStats) observe(slot int32, delay float64) {
	ts.delivered[slot]++
	ts.delaySum[slot] += delay
	ts.buckets[int(slot)*(len(tenantDelayBuckets)+1)+metrics.Bucket(tenantDelayBuckets, delay)]++
}

// tenantSlotFor returns the dense telemetry slot for a tenant name,
// assigning one — and growing every node's shard — on first sight.
// Serial control path only (connection establishment / restore).
func (n *Network) tenantSlotFor(name string) int32 {
	if i, ok := n.tenantSlots[name]; ok {
		return i
	}
	i := int32(len(n.tenantNames))
	if n.tenantSlots == nil {
		n.tenantSlots = map[string]int32{}
	}
	n.tenantSlots[name] = i
	n.tenantNames = append(n.tenantNames, name)
	for _, nd := range n.nodes {
		nd.tstats.grow(len(n.tenantNames))
	}
	return i
}

// displayTenant maps the default tenant's empty name to a readable
// label value.
func displayTenant(name string) string {
	if name == "" {
		return "default"
	}
	return name
}

// appendTenantMetrics is the metrics.OnSnapshot hook: it merges every
// node's tenant shard in ascending node order and appends one counter
// and one histogram series per tenant to the snapshot.
func (n *Network) appendTenantMetrics(snap *metrics.Snapshot) {
	stride := len(tenantDelayBuckets) + 1
	for ti, name := range n.tenantNames {
		labels := fmt.Sprintf("tenant=%q", displayTenant(name))
		cs := metrics.CounterSnap{
			Name:   "mmr_net_tenant_delivered_total",
			Labels: labels,
			Help:   "stream flits delivered to this tenant's sessions",
		}
		hs := metrics.HistSnap{
			Name:    "mmr_net_tenant_delay_cycles",
			Labels:  labels,
			Help:    "end-to-end delay of this tenant's delivered flits",
			Bounds:  tenantDelayBuckets,
			Buckets: make([]int64, stride),
		}
		for _, nd := range n.nodes {
			ts := &nd.tstats
			if ti >= len(ts.delivered) {
				continue
			}
			cs.Total += ts.delivered[ti]
			hs.Count += ts.delivered[ti]
			hs.Sum += ts.delaySum[ti]
			for b := 0; b < stride; b++ {
				hs.Buckets[b] += ts.buckets[ti*stride+b]
			}
		}
		snap.Counters = append(snap.Counters, cs)
		snap.Histograms = append(snap.Histograms, hs)
	}
}
