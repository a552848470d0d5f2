// Package metrics is the repository's zero-allocation-on-the-hot-path
// observability layer: a registry of counters, gauges and fixed-bucket
// histograms whose storage is preallocated at registration time and
// addressed by integer handles, so recording a sample from inside the
// flit cycle is a slice increment — no map lookups, no interface calls,
// no allocation.
//
// The registry is sharded the same way the network datapath is (one
// shard per node, each written only by the goroutine stepping that
// node), and shards are merged in ascending shard order when a snapshot
// is taken, so — like the dpStats shards introduced with the parallel
// cycle — every reported aggregate is bit-identical for every worker
// count.
//
// Usage pattern:
//
//	reg := metrics.NewSharded("node")
//	delivered := reg.Counter("mmr_net_flits_delivered_total", "stream flits ejected")
//	delay := reg.Histogram("mmr_net_delay_cycles", "end-to-end delay", metrics.Pow2Buckets(1, 12), "class", "cbr")
//	sh := reg.NewShard() // one per node; registration is closed afterwards
//	...
//	sh.Inc(delivered)    // hot path: zero-alloc
//	sh.Observe(delay, 17)
//	snap := reg.Gather() // between steps only — not synchronized with writers
//
// Gather runs registered collector callbacks first (for gauges computed
// from live state, e.g. VC occupancy), then merges every shard. Gather
// must not race with shard writers: call it between simulation steps.
package metrics

import (
	"fmt"
	"math"
	"strings"
)

// Counter is a handle to a monotonically increasing series.
type Counter int

// Gauge is a handle to a point-in-time series.
type Gauge int

// Histogram is a handle to a fixed-bucket distribution series.
type Histogram int

// series is one registered time series: a family name plus pre-rendered
// labels, so snapshot rendering never re-formats label pairs.
type series struct {
	name   string
	help   string
	labels string // pre-rendered `k="v",k2="v2"` or ""
}

type histDesc struct {
	series
	bounds []float64 // ascending upper bounds; +Inf bucket is implicit
}

// Registry holds the metric descriptors and their shards. Register every
// metric first (router/network construction time), then create shards;
// registration after the first NewShard panics, which keeps every shard
// the same shape and the hot-path indexing branch-free.
type Registry struct {
	shardLabel string // label distinguishing shards in output ("" = unsharded)
	counters   []series
	gauges     []series
	hists      []histDesc
	histBase   []int // flattened bucket offset of each histogram
	histLen    int   // total flattened bucket slots per shard
	shards     []*Shard
	collectors []func()
	snapHooks  []func(*Snapshot)
}

// New returns an unsharded registry (a single anonymous shard dimension,
// e.g. one router).
func New() *Registry { return &Registry{} }

// NewSharded returns a registry whose shards are distinguished by the
// given label name in rendered output (e.g. "node").
func NewSharded(shardLabel string) *Registry { return &Registry{shardLabel: shardLabel} }

// renderLabels turns ("k","v","k2","v2") into `k="v",k2="v2"`.
func renderLabels(kv []string) string {
	if len(kv) == 0 {
		return ""
	}
	if len(kv)%2 != 0 {
		panic("metrics: odd label key/value list")
	}
	var b strings.Builder
	for i := 0; i+1 < len(kv); i += 2 {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%s=%q", kv[i], kv[i+1])
	}
	return b.String()
}

func (r *Registry) checkOpen() {
	if len(r.shards) > 0 {
		panic("metrics: registration after NewShard")
	}
}

// Counter registers a counter series and returns its handle. Label
// key/value pairs are rendered once at registration.
func (r *Registry) Counter(name, help string, labelKV ...string) Counter {
	r.checkOpen()
	r.counters = append(r.counters, series{name: name, help: help, labels: renderLabels(labelKV)})
	return Counter(len(r.counters) - 1)
}

// Gauge registers a gauge series and returns its handle.
func (r *Registry) Gauge(name, help string, labelKV ...string) Gauge {
	r.checkOpen()
	r.gauges = append(r.gauges, series{name: name, help: help, labels: renderLabels(labelKV)})
	return Gauge(len(r.gauges) - 1)
}

// Histogram registers a fixed-bucket histogram series. bounds are the
// ascending bucket upper bounds; an overflow (+Inf) bucket is implicit.
func (r *Registry) Histogram(name, help string, bounds []float64, labelKV ...string) Histogram {
	r.checkOpen()
	if len(bounds) == 0 {
		panic("metrics: histogram needs at least one bucket bound")
	}
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			panic("metrics: histogram bounds not ascending")
		}
	}
	r.hists = append(r.hists, histDesc{
		series: series{name: name, help: help, labels: renderLabels(labelKV)},
		bounds: bounds,
	})
	r.histBase = append(r.histBase, r.histLen)
	r.histLen += len(bounds) + 1
	return Histogram(len(r.hists) - 1)
}

// OnGather registers a collector run at the start of every Gather, for
// gauges computed from live state (occupancy, utilization). Collectors
// run serially in registration order, so anything they compute is
// deterministic.
func (r *Registry) OnGather(f func()) { r.collectors = append(r.collectors, f) }

// OnSnapshot registers a hook run at the end of every Gather, after the
// shard merge, to append already-merged series to the snapshot.
// Ordinary registration freezes once the first shard exists (every
// shard must have the same shape for branch-free hot-path indexing), so
// families whose label sets only emerge at runtime — per-tenant
// telemetry, for instance — cannot pre-register; they maintain their
// own single-writer storage and publish through this hook instead. The
// renderers (Prometheus, JSON) iterate the snapshot generically, so
// appended series need no further plumbing. Hooks run serially in
// registration order.
func (r *Registry) OnSnapshot(f func(*Snapshot)) { r.snapHooks = append(r.snapHooks, f) }

// Pow2Buckets returns n power-of-two bounds starting at lo:
// lo, 2lo, 4lo, ... — the standard latency bucket ladder.
func Pow2Buckets(lo float64, n int) []float64 {
	b := make([]float64, n)
	for i := range b {
		b[i] = lo * math.Pow(2, float64(i))
	}
	return b
}

// Shard is one writer's slice of every registered series. All methods
// are allocation-free; a shard must only ever be written by one
// goroutine at a time (the network gives each node its own).
type Shard struct {
	reg       *Registry
	id        int
	counters  []int64
	gauges    []float64
	histBuf   []int64 // flattened per-histogram buckets (+overflow slot each)
	histCount []int64
	histSum   []float64
}

// NewShard creates one shard sized to the registered metrics and closes
// the registry for further registration.
func (r *Registry) NewShard() *Shard {
	s := &Shard{
		reg:       r,
		id:        len(r.shards),
		counters:  make([]int64, len(r.counters)),
		gauges:    make([]float64, len(r.gauges)),
		histBuf:   make([]int64, r.histLen),
		histCount: make([]int64, len(r.hists)),
		histSum:   make([]float64, len(r.hists)),
	}
	r.shards = append(r.shards, s)
	return s
}

// Inc adds one to a counter.
func (s *Shard) Inc(c Counter) { s.counters[c]++ }

// CounterValue returns the shard's current value of a counter.
func (s *Shard) CounterValue(c Counter) int64 { return s.counters[c] }

// Store sets a counter to an absolute value — for counters mirrored at
// gather time from state the simulator already maintains (dpStats,
// scheduler counters), so the hot path is not charged twice for them.
func (s *Shard) Store(c Counter, v int64) { s.counters[c] = v }

// Set sets a gauge.
func (s *Shard) Set(g Gauge, v float64) { s.gauges[g] = v }

// Reset zeroes every series in the shard — the metric analogue of a
// statistics reset at a warmup boundary. Counters mirrored at gather
// time (Store) lose nothing: the next Gather rewrites them from their
// source of truth.
func (s *Shard) Reset() {
	for i := range s.counters {
		s.counters[i] = 0
	}
	for i := range s.gauges {
		s.gauges[i] = 0
	}
	for i := range s.histBuf {
		s.histBuf[i] = 0
	}
	for i := range s.histCount {
		s.histCount[i] = 0
		s.histSum[i] = 0
	}
}

// ExportState returns the shard's live storage slices — counters,
// gauges, flattened histogram buckets, histogram counts and sums — for a
// checkpoint walk to read, or to overwrite in place when restoring.
func (s *Shard) ExportState() (counters []int64, gauges []float64, histBuf, histCount []int64, histSum []float64) {
	return s.counters, s.gauges, s.histBuf, s.histCount, s.histSum
}

// Bucket returns the index of the bucket v falls in under the ascending
// upper bounds: the first i with v <= bounds[i], len(bounds) — the
// overflow bucket — when there is none. A linear scan: the ladders are
// small and fixed, and most samples land near the bottom.
func Bucket(bounds []float64, v float64) int {
	i := 0
	for i < len(bounds) && v > bounds[i] {
		i++
	}
	return i
}

// Observe records one histogram sample: a bucket scan plus three
// increments. Zero allocations.
func (s *Shard) Observe(h Histogram, v float64) {
	s.histBuf[s.reg.histBase[h]+Bucket(s.reg.hists[h].bounds, v)]++
	s.histCount[h]++
	s.histSum[h] += v
}

// CounterSnap is one counter series in a snapshot.
type CounterSnap struct {
	Name     string  `json:"name"`
	Labels   string  `json:"labels,omitempty"`
	Help     string  `json:"help,omitempty"`
	PerShard []int64 `json:"per_shard,omitempty"`
	Total    int64   `json:"total"`
}

// GaugeSnap is one gauge series in a snapshot. Total is the sum over
// shards; per-port occupancy gauges etc. sum naturally across nodes.
type GaugeSnap struct {
	Name     string    `json:"name"`
	Labels   string    `json:"labels,omitempty"`
	Help     string    `json:"help,omitempty"`
	PerShard []float64 `json:"per_shard,omitempty"`
	Total    float64   `json:"total"`
}

// HistSnap is one histogram series, merged across shards in ascending
// shard order (counts are order-independent; sums are merged in the
// fixed order so the float result is deterministic).
type HistSnap struct {
	Name    string    `json:"name"`
	Labels  string    `json:"labels,omitempty"`
	Help    string    `json:"help,omitempty"`
	Bounds  []float64 `json:"bounds"`
	Buckets []int64   `json:"buckets"` // per-bound counts plus trailing overflow, non-cumulative
	Count   int64     `json:"count"`
	Sum     float64   `json:"sum"`
}

// Snapshot is an immutable copy of every series, taken between steps.
type Snapshot struct {
	ShardLabel string        `json:"shard_label,omitempty"`
	NumShards  int           `json:"num_shards"`
	Counters   []CounterSnap `json:"counters"`
	Gauges     []GaugeSnap   `json:"gauges"`
	Histograms []HistSnap    `json:"histograms"`
}

// Gather runs the collectors and merges every shard in ascending shard
// order into a snapshot. It must not race with shard writers: call it
// between simulation steps (the HTTP server serves the last published
// snapshot, never live shards).
func (r *Registry) Gather() *Snapshot {
	for _, f := range r.collectors {
		f()
	}
	snap := &Snapshot{ShardLabel: r.shardLabel, NumShards: len(r.shards)}
	for i, d := range r.counters {
		cs := CounterSnap{Name: d.name, Labels: d.labels, Help: d.help}
		if len(r.shards) > 1 {
			cs.PerShard = make([]int64, len(r.shards))
		}
		for si, sh := range r.shards {
			v := sh.counters[i]
			if cs.PerShard != nil {
				cs.PerShard[si] = v
			}
			cs.Total += v
		}
		snap.Counters = append(snap.Counters, cs)
	}
	for i, d := range r.gauges {
		gs := GaugeSnap{Name: d.name, Labels: d.labels, Help: d.help}
		if len(r.shards) > 1 {
			gs.PerShard = make([]float64, len(r.shards))
		}
		for si, sh := range r.shards {
			v := sh.gauges[i]
			if gs.PerShard != nil {
				gs.PerShard[si] = v
			}
			gs.Total += v
		}
		snap.Gauges = append(snap.Gauges, gs)
	}
	for i, d := range r.hists {
		hs := HistSnap{
			Name: d.name, Labels: d.labels, Help: d.help,
			Bounds:  d.bounds,
			Buckets: make([]int64, len(d.bounds)+1),
		}
		base := r.histBase[i]
		for _, sh := range r.shards {
			for b := range hs.Buckets {
				hs.Buckets[b] += sh.histBuf[base+b]
			}
			hs.Count += sh.histCount[i]
			hs.Sum += sh.histSum[i]
		}
		snap.Histograms = append(snap.Histograms, hs)
	}
	for _, f := range r.snapHooks {
		f(snap)
	}
	return snap
}
