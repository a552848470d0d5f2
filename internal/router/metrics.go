package router

import (
	"fmt"
	"strings"

	"mmr/internal/flit"
	"mmr/internal/metrics"
	"mmr/internal/sched"
	"mmr/internal/stats"
)

// measurement is the router's live statistics state. It is reset at the
// warmup/measurement boundary so steady-state numbers exclude the
// transient (§5).
type measurement struct {
	cycles      int64
	generated   int64
	transmitted int64

	tracker *stats.JitterTracker // stream delay/jitter per §5 definitions

	totalDelay stats.Accumulator // creation→departure, incl. NI queueing
	vcmDelay   stats.Accumulator // VCM entry→departure

	delayHist  *stats.Histogram // head-delay distribution (cycles)
	jitterHist *stats.Histogram // jitter distribution (cycles)

	perClass     [flit.NumClasses]int64
	pktGenerated [flit.NumClasses]int64
	pktLatency   [flit.NumClasses]stats.Accumulator
	ctlFastPath  int64

	controlWords  int64 // in-band management commands applied (§4.3)
	framesAborted int64
	flitsDropped  int64

	// Observability hooks (observe.go): the router's metric shard and
	// the per-class histogram handles recordDeparture feeds. nil until
	// initMetrics wires them (and in tests constructing measurement
	// directly).
	obs       *metrics.Shard
	obsDelay  [flit.NumClasses]metrics.Histogram
	obsJitter [flit.NumClasses]metrics.Histogram
}

func (m *measurement) init() {
	m.tracker = stats.NewJitterTracker(0)
	m.delayHist = stats.NewHistogram(0, 512, 512)
	m.jitterHist = stats.NewHistogram(0, 256, 512)
}

func (m *measurement) reset() {
	m.cycles = 0
	m.generated = 0
	m.transmitted = 0
	m.tracker.Reset() // keeps per-connection delay baselines (no fake jitter spike)
	m.totalDelay.Reset()
	m.vcmDelay.Reset()
	m.delayHist = stats.NewHistogram(0, 512, 512)
	m.jitterHist = stats.NewHistogram(0, 256, 512)
	for i := range m.perClass {
		m.perClass[i] = 0
		m.pktGenerated[i] = 0
		m.pktLatency[i].Reset()
	}
	m.ctlFastPath = 0
	if m.obs != nil {
		m.obs.Reset() // histograms track the same measurement window
	}
}

func (m *measurement) cycleDone() { m.cycles++ }

// recordDeparture notes a flit leaving the switch at cycle t. Delay is
// "the difference between the times a flit is ready to be transmitted
// through the switch and the time it actually leaves the switch" (§5):
// the wait at the head of the virtual channel.
func (m *measurement) recordDeparture(t int64, f *flit.Flit, cand sched.Candidate) {
	m.transmitted++
	m.perClass[f.Class]++
	if f.Class.IsStream() {
		delay := float64(t - f.HeadAt)
		jitter, hasJitter := m.tracker.Record(int(f.Conn), delay)
		m.vcmDelay.Add(float64(t - f.ReadyAt))
		m.totalDelay.Add(float64(t - f.CreatedAt))
		m.delayHist.Add(delay)
		if m.obs != nil {
			m.obs.Observe(m.obsDelay[f.Class], delay)
		}
		if hasJitter {
			m.jitterHist.Add(jitter)
			if m.obs != nil {
				m.obs.Observe(m.obsJitter[f.Class], jitter)
			}
		}
	}
}

// recordPacketDelivery notes a VCT packet completing, either via the
// asynchronous fast path or after synchronous scheduling.
func (m *measurement) recordPacketDelivery(t int64, f *flit.Flit, fastPath bool) {
	m.pktLatency[f.Class].Add(float64(t - f.CreatedAt))
	if fastPath {
		m.ctlFastPath++
		m.perClass[f.Class]++
		m.transmitted++
	}
}

// Metrics is an immutable snapshot of one measurement window.
type Metrics struct {
	Cycles int64

	// FlitsGenerated and FlitsDelivered count stream flits; packets are
	// reported separately.
	FlitsGenerated int64
	FlitsDelivered int64

	// Delay (flit cycles): aggregate over all stream flits.
	Delay stats.Accumulator
	// VCMDelay (flit cycles) measures VCM entry→departure, adding the
	// within-VC queueing ahead of the head slot.
	VCMDelay stats.Accumulator
	// TotalDelay (flit cycles) measures creation→departure, including
	// buffer queueing ahead of the switch — the end-to-end single-router
	// latency a network interface observes.
	TotalDelay stats.Accumulator
	// Jitter (flit cycles): aggregate over all jitter samples, the
	// flit-weighted mean the figures report.
	Jitter stats.Accumulator
	// ConnMeanJitter averages each connection's mean jitter with equal
	// connection weight — the §5.2 discussion notes fast connections sit
	// below the average and slow ones above.
	ConnMeanJitter stats.Accumulator

	// DelayP50/P99 and JitterP99 are distribution quantiles in flit
	// cycles (histogram-estimated).
	DelayP50, DelayP99, JitterP99 float64

	// SwitchUtilization is transmitted flits / (ports × cycles).
	SwitchUtilization float64

	// DelayMicros converts mean delay into microseconds on the configured
	// link (Figure 4's unit).
	DelayMicros float64

	// ConnDelay and ConnJitter are per-connection accumulators indexed by
	// connection ID, for per-rate breakdowns (§5.2 discusses how jitter
	// varies with connection speed).
	ConnDelay  []stats.Accumulator
	ConnJitter []stats.Accumulator

	PerClassDelivered [flit.NumClasses]int64
	PacketsGenerated  [flit.NumClasses]int64
	ControlLatency    stats.Accumulator // cycles, created→delivered
	BestEffortLatency stats.Accumulator
	ControlFastPath   int64

	// Dynamic bandwidth management (§4.3).
	ControlWords  int64 // commands applied
	FramesAborted int64
	FlitsDropped  int64
}

// snapshot builds a Metrics from the live measurement state.
func (m *measurement) snapshot(r *Router) *Metrics {
	out := &Metrics{
		Cycles:            m.cycles,
		FlitsGenerated:    m.generated,
		FlitsDelivered:    m.perClass[flit.ClassCBR] + m.perClass[flit.ClassVBR],
		Delay:             *m.tracker.Delay(),
		VCMDelay:          m.vcmDelay,
		TotalDelay:        m.totalDelay,
		Jitter:            *m.tracker.Jitter(),
		PerClassDelivered: m.perClass,
		PacketsGenerated:  m.pktGenerated,
		ControlLatency:    m.pktLatency[flit.ClassControl],
		BestEffortLatency: m.pktLatency[flit.ClassBestEffort],
		ControlFastPath:   m.ctlFastPath,
		ControlWords:      m.controlWords,
		FramesAborted:     m.framesAborted,
		FlitsDropped:      m.flitsDropped,
	}
	if m.cycles > 0 {
		out.SwitchUtilization = float64(m.transmitted) / (float64(r.cfg.Ports) * float64(m.cycles))
	}
	out.DelayMicros = out.Delay.Mean() * r.cfg.Link.FlitCycleNanos() / 1e3
	out.DelayP50 = m.delayHist.Quantile(0.5)
	out.DelayP99 = m.delayHist.Quantile(0.99)
	out.JitterP99 = m.jitterHist.Quantile(0.99)
	out.ConnDelay = make([]stats.Accumulator, len(r.conns))
	out.ConnJitter = make([]stats.Accumulator, len(r.conns))
	for i := range r.conns {
		out.ConnDelay[i] = *m.tracker.ConnDelay(i)
		out.ConnJitter[i] = *m.tracker.ConnJitter(i)
		if cj := m.tracker.ConnJitter(i); cj.N() > 0 {
			out.ConnMeanJitter.Add(cj.Mean())
		}
	}
	return out
}

// String renders a one-line summary.
func (m *Metrics) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "cycles=%d delivered=%d delay=%.3f cyc (%.3f µs) jitter=%.3f cyc util=%.3f",
		m.Cycles, m.FlitsDelivered, m.Delay.Mean(), m.DelayMicros, m.Jitter.Mean(), m.SwitchUtilization)
	return b.String()
}
