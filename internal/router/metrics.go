package router

import (
	"fmt"
	"strings"

	"mmr/internal/flit"
	"mmr/internal/stats"
)

// measurement is the router's live statistics state: its Sink, and what
// only the single-chip experiments of §5 report besides. It is reset at the
// warmup/measurement boundary so steady-state numbers exclude the transient
// (§5).
type measurement struct {
	cycles    int64
	generated int64

	sink Sink // where departing flits end: delay/jitter per §5, delivered counts, packet latency

	totalDelay stats.Accumulator // creation→departure, incl. NI queueing

	pktGenerated [flit.NumClasses]int64
	ctlFastPath  int64

	controlWords  int64 // in-band management commands applied (§4.3)
	framesAborted int64
	flitsDropped  int64
}

func (m *measurement) reset() {
	m.cycles = 0
	m.generated = 0
	m.sink.Reset()
	m.totalDelay.Reset()
	m.pktGenerated = [flit.NumClasses]int64{}
	m.ctlFastPath = 0
}

// transmitted returns the flits through the switch, cut-throughs included.
func (m *measurement) transmitted() int64 {
	var n int64
	for _, d := range m.sink.Delivered {
		n += d
	}
	return n
}

// utilization is transmitted flits / (ports × cycles), 0 before a cycle.
func (m *measurement) utilization(ports int) float64 {
	if m.cycles == 0 {
		return 0
	}
	return float64(m.transmitted()) / (float64(ports) * float64(m.cycles))
}

// recordDeparture notes a stream flit leaving the switch at cycle t. Delay
// is "the difference between the times a flit is ready to be transmitted
// through the switch and the time it actually leaves the switch" (§5): the
// wait at the head of the virtual channel.
func (m *measurement) recordDeparture(t int64, f *flit.Flit) {
	m.sink.Stream(f.Class, int(f.Conn), float64(t-f.HeadAt))
	m.totalDelay.Add(float64(t - f.CreatedAt))
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
		FlitsDelivered:    m.sink.Streams(),
		Delay:             *m.sink.Tracker.Delay(),
		TotalDelay:        m.totalDelay,
		Jitter:            *m.sink.Tracker.Jitter(),
		SwitchUtilization: m.utilization(r.cfg.Ports),
		PerClassDelivered: m.sink.Delivered,
		PacketsGenerated:  m.pktGenerated,
		ControlLatency:    m.sink.Latency[flit.ClassControl],
		BestEffortLatency: m.sink.Latency[flit.ClassBestEffort],
		ControlFastPath:   m.ctlFastPath,
		ControlWords:      m.controlWords,
		FramesAborted:     m.framesAborted,
		FlitsDropped:      m.flitsDropped,
	}
	out.DelayMicros = out.Delay.Mean() * r.cfg.Link.FlitCycleNanos() / 1e3
	out.ConnDelay = make([]stats.Accumulator, len(r.conns))
	out.ConnJitter = make([]stats.Accumulator, len(r.conns))
	tr := &m.sink.Tracker
	for i := range r.conns {
		out.ConnDelay[i] = *tr.ConnDelay(i)
		out.ConnJitter[i] = *tr.ConnJitter(i)
		if cj := tr.ConnJitter(i); cj.N() > 0 {
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
