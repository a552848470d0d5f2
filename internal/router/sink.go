package router

import (
	"mmr/internal/flit"
	"mmr/internal/metrics"
	"mmr/internal/stats"
)

// Sink is where a flit's life ends under either engine — Router's switch
// departure, the single-chip model's sink, and a fabric node's ejection to
// its host — and the one place its §5 measurements are taken: delay, and
// jitter as the difference between the delays of successive flits on a
// connection, the delivered counts, packet latency, and the per-class delay
// and jitter histograms on the engine's metric shard. What a delay is —
// head of VC to departure in Router, creation to ejection in a fabric — is
// the engine's to say; the Sink records what it is handed.
type Sink struct {
	Tracker   stats.JitterTracker                // stream delay and jitter per connection slot
	Delivered [flit.NumClasses]int64             // flits delivered, per class
	Latency   [flit.NumClasses]stats.Accumulator // packets' cycles from creation to delivery, per class

	sh     *metrics.Shard // nil until Bind: no histograms
	series *SinkSeries
}

// SinkSeries are the handles RegisterSink returns, shared by every Sink
// bound to one of the registry's shards.
type SinkSeries struct {
	delay, jitter [flit.NumClasses]metrics.Histogram
	packetDelay   bool
}

// Family is one histogram family as an engine spells it.
type Family struct {
	Name, Help string
	Buckets    []float64
}

// RegisterSink registers, class by class, one delay and one jitter
// histogram of the families given on reg, labelled class as label spells
// the class. packetDelay says whether a packet's latency is also a sample
// of its class's delay histogram.
func RegisterSink(reg *metrics.Registry, label func(flit.Class) string, delay, jitter Family, packetDelay bool) *SinkSeries {
	s := &SinkSeries{packetDelay: packetDelay}
	for c := range flit.NumClasses {
		cl := label(flit.Class(c))
		s.delay[c] = reg.Histogram(delay.Name, delay.Help, delay.Buckets, "class", cl)
		s.jitter[c] = reg.Histogram(jitter.Name, jitter.Help, jitter.Buckets, "class", cl)
	}
	return s
}

// Bind makes s observe into sh under the handles series holds.
func (s *Sink) Bind(sh *metrics.Shard, series *SinkSeries) { s.sh, s.series = sh, series }

// Stream records a flit of the connection in tracker slot slot delivered
// after delay cycles and returns the jitter sample it made; the first flit
// of a connection makes none (ok is false).
func (s *Sink) Stream(class flit.Class, slot int, delay float64) (jitter float64, ok bool) {
	s.Delivered[class]++
	jitter, ok = s.Tracker.Record(slot, delay)
	if s.sh != nil {
		s.sh.Observe(s.series.delay[class], delay)
		if ok {
			s.sh.Observe(s.series.jitter[class], jitter)
		}
	}
	return jitter, ok
}

// Packet records a packet delivered latency cycles after it was created.
func (s *Sink) Packet(class flit.Class, latency float64) {
	s.Delivered[class]++
	s.Latency[class].Add(latency)
	if s.sh != nil && s.series.packetDelay {
		s.sh.Observe(s.series.delay[class], latency)
	}
}

// Streams returns the stream flits delivered.
func (s *Sink) Streams() int64 { return s.Delivered[flit.ClassCBR] + s.Delivered[flit.ClassVBR] }

// Reset starts a measurement window. The counts and accumulators go to
// zero, and so does the shard s observes into — all of it, so that every
// hot-path series of the engine covers the window — but each connection
// keeps the delay of its last flit: the first flit after the boundary
// makes a true jitter sample, not a spike.
func (s *Sink) Reset() {
	s.Tracker.Reset()
	s.Delivered = [flit.NumClasses]int64{}
	s.Latency = [flit.NumClasses]stats.Accumulator{}
	if s.sh != nil {
		s.sh.Reset()
	}
}
