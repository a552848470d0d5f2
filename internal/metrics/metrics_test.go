package metrics

import (
	"io"
	"net/http"
	"strings"
	"testing"
)

func TestCounterGaugeShardMerge(t *testing.T) {
	reg := NewSharded("node")
	c := reg.Counter("flits_total", "flits", "port", "0")
	g := reg.Gauge("occupancy", "buffered flits")
	s0, s1 := reg.NewShard(), reg.NewShard()
	s0.Store(c, 3)
	s1.Inc(c)
	s0.Set(g, 2.5)
	s1.Set(g, 1.5)

	snap := reg.Gather()
	if got, _ := counterTotal(snap, "flits_total", `port="0"`); got != 4 {
		t.Errorf("counter total = %d, want 4", got)
	}
	if got := familyTotal(snap, "flits_total"); got != 4 {
		t.Errorf("family total = %d, want 4", got)
	}
	if got, _ := gaugeTotal(snap, "occupancy", ""); got != 4.0 {
		t.Errorf("gauge total = %v, want 4", got)
	}
	if snap.Counters[0].PerShard[1] != 1 {
		t.Errorf("per-shard counter = %d, want 1", snap.Counters[0].PerShard[1])
	}
}

func TestHistogramBuckets(t *testing.T) {
	reg := New()
	h := reg.Histogram("delay", "d", []float64{1, 2, 4})
	s := reg.NewShard()
	for _, v := range []float64{0.5, 1, 1.5, 3, 100} {
		s.Observe(h, v)
	}
	snap := reg.Gather()
	hs := snap.Histograms[0]
	// le=1: 0.5, 1 → 2; le=2: 1.5 → 1; le=4: 3 → 1; overflow: 100 → 1.
	want := []int64{2, 1, 1, 1}
	for i, w := range want {
		if hs.Buckets[i] != w {
			t.Errorf("bucket[%d] = %d, want %d (%v)", i, hs.Buckets[i], w, hs.Buckets)
		}
	}
	if hs.Count != 5 || hs.Sum != 106 {
		t.Errorf("count=%d sum=%v, want 5, 106", hs.Count, hs.Sum)
	}
}

// TestHotPathZeroAlloc locks the package's core guarantee: recording on
// a shard allocates nothing.
func TestHotPathZeroAlloc(t *testing.T) {
	reg := NewSharded("node")
	c := reg.Counter("c_total", "")
	g := reg.Gauge("g", "")
	h := reg.Histogram("h", "", Pow2Buckets(1, 10))
	s := reg.NewShard()
	rec := NewRecorder(64)
	allocs := testing.AllocsPerRun(200, func() {
		s.Inc(c)
		s.Store(c, 2)
		s.Set(g, 1.0)
		s.Observe(h, 17)
		rec.Record(Event{Cycle: 1, Code: 2, Node: 3, A: 4, B: 5})
	})
	if allocs != 0 {
		t.Errorf("hot path allocates %.2f/op, want 0", allocs)
	}
}

// TestGatherDeterministic: merging shards in ascending order makes the
// float sums bit-identical run to run regardless of how the values were
// produced in parallel (here: same values, repeated gathers).
func TestGatherDeterministic(t *testing.T) {
	reg := NewSharded("node")
	h := reg.Histogram("h", "", []float64{1, 10, 100})
	shards := []*Shard{reg.NewShard(), reg.NewShard(), reg.NewShard()}
	vals := []float64{0.1, 3.7, 55.5, 1e-3, 99.9}
	for i, s := range shards {
		for _, v := range vals {
			s.Observe(h, v*float64(i+1))
		}
	}
	a, b := reg.Gather(), reg.Gather()
	if a.Histograms[0].Sum != b.Histograms[0].Sum {
		t.Errorf("gather sum not stable: %v vs %v", a.Histograms[0].Sum, b.Histograms[0].Sum)
	}
}

func TestRegistrationAfterShardPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic registering after NewShard")
		}
	}()
	reg := New()
	reg.NewShard()
	reg.Counter("late", "")
}

func TestRecorderRing(t *testing.T) {
	r := NewRecorder(4)
	for i := 0; i < 7; i++ {
		r.Record(Event{Cycle: int64(i)})
	}
	evs := r.Events(nil)
	if len(evs) != 4 || r.Total() != 7 {
		t.Fatalf("len=%d total=%d, want 4, 7", len(evs), r.Total())
	}
	for i, ev := range evs {
		if ev.Cycle != int64(3+i) {
			t.Errorf("event %d cycle = %d, want %d (oldest-first)", i, ev.Cycle, 3+i)
		}
	}
}

func TestPrometheusRendering(t *testing.T) {
	reg := NewSharded("node")
	c := reg.Counter("mmr_test_total", "help text", "port", "2")
	h := reg.Histogram("mmr_delay", "", []float64{1, 2})
	s0, s1 := reg.NewShard(), reg.NewShard()
	s0.Store(c, 5)
	s1.Store(c, 7)
	s0.Observe(h, 1.5)

	var b strings.Builder
	if err := reg.Gather().WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"# TYPE mmr_test_total counter",
		`mmr_test_total{port="2",node="0"} 5`,
		`mmr_test_total{port="2",node="1"} 7`,
		`mmr_delay_bucket{le="1"} 0`,
		`mmr_delay_bucket{le="2"} 1`,
		`mmr_delay_bucket{le="+Inf"} 1`,
		"mmr_delay_sum 1.5",
		"mmr_delay_count 1",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("prometheus output missing %q:\n%s", want, out)
		}
	}
}

func TestServerEndpoints(t *testing.T) {
	reg := New()
	c := reg.Counter("mmr_x_total", "")
	reg.NewShard().Store(c, 9)

	srv := NewServer()
	if err := srv.Serve("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	srv.Publish(reg.Gather())
	srv.PublishFlight("cycle=1 node=0 test a=0 b=0 aux=0\n")

	get := func(path string) string {
		resp, err := http.Get("http://" + srv.Addr() + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: status %d", path, resp.StatusCode)
		}
		body, _ := io.ReadAll(resp.Body)
		return string(body)
	}
	if out := get("/metrics"); !strings.Contains(out, "mmr_x_total 9") {
		t.Errorf("/metrics missing counter:\n%s", out)
	}
	if out := get("/metrics.json"); !strings.Contains(out, `"mmr_x_total"`) {
		t.Errorf("/metrics.json missing counter:\n%s", out)
	}
	if out := get("/flight"); !strings.Contains(out, "cycle=1") {
		t.Errorf("/flight missing dump:\n%s", out)
	}
	if out := get("/debug/pprof/cmdline"); out == "" {
		t.Error("/debug/pprof/cmdline empty")
	}
}

// familyTotal sums the Total of every counter series of family name,
// across its label variants.
func familyTotal(s *Snapshot, name string) int64 {
	var t int64
	for _, c := range s.Counters {
		if c.Name == name {
			t += c.Total
		}
	}
	return t
}

// counterTotal is the Total of the counter series name with exactly the
// rendered labels ("" for the unlabeled series).
func counterTotal(s *Snapshot, name, labels string) (int64, bool) {
	for _, c := range s.Counters {
		if c.Name == name && c.Labels == labels {
			return c.Total, true
		}
	}
	return 0, false
}

// gaugeTotal is the Total of the gauge series name with exactly the
// rendered labels.
func gaugeTotal(s *Snapshot, name, labels string) (float64, bool) {
	for _, g := range s.Gauges {
		if g.Name == name && g.Labels == labels {
			return g.Total, true
		}
	}
	return 0, false
}
