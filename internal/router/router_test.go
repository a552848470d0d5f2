package router

import (
	"math"
	"testing"

	"mmr/internal/flit"
	"mmr/internal/sched"
	"mmr/internal/sim"
	"mmr/internal/traffic"
	"mmr/internal/vcm"
)

// smallConfig returns a 4-port router with few VCs for fast tests.
func smallConfig() Config {
	c := PaperConfig()
	c.Ports = 4
	c.VCM = vcm.Config{VirtualChannels: 64, Depth: 4}
	c.K = 2
	c.MaxCandidates = 4
	return c
}

func TestConfigValidation(t *testing.T) {
	bad := []func(*Config){
		func(c *Config) { c.Ports = 1 },
		func(c *Config) { c.Link.Bandwidth = 0 },
		func(c *Config) { c.K = 0 },
		func(c *Config) { c.MaxCandidates = 0 },
		func(c *Config) { c.Concurrency = 0.5 },
	}
	for i, mutate := range bad {
		c := smallConfig()
		mutate(&c)
		if _, err := New(c); err == nil {
			t.Errorf("bad config %d accepted", i)
		}
	}
	if _, err := New(PaperConfig()); err != nil {
		t.Fatalf("paper config rejected: %v", err)
	}
}

func TestArbiterKindString(t *testing.T) {
	if ArbPriority.String() != "priority" || ArbAutonet.String() != "autonet" || ArbPerfect.String() != "perfect" {
		t.Fatal("arbiter kind strings wrong")
	}
}

func TestEstablishReservesResources(t *testing.T) {
	cfg := smallConfig()
	cfg.Admission = AdmitAllocation
	r, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	conn, err := r.Establish(traffic.ConnSpec{Class: flit.ClassCBR, Rate: 120 * traffic.Mbps, In: 1, Out: 2})
	if err != nil {
		t.Fatal(err)
	}
	st := r.Memory(1).State(conn.VC)
	if !st.InUse || st.Class != flit.ClassCBR || st.Output != 2 {
		t.Fatalf("VC state wrong: %+v", st)
	}
	// 120 Mbps on a 1.24 Gbps link with a 32-cycle round: ceil(120/1240×32)=4.
	if want := r.cfg.Link.CyclesPerRound(120*traffic.Mbps, r.cfg.RoundLen()); st.Allocated != want {
		t.Fatalf("allocation = %d, want %d", st.Allocated, want)
	}
	if r.Allocator(2).Guaranteed() != st.Allocated || r.Allocator(2).Connections() != 1 {
		t.Fatal("output allocator not charged")
	}
	// The biased scheme's aging interval is the guaranteed service
	// interval: roundLen / allocation.
	if want := float64(r.cfg.RoundLen()) / float64(st.Allocated); st.InterArrival != want {
		t.Fatalf("service interval = %v, want %v", st.InterArrival, want)
	}
}

func TestEstablishErrors(t *testing.T) {
	r, _ := New(smallConfig())
	if _, err := r.Establish(traffic.ConnSpec{Class: flit.ClassCBR, Rate: traffic.Mbps, In: -1, Out: 0}); err == nil {
		t.Fatal("bad port accepted")
	}
	if _, err := r.Establish(traffic.ConnSpec{Class: flit.ClassBestEffort, Rate: traffic.Mbps, In: 0, Out: 1}); err == nil {
		t.Fatal("non-stream class accepted")
	}
	// Overload one output link beyond capacity.
	for i := 0; ; i++ {
		_, err := r.Establish(traffic.ConnSpec{Class: flit.ClassCBR, Rate: 300 * traffic.Mbps, In: i % 4, Out: 3})
		if err != nil {
			if i < 4 {
				t.Fatalf("admission refused too early (%d conns): %v", i, err)
			}
			break
		}
		if i > 100 {
			t.Fatal("admission never refused")
		}
	}
}

func TestEstablishVBR(t *testing.T) {
	cfg := smallConfig()
	cfg.Admission = AdmitAllocation
	r, _ := New(cfg)
	conn, err := r.Establish(traffic.ConnSpec{
		Class: flit.ClassVBR, Rate: 20 * traffic.Mbps, PeakRate: 60 * traffic.Mbps,
		In: 0, Out: 1, Priority: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	st := r.Memory(0).State(conn.VC)
	if st.Peak <= st.Allocated {
		t.Fatalf("VBR peak (%d) must exceed permanent (%d)", st.Peak, st.Allocated)
	}
	if st.BasePriority != 3 {
		t.Fatal("priority not installed")
	}
	if r.Allocator(1).PeakTotal() != st.Peak {
		t.Fatal("peak register not charged")
	}
}

func TestSingleConnectionDelivery(t *testing.T) {
	cfg := smallConfig()
	r, _ := New(cfg)
	if _, err := r.Establish(traffic.ConnSpec{Class: flit.ClassCBR, Rate: 120 * traffic.Mbps, In: 0, Out: 1}); err != nil {
		t.Fatal(err)
	}
	m := r.Run(1000, 10000)
	// 120 Mbps ≈ 0.0968 flits/cycle → ~968 flits in 10k cycles.
	want := cfg.Link.FlitsPerCycle(120*traffic.Mbps) * 10000
	if math.Abs(float64(m.FlitsDelivered)-want) > 3 {
		t.Fatalf("delivered %d flits, want ~%.0f", m.FlitsDelivered, want)
	}
	// Uncontended: every flit leaves one cycle after reaching the head.
	if m.Delay.Mean() != 1 || m.Delay.Max() != 1 {
		t.Fatalf("uncontended delay = %v (max %v), want exactly 1", m.Delay.Mean(), m.Delay.Max())
	}
	if m.Jitter.Mean() != 0 {
		t.Fatalf("uncontended jitter = %v, want 0", m.Jitter.Mean())
	}
}

func TestContendedOutputSharesBandwidth(t *testing.T) {
	cfg := smallConfig()
	r, _ := New(cfg)
	// Two 300 Mbps connections from different inputs to the same output:
	// combined <1.24 Gbps, so both must receive full throughput.
	for in := 0; in < 2; in++ {
		if _, err := r.Establish(traffic.ConnSpec{Class: flit.ClassCBR, Rate: 300 * traffic.Mbps, In: in, Out: 3}); err != nil {
			t.Fatal(err)
		}
	}
	m := r.Run(2000, 20000)
	want := 2 * cfg.Link.FlitsPerCycle(300*traffic.Mbps) * 20000
	if math.Abs(float64(m.FlitsDelivered)-want) > 10 {
		t.Fatalf("delivered %d, want ~%.0f", m.FlitsDelivered, want)
	}
	if m.Delay.Mean() > 3 {
		t.Fatalf("light contention delay = %v, want small", m.Delay.Mean())
	}
}

func TestFlitConservation(t *testing.T) {
	cfg := smallConfig()
	r, _ := New(cfg)
	for in := 0; in < 4; in++ {
		for k := 0; k < 3; k++ {
			r.Establish(traffic.ConnSpec{Class: flit.ClassCBR, Rate: 100 * traffic.Mbps, In: in, Out: (in + k) % 4})
		}
	}
	m := r.Run(0, 30000)
	buffered := int64(0)
	for p := 0; p < 4; p++ {
		buffered += int64(r.Memory(p).Occupied())
	}
	queued := int64(0)
	for _, c := range r.Connections() {
		queued += int64(c.ni.Queue.Len())
	}
	if m.FlitsGenerated != m.FlitsDelivered+buffered+queued {
		t.Fatalf("conservation violated: gen=%d del=%d buf=%d queued=%d",
			m.FlitsGenerated, m.FlitsDelivered, buffered, queued)
	}
}

func TestRoundBandwidthEnforcement(t *testing.T) {
	cfg := smallConfig()
	r, _ := New(cfg)
	conn, _ := r.Establish(traffic.ConnSpec{Class: flit.ClassCBR, Rate: 100 * traffic.Mbps, In: 0, Out: 1})
	// Pre-load the VC far beyond its allocation by injecting a burst
	// directly into the NI queue.
	for i := 0; i < 200; i++ {
		conn.ni.Queue.Push(&flit.Flit{Conn: conn.ID, Class: flit.ClassCBR})
	}
	alloc := r.Memory(0).State(conn.VC).Allocated
	roundLen := int64(r.cfg.RoundLen())
	delivered := make(map[int64]int64) // per round
	for r.now < 10*roundLen {
		before := r.m.sink.Delivered[flit.ClassCBR]
		r.Step()
		if d := r.m.sink.Delivered[flit.ClassCBR] - before; d > 0 {
			delivered[(r.now-1)/roundLen] += d
		}
	}
	for round, n := range delivered {
		if n > int64(alloc) {
			t.Fatalf("round %d delivered %d flits, allocation %d", round, n, alloc)
		}
	}
	if len(delivered) < 5 {
		t.Fatal("backlogged connection made no steady progress")
	}
}

func TestPerfectSwitchIsLowerBound(t *testing.T) {
	base := smallConfig()
	load := 0.8
	run := func(kind ArbiterKind) *Metrics {
		cfg := base
		cfg.Arbiter = kind
		r, _ := New(cfg)
		w := mustWorkload(t, cfg, load, 7)
		if _, err := r.EstablishWorkload(w); err != nil {
			t.Fatal(err)
		}
		return r.Run(5000, 30000)
	}
	perfect := run(ArbPerfect)
	priority := run(ArbPriority)
	if perfect.Delay.Mean() > priority.Delay.Mean()+1e-9 {
		t.Fatalf("perfect delay %.3f > priority %.3f", perfect.Delay.Mean(), priority.Delay.Mean())
	}
}

func TestBiasedBeatsFixedUnderLoad(t *testing.T) {
	base := smallConfig()
	load := 0.85
	run := func(scheme sched.PriorityScheme) *Metrics {
		cfg := base
		cfg.Scheme = scheme
		cfg.MaxCandidates = 2
		r, _ := New(cfg)
		w := mustWorkload(t, cfg, load, 11)
		if _, err := r.EstablishWorkload(w); err != nil {
			t.Fatal(err)
		}
		return r.Run(10000, 60000)
	}
	biased := run(sched.Biased{})
	fixed := run(sched.Fixed{})
	// §5.2 shape: end-to-end, the biased scheme serves the workload with
	// less latency and far less jitter than static priorities. TotalDelay
	// (creation→departure) is the survivorship-proof comparison — fixed
	// priorities starve some connections, whose waiting would otherwise
	// hide in source queues.
	if biased.TotalDelay.Mean() >= fixed.TotalDelay.Mean() {
		t.Fatalf("§5.2 shape violated: biased total delay %.3f >= fixed %.3f",
			biased.TotalDelay.Mean(), fixed.TotalDelay.Mean())
	}
	if biased.ConnMeanJitter.Mean() >= fixed.ConnMeanJitter.Mean() {
		t.Fatalf("§5.2 shape violated: biased per-connection jitter %.3f >= fixed %.3f",
			biased.ConnMeanJitter.Mean(), fixed.ConnMeanJitter.Mean())
	}
}

func mustWorkload(t *testing.T, cfg Config, load float64, seed uint64) *traffic.Workload {
	t.Helper()
	wcfg := traffic.WorkloadConfig{
		Ports: cfg.Ports, Link: cfg.Link, Rates: traffic.PaperRates,
		TargetLoad: load, MaxPortLoad: 1,
	}
	w, err := traffic.Generate(wcfg, sim.NewRNG(seed))
	if err != nil {
		t.Fatal(err)
	}
	return w
}

func TestUtilizationTracksOfferedLoad(t *testing.T) {
	cfg := smallConfig()
	r, _ := New(cfg)
	w := mustWorkload(t, cfg, 0.6, 3)
	if _, err := r.EstablishWorkload(w); err != nil {
		t.Fatal(err)
	}
	m := r.Run(5000, 40000)
	if math.Abs(m.SwitchUtilization-w.OfferedLoad) > 0.05 {
		t.Fatalf("utilization %.3f vs offered %.3f", m.SwitchUtilization, w.OfferedLoad)
	}
}

func TestControlFastPath(t *testing.T) {
	cfg := smallConfig()
	r, _ := New(cfg)
	if err := r.AddControlFlow(0, 1, 0.01); err != nil {
		t.Fatal(err)
	}
	m := r.Run(0, 20000)
	if m.PacketsGenerated[flit.ClassControl] == 0 {
		t.Fatal("no control packets generated")
	}
	// With an otherwise idle router nearly every control packet cuts
	// through; only same-cycle arrivals behind another cut-through buffer.
	delivered := m.PerClassDelivered[flit.ClassControl]
	if float64(m.ControlFastPath) < 0.9*float64(delivered) {
		t.Fatalf("fast path %d of %d control packets on an idle router", m.ControlFastPath, delivered)
	}
	if m.ControlLatency.Mean() > 0.5 {
		t.Fatalf("idle-router control latency = %v, want ~0 (cut-through)", m.ControlLatency.Mean())
	}
}

func TestBestEffortDeliveryAndVCRelease(t *testing.T) {
	cfg := smallConfig()
	r, _ := New(cfg)
	if err := r.AddBestEffortFlow(2, 3, 0.05); err != nil {
		t.Fatal(err)
	}
	m := r.Run(0, 20000)
	if m.PerClassDelivered[flit.ClassBestEffort] == 0 {
		t.Fatal("no best-effort packets delivered")
	}
	// All packet VCs must have been released (1-flit packets, idle router).
	if free := r.Memory(2).FreeVCs(); free != cfg.VCM.VirtualChannels {
		t.Fatalf("VCs leaked: %d free of %d", free, cfg.VCM.VirtualChannels)
	}
	if m.BestEffortLatency.Mean() < 1 {
		t.Fatal("buffered best-effort packets cannot be delivered in zero cycles")
	}
}

func TestBestEffortYieldsToStreams(t *testing.T) {
	cfg := smallConfig()
	r, _ := New(cfg)
	// Saturate output 1 with a CBR stream at full link rate from input 0,
	// plus best-effort from input 1 to the same output.
	if _, err := r.Establish(traffic.ConnSpec{Class: flit.ClassCBR, Rate: 1.2 * traffic.Gbps, In: 0, Out: 1}); err != nil {
		t.Fatal(err)
	}
	r.AddBestEffortFlow(1, 1, 0.1)
	m := r.Run(2000, 20000)
	// The stream keeps nearly full throughput despite best-effort pressure.
	want := cfg.Link.FlitsPerCycle(1.2*traffic.Gbps) * 20000
	if float64(m.PerClassDelivered[flit.ClassCBR]) < want*0.97 {
		t.Fatalf("CBR delivered %d, want ≥ %.0f (97%% of demand)", m.PerClassDelivered[flit.ClassCBR], want*0.97)
	}
}

func TestAddFlowErrors(t *testing.T) {
	r, _ := New(smallConfig())
	if err := r.AddBestEffortFlow(-1, 0, 0.1); err == nil {
		t.Fatal("bad BE port accepted")
	}
	if err := r.AddControlFlow(0, 99, 0.1); err == nil {
		t.Fatal("bad control port accepted")
	}
}

func TestEstablishWorkload(t *testing.T) {
	cfg := PaperConfig()
	r, _ := New(cfg)
	w := mustWorkload(t, cfg, 0.5, 21)
	n, err := r.EstablishWorkload(w)
	if err != nil {
		t.Fatal(err)
	}
	if n != len(w.Conns) || len(r.Connections()) != n {
		t.Fatalf("established %d of %d", n, len(w.Conns))
	}
}

func TestFixedPriorityAssignments(t *testing.T) {
	// Fixed: the faster connection gets strictly higher priority.
	cfg := smallConfig()
	cfg.Scheme = sched.Fixed{}
	r, _ := New(cfg)
	slow, _ := r.Establish(traffic.ConnSpec{Class: flit.ClassCBR, Rate: traffic.Mbps, In: 0, Out: 1})
	fast, _ := r.Establish(traffic.ConnSpec{Class: flit.ClassCBR, Rate: 55 * traffic.Mbps, In: 0, Out: 2})
	if r.Memory(0).State(fast.VC).BasePriority <= r.Memory(0).State(slow.VC).BasePriority {
		t.Fatal("by-rate priorities not ordered by rate")
	}

	// Under the biased scheme the spec priority is also preserved.
	cfg.Scheme = sched.Biased{}
	r4, _ := New(cfg)
	cb, _ := r4.Establish(traffic.ConnSpec{Class: flit.ClassCBR, Rate: traffic.Mbps, In: 0, Out: 1, Priority: 7})
	if r4.Memory(0).State(cb.VC).BasePriority != 7 {
		t.Fatal("biased scheme must not rewrite spec priority")
	}
}

func TestMetricsString(t *testing.T) {
	r, _ := New(smallConfig())
	r.Establish(traffic.ConnSpec{Class: flit.ClassCBR, Rate: 10 * traffic.Mbps, In: 0, Out: 1})
	m := r.Run(100, 1000)
	if s := m.String(); s == "" {
		t.Fatal("empty metrics string")
	}
}
