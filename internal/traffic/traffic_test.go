package traffic

import (
	"fmt"
	"math"
	"testing"
	"testing/quick"

	"mmr/internal/flit"
	"mmr/internal/sim"
)

// TestRateString pins the text of the paper's rates, zero, each unit's
// boundary from both sides and fractions, and holds the rest of the range
// to what %.4g writes.
func TestRateString(t *testing.T) {
	cases := map[Rate]string{
		1.24 * Gbps:      "1.24Gbps",
		500:              "500bps",
		0:                "0bps",
		0.5:              "0.5bps",
		999.99:           "1000bps",
		Kbps:             "1Kbps",
		Mbps - 1:         "1000Kbps",
		Mbps:             "1Mbps",
		Gbps - 1e4:       "1000Mbps",
		Gbps:             "1Gbps",
		Mbps / 3:         "333.3Kbps",
		12345.678 * Gbps: "1.235e+04Gbps",
	}
	for r, want := range cases {
		if got := r.String(); got != want {
			t.Errorf("%v.String() = %q, want %q", float64(r), got, want)
		}
	}
	for i, want := range []string{"64Kbps", "128Kbps", "1.54Mbps", "2Mbps", "5Mbps", "10Mbps", "20Mbps", "55Mbps", "120Mbps"} {
		if got := PaperRates[i].String(); got != want {
			t.Errorf("PaperRates[%d].String() = %q, want %q", i, got, want)
		}
	}
	rng := sim.NewRNG(5)
	for i := 0; i < 100_000; i++ {
		r := Rate(math.Pow(10, 12*rng.Float64()-1))
		var want string
		switch {
		case r >= Gbps:
			want = fmt.Sprintf("%.4gGbps", float64(r/Gbps))
		case r >= Mbps:
			want = fmt.Sprintf("%.4gMbps", float64(r/Mbps))
		case r >= Kbps:
			want = fmt.Sprintf("%.4gKbps", float64(r/Kbps))
		default:
			want = fmt.Sprintf("%.4gbps", float64(r))
		}
		if got := r.String(); got != want {
			t.Fatalf("%v.String() = %q, %%.4g writes %q", float64(r), got, want)
		}
	}
}

func TestPaperLinkGeometry(t *testing.T) {
	l := PaperLink
	// 128 bits at 1.24 Gbps ≈ 103.2 ns per flit cycle (§5: "a flit cycle is
	// approximately 103 ns").
	if ns := l.FlitCycleNanos(); math.Abs(ns-103.2) > 0.2 {
		t.Fatalf("flit cycle = %.2f ns, want ~103.2", ns)
	}
	if pf := l.FlitBits / l.PhitBits; pf != 8 {
		t.Fatalf("phits/flit = %d, want 8", pf)
	}
	if cps := l.CyclesPerSecond(); math.Abs(cps-9.6875e6) > 1 {
		t.Fatalf("cycles/s = %v", cps)
	}
}

func TestPaperRates(t *testing.T) {
	if len(PaperRates) != 9 {
		t.Fatalf("rate population has %d entries, want 9", len(PaperRates))
	}
	for i := 1; i < len(PaperRates); i++ {
		if PaperRates[i] <= PaperRates[i-1] {
			t.Fatal("rates must be ascending")
		}
	}
}

func TestInterArrival(t *testing.T) {
	l := PaperLink
	// A 120 Mbps connection on a 1.24 Gbps link sends a flit every
	// 1240/120 ≈ 10.33 cycles.
	if ia := l.interArrivalCycles(120 * Mbps); math.Abs(ia-1240.0/120) > 1e-9 {
		t.Fatalf("inter-arrival = %v", ia)
	}
	if l.interArrivalCycles(0) != 0 {
		t.Fatal("zero rate should yield 0 inter-arrival sentinel")
	}
}

func TestCyclesPerRound(t *testing.T) {
	l := PaperLink
	round := 512 // K=2 × V=256
	// 64 Kbps demands far less than one cycle per round but must round up
	// to the minimum allocation of 1.
	if c := l.CyclesPerRound(64*Kbps, round); c != 1 {
		t.Fatalf("64Kbps: %d cycles/round, want 1", c)
	}
	// 120 Mbps: 120/1240 × 512 ≈ 49.5 → 50.
	if c := l.CyclesPerRound(120*Mbps, round); c != 50 {
		t.Fatalf("120Mbps: %d cycles/round, want 50", c)
	}
	if c := l.CyclesPerRound(0, round); c != 0 {
		t.Fatalf("zero rate: %d, want 0", c)
	}
}

func TestCBRSourceRate(t *testing.T) {
	l := PaperLink
	for _, r := range PaperRates {
		s := NewCBRSource(l, r, 0)
		const cycles = 2_000_000
		n := 0
		for c := int64(0); c < cycles; c++ {
			n += s.Tick(c)
		}
		want := l.FlitsPerCycle(r) * cycles
		if math.Abs(float64(n)-want) > 1.5 {
			t.Errorf("rate %v: %d flits over %d cycles, want %.1f", r, n, cycles, want)
		}
	}
}

func TestCBRSourceConstantSpacing(t *testing.T) {
	l := PaperLink
	s := NewCBRSource(l, 120*Mbps, 0)
	var gaps []int64
	last := int64(-1)
	for c := int64(0); c < 100000; c++ {
		if s.Tick(c) > 0 {
			if last >= 0 {
				gaps = append(gaps, c-last)
			}
			last = c
		}
	}
	// Inter-arrival ≈ 10.33 cycles: every gap must be 10 or 11.
	for _, g := range gaps {
		if g != 10 && g != 11 {
			t.Fatalf("CBR gap %d not in {10,11}", g)
		}
	}
}

func TestCBRPhaseOffsetsArrivals(t *testing.T) {
	l := PaperLink
	a := NewCBRSource(l, 120*Mbps, 0)
	b := NewCBRSource(l, 120*Mbps, 0.9)
	firstA, firstB := int64(-1), int64(-1)
	for c := int64(0); c < 100; c++ {
		if firstA < 0 && a.Tick(c) > 0 {
			firstA = c
		}
		if firstB < 0 && b.Tick(c) > 0 {
			firstB = c
		}
	}
	if firstB >= firstA {
		t.Fatalf("phase 0.9 should arrive earlier: A at %d, B at %d", firstA, firstB)
	}
}

func TestBestEffortSourceRate(t *testing.T) {
	rng := sim.NewRNG(1)
	s := NewBestEffortSource(rng, 0.05)
	const cycles = 500000
	n := 0
	for c := int64(0); c < cycles; c++ {
		n += s.Tick(c)
	}
	want := 0.05 * cycles
	if math.Abs(float64(n)-want) > 5*math.Sqrt(want) {
		t.Fatalf("Poisson source: %d arrivals, want ~%.0f", n, want)
	}
}

func TestBestEffortZeroRate(t *testing.T) {
	s := NewBestEffortSource(sim.NewRNG(1), 0)
	for c := int64(0); c < 1000; c++ {
		if s.Tick(c) != 0 {
			t.Fatal("zero-rate source produced a packet")
		}
	}
}

func TestVBRSourceMeanRate(t *testing.T) {
	rng := sim.NewRNG(3)
	l := PaperLink
	avg := 20 * Mbps
	s := NewVBRSource(rng, l, avg, 60*Mbps, DefaultGoP())
	// One GoP is exactly 3,875,000 cycles at 30 fps on the paper link;
	// measure over 10 whole GoPs so the I/P/B pattern phase cancels.
	const cycles = 38_750_000
	n := 0
	for c := int64(0); c < cycles; c++ {
		n += s.Tick(c)
	}
	got := float64(n) / cycles
	want := l.FlitsPerCycle(avg)
	if math.Abs(got-want)/want > 0.05 {
		t.Fatalf("VBR mean rate = %.5f flits/cycle, want ~%.5f", got, want)
	}
}

func TestVBRSourceRespectsPeak(t *testing.T) {
	rng := sim.NewRNG(4)
	l := PaperLink
	peak := 40 * Mbps
	s := NewVBRSource(rng, l, 20*Mbps, peak, DefaultGoP())
	peakPerCycle := l.FlitsPerCycle(peak)
	// Over any window of W cycles the source may emit at most
	// ceil(W*peak)+1 flits (the +1 absorbs accumulator carry).
	const W = 1000
	window := 0
	for c := int64(0); c < 2_000_000; c++ {
		window += s.Tick(c)
		if c%W == W-1 {
			if limit := int(peakPerCycle*W) + 2; window > limit {
				t.Fatalf("window emitted %d flits, peak limit %d", window, limit)
			}
			window = 0
		}
	}
}

func TestVBRPeakBelowAvgClamped(t *testing.T) {
	rng := sim.NewRNG(5)
	s := NewVBRSource(rng, PaperLink, 20*Mbps, 5*Mbps, DefaultGoP())
	if s.peakPer < PaperLink.FlitsPerCycle(20*Mbps) {
		t.Fatal("peak below average must clamp up to average")
	}
}

func TestGoPStructure(t *testing.T) {
	g := DefaultGoP()
	if len(g.Pattern) != 12 || g.Pattern[0] != FrameI {
		t.Fatal("default GoP must be 12 frames starting with I")
	}
	if w := g.meanWeight(); math.Abs(w-(5+3*3+8*1)/12.0) > 1e-12 {
		t.Fatalf("mean weight = %v", w)
	}
	if g.weight(FrameI) != 5 || g.weight(FrameP) != 3 || g.weight(FrameB) != 1 {
		t.Fatal("weights wrong")
	}
}

func TestGenerateWorkloadLoadAccuracy(t *testing.T) {
	rng := sim.NewRNG(7)
	for _, load := range []float64{0.1, 0.5, 0.9} {
		w, err := Generate(PaperWorkloadConfig(load), rng)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(w.OfferedLoad-load) > 0.01 {
			t.Errorf("target %.2f: achieved %.4f", load, w.OfferedLoad)
		}
		// Per-port admission must hold.
		for p := 0; p < 8; p++ {
			if w.InLoad[p] > 1.0001 || w.OutLoad[p] > 1.0001 {
				t.Errorf("port %d overloaded: in=%.3f out=%.3f", p, w.InLoad[p], w.OutLoad[p])
			}
		}
	}
}

func TestGenerateWorkloadPortsInRange(t *testing.T) {
	rng := sim.NewRNG(8)
	w, err := Generate(PaperWorkloadConfig(0.7), rng)
	if err != nil {
		t.Fatal(err)
	}
	if len(w.Conns) == 0 {
		t.Fatal("no connections generated")
	}
	for _, c := range w.Conns {
		if c.In < 0 || c.In >= 8 || c.Out < 0 || c.Out >= 8 {
			t.Fatalf("port out of range: %+v", c)
		}
		if c.Class != flit.ClassCBR {
			t.Fatalf("pure-CBR config produced %v", c.Class)
		}
	}
}

func TestGenerateWorkloadVBRMix(t *testing.T) {
	rng := sim.NewRNG(9)
	cfg := PaperWorkloadConfig(0.6)
	cfg.VBRFraction = 0.5
	cfg.PeakFactor = 3
	cfg.MaxPriority = 4
	w, err := Generate(cfg, rng)
	if err != nil {
		t.Fatal(err)
	}
	vbr := 0
	for _, c := range w.Conns {
		if c.Class == flit.ClassVBR {
			vbr++
			if c.PeakRate != Rate(3*float64(c.Rate)) {
				t.Fatalf("VBR peak = %v for rate %v", c.PeakRate, c.Rate)
			}
			if c.Priority < 0 || c.Priority >= 4 {
				t.Fatalf("priority %d out of range", c.Priority)
			}
		}
	}
	frac := float64(vbr) / float64(len(w.Conns))
	if math.Abs(frac-0.5) > 0.15 {
		t.Fatalf("VBR fraction = %.2f, want ~0.5", frac)
	}
}

func TestGenerateWorkloadErrors(t *testing.T) {
	rng := sim.NewRNG(1)
	if _, err := Generate(WorkloadConfig{Ports: 0, Link: PaperLink, Rates: PaperRates}, rng); err == nil {
		t.Fatal("zero ports accepted")
	}
	if _, err := Generate(WorkloadConfig{Ports: 8, Link: PaperLink}, rng); err == nil {
		t.Fatal("empty rate population accepted")
	}
	if _, err := Generate(WorkloadConfig{Ports: 8, Link: PaperLink, Rates: PaperRates, TargetLoad: 1.5}, rng); err == nil {
		t.Fatal("load > 1 accepted")
	}
}

// Property: whatever the load, generated workloads never violate per-port
// admission and always report a consistent total.
func TestGenerateWorkloadProperty(t *testing.T) {
	rng := sim.NewRNG(11)
	f := func(seed uint64, loadPct uint8) bool {
		rng.Seed(seed)
		load := float64(loadPct%96) / 100
		w, err := Generate(PaperWorkloadConfig(load), rng)
		if err != nil {
			return false
		}
		var demand Rate
		in := make([]float64, 8)
		out := make([]float64, 8)
		for _, c := range w.Conns {
			demand += c.Rate
			in[c.In] += float64(c.Rate) / float64(PaperLink.Bandwidth)
			out[c.Out] += float64(c.Rate) / float64(PaperLink.Bandwidth)
		}
		for p := 0; p < 8; p++ {
			if in[p] > 1.0001 || out[p] > 1.0001 {
				return false
			}
		}
		achieved := float64(demand) / (8 * float64(PaperLink.Bandwidth))
		return math.Abs(achieved-w.OfferedLoad) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}
