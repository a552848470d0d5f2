package exp

import (
	"math"
	"strings"
	"testing"

	"mmr/internal/router"
	"mmr/internal/stats"
)

// tinyOpts keeps harness tests fast; shapes are asserted loosely.
func tinyOpts() Options {
	return Options{Warmup: 1_000, Measure: 6_000, Seed: 1, Loads: []float64{0.4, 0.8}}
}

func TestSchemeVariants(t *testing.T) {
	for _, name := range []string{"biased", "fixed", "autonet", "perfect"} {
		v := SchemeVariant(name, 4)
		if v.Name == "" || v.Mutate == nil {
			t.Fatalf("variant %q malformed", name)
		}
	}
	defer func() {
		if recover() == nil {
			t.Fatal("unknown scheme did not panic")
		}
	}()
	SchemeVariant("nope", 4)
}

func TestRunPointProducesMetrics(t *testing.T) {
	p, err := RunPoint(paperBase(), 0.5, SchemeVariant("biased", 8), tinyOpts())
	if err != nil {
		t.Fatal(err)
	}
	if p.M.FlitsDelivered == 0 || p.Offered < 0.45 || p.Offered > 0.55 {
		t.Fatalf("point malformed: delivered=%d offered=%.3f", p.M.FlitsDelivered, p.Offered)
	}
}

func TestGridFigureProjection(t *testing.T) {
	g, err := RunGrid(paperBase(), []float64{0.3, 0.6},
		[]Variant{SchemeVariant("biased", 2), SchemeVariant("perfect", 2)}, tinyOpts())
	if err != nil {
		t.Fatal(err)
	}
	fig := g.Figure("t", "y", MetricUtilization)
	if len(fig.Series) != 2 {
		t.Fatalf("expected 2 series, got %d", len(fig.Series))
	}
	for _, s := range fig.Series {
		if len(s.Points) != 2 {
			t.Fatalf("series %q has %d points", s.Name, len(s.Points))
		}
	}
	// Utilization tracks offered load below saturation.
	if y, _ := fig.Series[0].YAt(0.6); y < 0.5 {
		t.Fatalf("utilization at 0.6 load = %.3f", y)
	}
}

func TestFigure5ShapeHolds(t *testing.T) {
	res, err := Figure5(tinyOpts())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Figures) < 2 {
		t.Fatal("figure 5 must have delay and jitter panels")
	}
	jit := res.Figures[1]
	perfect, _ := findSeries(jit, "perfect").YAt(0.8)
	biased, _ := findSeries(jit, "8C biased").YAt(0.8)
	fixed, _ := findSeries(jit, "8C fixed").YAt(0.8)
	// The paper's central jitter ordering at high load.
	if !(perfect <= biased && biased <= fixed) {
		t.Fatalf("jitter ordering violated: perfect=%.3f biased=%.3f fixed=%.3f", perfect, biased, fixed)
	}
}

func TestUtilizationSweepMoreCandidatesHelp(t *testing.T) {
	opts := tinyOpts()
	opts.Loads = nil // UtilizationSweep has its own loads
	res, err := UtilizationSweep(opts)
	if err != nil {
		t.Fatal(err)
	}
	fig := res.Figures[0]
	u1, _ := findSeries(fig, "1C biased").YAt(0.95)
	u8, _ := findSeries(fig, "8C biased").YAt(0.95)
	if u8 <= u1 {
		t.Fatalf("more candidates should raise utilization: 1C=%.3f 8C=%.3f", u1, u8)
	}
}

func TestClaimsRun(t *testing.T) {
	claims, err := RunClaims(tinyOpts())
	if err != nil {
		t.Fatal(err)
	}
	if len(claims) != 6 {
		t.Fatalf("expected 6 claims, got %d", len(claims))
	}
	out := FormatClaims(claims)
	for _, id := range []string{"C1", "C2", "C3", "C4", "C5", "C6"} {
		if !strings.Contains(out, id) {
			t.Fatalf("claim %s missing from output", id)
		}
	}
}

func TestAblationsRun(t *testing.T) {
	opts := tinyOpts()
	type abl struct {
		id string
		fn func() (*FigureResult, error)
	}
	cases := []abl{
		{"A1", func() (*FigureResult, error) { return AblationA1(opts) }},
		{"A2", func() (*FigureResult, error) { return AblationA2(opts) }},
		{"A3", func() (*FigureResult, error) { return AblationA3(opts) }},
		{"A4", func() (*FigureResult, error) { return AblationA4(opts) }},
		{"A5", func() (*FigureResult, error) { return AblationA5(opts) }},
		{"A6", func() (*FigureResult, error) { return AblationA6(opts) }},
		{"A7", func() (*FigureResult, error) { return AblationA7(opts) }},
		{"A8", func() (*FigureResult, error) { return AblationA8(), nil }},
		{"A9", func() (*FigureResult, error) { return AblationA9(opts) }},
		{"A10", func() (*FigureResult, error) { return AblationA10(opts) }},
		{"A11", func() (*FigureResult, error) { return AblationA11(opts) }},
	}
	for _, c := range cases {
		res, err := c.fn()
		if err != nil {
			t.Fatalf("%s: %v", c.id, err)
		}
		if res.ID != c.id || len(res.Figures) == 0 {
			t.Fatalf("%s malformed", c.id)
		}
		for _, f := range res.Figures {
			if len(f.Series) == 0 || f.FormatTable() == "" {
				t.Fatalf("%s produced empty figure", c.id)
			}
		}
	}
}

func TestAblationA8BankTradeoff(t *testing.T) {
	res := AblationA8()
	fig := res.Figures[0]
	cost := findSeries(fig, "read+write cost (phit times)")
	ok := findSeries(fig, "meets cycle budget (1=yes)")
	// One bank cannot meet the budget; eight banks can.
	if y, _ := ok.YAt(1); y != 0 {
		t.Fatal("1 bank should fail the cycle budget")
	}
	if y, _ := ok.YAt(8); y != 1 {
		t.Fatal("8 banks should meet the cycle budget")
	}
	c1, _ := cost.YAt(1)
	c8, _ := cost.YAt(8)
	if c1 <= c8 {
		t.Fatal("more banks must not cost more phit times")
	}
}

func TestFigureVBRShape(t *testing.T) {
	opts := tinyOpts()
	opts.Loads = []float64{0.3, 0.6}
	res, err := FigureVBR(opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Figures) != 2 {
		t.Fatal("want delay and jitter panels")
	}
	jit := res.Figures[1]
	lo, _ := findSeries(jit, "8C biased").YAt(0.3)
	hi, _ := findSeries(jit, "8C biased").YAt(0.6)
	if hi <= lo {
		t.Fatalf("VBR jitter should grow with load: %.2f → %.2f", lo, hi)
	}
}

func TestNetworkSweepShape(t *testing.T) {
	opts := tinyOpts()
	opts.Loads = []float64{0.1, 0.3}
	res, err := NetworkSweep(opts)
	if err != nil {
		t.Fatal(err)
	}
	fig := res.Figures[0]
	acc, _ := findSeries(fig, "setup acceptance").YAt(0.1)
	if acc < 0.99 {
		t.Fatalf("light-load acceptance = %.3f", acc)
	}
	lat, _ := findSeries(fig, "latency (cycles)").YAt(0.1)
	if lat < 2 || lat > 20 {
		t.Fatalf("mesh latency = %.2f cycles", lat)
	}
}

// TestNetworkSweepGeneratedFabrics: the network sweep runs on the
// generated datacenter fabrics through Options.Topo, the figure title
// names the fabric (so a fat-tree figure can never masquerade as the
// goldened mesh), and light-load acceptance stays high on both
// generators. UGAL on the fat tree checks the route mode threads all
// the way through the sweep.
func TestNetworkSweepGeneratedFabrics(t *testing.T) {
	for _, tc := range []struct {
		topo  TopoSpec
		title string
	}{
		{TopoSpec{Kind: "fattree", FatTreeK: 4, Route: "ugal"}, "fat tree k=4"},
		{TopoSpec{Kind: "dragonfly", DragonflyA: 4, DragonflyP: 2, DragonflyH: 2}, "dragonfly a=4 p=2 h=2"},
	} {
		opts := tinyOpts()
		opts.Loads = []float64{0.1}
		opts.Topo = tc.topo
		res, err := NetworkSweep(opts)
		if err != nil {
			t.Fatalf("%s: %v", tc.title, err)
		}
		fig := res.Figures[0]
		if !strings.Contains(fig.Title, tc.title) {
			t.Errorf("figure title %q does not name the fabric %q", fig.Title, tc.title)
		}
		if acc, ok := findSeries(fig, "setup acceptance").YAt(0.1); !ok || acc < 0.9 {
			t.Errorf("%s: light-load acceptance = %.3f", tc.title, acc)
		}
	}
}

// paperBase is the §5 router configuration.
func paperBase() router.Config { return router.PaperConfig() }

// TestNetworkSweepMatchesSerialPoints: NetworkSweep runs its load points
// side by side (forEach); the figure must be the one its points give when
// each is swept alone, one at a time, bit for bit (math.Float64bits) and
// gap for gap. Under -race this is also the check that concurrent points
// share nothing they write.
func TestNetworkSweepMatchesSerialPoints(t *testing.T) {
	opts := tinyOpts()
	opts.Loads = []float64{0.1, 0.2, 0.3, 0.4}
	sweep, err := NetworkSweep(opts)
	if err != nil {
		t.Fatal(err)
	}
	for _, load := range opts.Loads {
		one := opts
		one.Loads = []float64{load}
		alone, err := NetworkSweep(one)
		if err != nil {
			t.Fatal(err)
		}
		for si, s := range alone.Figures[0].Series {
			want, wok := s.YAt(load)
			got, gok := sweep.Figures[0].Series[si].YAt(load)
			if wok != gok || math.Float64bits(want) != math.Float64bits(got) {
				t.Errorf("series %q at load %v: alone (%v,%v) vs in the sweep (%v,%v)", s.Name, load, want, wok, got, gok)
			}
		}
	}
}

// findSeries returns fig's series with the given name, or nil.
func findSeries(fig *stats.Figure, name string) *stats.Series {
	for _, s := range fig.Series {
		if s.Name == name {
			return s
		}
	}
	return nil
}
