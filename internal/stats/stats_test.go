package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func almost(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestAccumulatorBasics(t *testing.T) {
	var a Accumulator
	if a.N() != 0 || a.Mean() != 0 || a.Variance() != 0 {
		t.Fatal("zero value not empty")
	}
	for _, x := range []float64{2, 4, 4, 4, 5, 5, 7, 9} {
		a.Add(x)
	}
	if a.N() != 8 {
		t.Fatalf("N = %d", a.N())
	}
	if !almost(a.Mean(), 5, 1e-12) {
		t.Fatalf("Mean = %v", a.Mean())
	}
	// Population sd of this classic set is 2; sample variance = 32/7.
	if !almost(a.Variance(), 32.0/7.0, 1e-12) {
		t.Fatalf("Variance = %v", a.Variance())
	}
	if a.Min() != 2 || a.Max() != 9 {
		t.Fatalf("Min/Max = %v/%v", a.Min(), a.Max())
	}
	if !almost(a.Sum(), 40, 1e-9) {
		t.Fatalf("Sum = %v", a.Sum())
	}
	a.Reset()
	if a.N() != 0 {
		t.Fatal("Reset did not clear")
	}
}

func TestAccumulatorSingleSample(t *testing.T) {
	var a Accumulator
	a.Add(-3)
	if a.Mean() != -3 || a.Min() != -3 || a.Max() != -3 || a.Variance() != 0 {
		t.Fatalf("single-sample stats wrong: %s", a.String())
	}
}

func TestAccumulatorMerge(t *testing.T) {
	var a, b, whole Accumulator
	xs := []float64{1, 2, 3, 10, 20, 30, -5}
	for i, x := range xs {
		whole.Add(x)
		if i < 3 {
			a.Add(x)
		} else {
			b.Add(x)
		}
	}
	a.Merge(&b)
	if a.N() != whole.N() || !almost(a.Mean(), whole.Mean(), 1e-9) ||
		!almost(a.Variance(), whole.Variance(), 1e-9) ||
		a.Min() != whole.Min() || a.Max() != whole.Max() {
		t.Fatalf("merge mismatch: %s vs %s", a.String(), whole.String())
	}
	var empty Accumulator
	a.Merge(&empty) // merging empty is a no-op
	if a.N() != whole.N() {
		t.Fatal("merging empty changed N")
	}
	var c Accumulator
	c.Merge(&whole) // merging into empty copies
	if c.N() != whole.N() || !almost(c.Mean(), whole.Mean(), 1e-12) {
		t.Fatal("merge into empty wrong")
	}
}

// Property: merging two halves equals accumulating the whole.
func TestMergeProperty(t *testing.T) {
	f := func(xs []float64, split uint8) bool {
		for _, x := range xs {
			if math.IsNaN(x) || math.IsInf(x, 0) || math.Abs(x) > 1e12 {
				return true // skip pathological inputs
			}
		}
		if len(xs) == 0 {
			return true
		}
		k := int(split) % (len(xs) + 1)
		var a, b, w Accumulator
		for i, x := range xs {
			w.Add(x)
			if i < k {
				a.Add(x)
			} else {
				b.Add(x)
			}
		}
		a.Merge(&b)
		scale := math.Max(1, math.Abs(w.Mean()))
		return a.N() == w.N() && almost(a.Mean(), w.Mean(), 1e-6*scale) &&
			a.Min() == w.Min() && a.Max() == w.Max()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestHistogramBinningAndQuantiles(t *testing.T) {
	h := NewHistogram(0, 10, 10)
	for i := 0; i < 100; i++ {
		h.Add(float64(i) / 10) // 0.0 .. 9.9 uniform
	}
	if h.N() != 100 || h.Underflow() != 0 || h.Overflow() != 0 {
		t.Fatalf("counts wrong: n=%d u=%d o=%d", h.N(), h.Underflow(), h.Overflow())
	}
	for i := 0; i < 10; i++ {
		if h.Bin(i) != 10 {
			t.Fatalf("bin %d = %d, want 10", i, h.Bin(i))
		}
	}
	if q := h.Quantile(0.5); !almost(q, 5, 0.2) {
		t.Fatalf("median = %v, want ~5", q)
	}
	if q := h.Quantile(0.95); !almost(q, 9.5, 0.2) {
		t.Fatalf("p95 = %v, want ~9.5", q)
	}
	if h.Quantile(0) != 0 || !almost(h.Quantile(1), 9.9, 1e-9) {
		t.Fatal("extreme quantiles should be min/max")
	}
}

func TestHistogramOutOfRange(t *testing.T) {
	h := NewHistogram(0, 1, 4)
	h.Add(-5)
	h.Add(2)
	h.Add(0.5)
	if h.Underflow() != 1 || h.Overflow() != 1 || h.N() != 3 {
		t.Fatalf("out-of-range accounting wrong: u=%d o=%d n=%d", h.Underflow(), h.Overflow(), h.N())
	}
	if !almost(h.Mean(), (-5+2+0.5)/3, 1e-12) {
		t.Fatalf("Mean should use exact values, got %v", h.Mean())
	}
}

func TestHistogramEmptyQuantile(t *testing.T) {
	h := NewHistogram(0, 1, 2)
	if h.Quantile(0.5) != 0 {
		t.Fatal("empty histogram quantile should be 0")
	}
}

func TestHistogramInvalidShapePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("invalid shape did not panic")
		}
	}()
	NewHistogram(1, 1, 4)
}

func TestJitterTracker(t *testing.T) {
	j := NewJitterTracker(2)
	j.Record(0, 5)  // baseline, no jitter sample
	j.Record(0, 8)  // jitter 3
	j.Record(0, 6)  // jitter 2
	j.Record(1, 10) // baseline for conn 1
	j.Record(1, 10) // jitter 0
	if j.Delay().N() != 5 || !almost(j.Delay().Mean(), 39.0/5, 1e-12) {
		t.Fatalf("delay stats wrong: %s", j.Delay().String())
	}
	if j.Jitter().N() != 3 || !almost(j.Jitter().Mean(), 5.0/3, 1e-12) {
		t.Fatalf("jitter stats wrong: %s", j.Jitter().String())
	}
	if j.ConnJitter(0).N() != 2 || !almost(j.ConnJitter(0).Mean(), 2.5, 1e-12) {
		t.Fatalf("per-conn jitter wrong: %s", j.ConnJitter(0).String())
	}
}

func TestJitterTrackerResetKeepsBaseline(t *testing.T) {
	j := NewJitterTracker(1)
	j.Record(0, 100)
	j.Reset() // warm-up discard
	j.Record(0, 101)
	if j.Jitter().N() != 1 || j.Jitter().Mean() != 1 {
		t.Fatalf("baseline lost across Reset: %s", j.Jitter().String())
	}
}

func TestJitterTrackerGrow(t *testing.T) {
	j := NewJitterTracker(1)
	j.Grow(3)
	j.Record(2, 4)
	j.Record(2, 9)
	if j.ConnJitter(2).N() != 1 || j.ConnJitter(2).Mean() != 5 {
		t.Fatal("grown connection not tracked")
	}
}

func TestJitterTrackerGrowPreservesState(t *testing.T) {
	j := NewJitterTracker(1)
	j.Record(0, 10) // baseline for conn 0
	j.Grow(1000)    // no-op growths must not disturb anything either
	j.Grow(500)
	j.Record(0, 13)
	if j.ConnJitter(0).N() != 1 || j.ConnJitter(0).Mean() != 3 {
		t.Fatalf("baseline lost across Grow: %s", j.ConnJitter(0).String())
	}
	j.Record(999, 1)
	j.Record(999, 2)
	if j.ConnJitter(999).N() != 1 {
		t.Fatal("last grown connection not tracked")
	}
}

func TestJitterTrackerRecordReturn(t *testing.T) {
	j := NewJitterTracker(1)
	if _, ok := j.Record(0, 5); ok {
		t.Fatal("first flit must not produce a jitter sample")
	}
	jit, ok := j.Record(0, 2)
	if !ok || jit != 3 {
		t.Fatalf("Record returned (%v, %v), want (3, true)", jit, ok)
	}
}

func TestSeriesAddAccum(t *testing.T) {
	var s Series
	var empty, full Accumulator
	full.Add(7)
	if s.AddAccum(1, &empty) {
		t.Fatal("AddAccum added a point for an empty accumulator")
	}
	if !s.AddAccum(2, &full) || len(s.Points) != 1 || s.Points[0].Y != 7 {
		t.Fatalf("AddAccum skipped a real point: %+v", s.Points)
	}
}

func TestFormatAccumCell(t *testing.T) {
	var empty, full Accumulator
	full.Add(1.5)
	full.Add(2.5)
	for _, stat := range []string{"mean", "min", "max", "sd"} {
		if got := FormatAccumCell(&empty, stat, "%.2f"); got != "-" {
			t.Errorf("empty %s cell = %q, want -", stat, got)
		}
	}
	if got := FormatAccumCell(&full, "min", "%.2f"); got != "1.50" {
		t.Errorf("min cell = %q, want 1.50", got)
	}
	if got := FormatAccumCell(&full, "max", "%.2f"); got != "2.50" {
		t.Errorf("max cell = %q, want 2.50", got)
	}
}

func TestSeriesAndFigure(t *testing.T) {
	var fig Figure
	fig.Title = "demo"
	fig.XLabel = "load"
	a := fig.AddSeries("a")
	b := fig.AddSeries("b")
	a.Add(0.1, 1)
	a.Add(0.2, 2)
	b.Add(0.2, 4)
	if s := fig.FindSeries("b"); s != b {
		t.Fatal("FindSeries wrong")
	}
	if fig.FindSeries("zzz") != nil {
		t.Fatal("FindSeries should return nil for unknown")
	}
	if y, ok := a.YAt(0.2); !ok || y != 2 {
		t.Fatal("YAt wrong")
	}
	if _, ok := a.YAt(9); ok {
		t.Fatal("YAt found missing x")
	}
	table := fig.FormatTable()
	if table == "" {
		t.Fatal("empty table")
	}
	csv := fig.FormatCSV()
	want := "load,a,b\n0.1,1,\n0.2,2,4\n"
	if csv != want {
		t.Fatalf("CSV = %q, want %q", csv, want)
	}
}

func TestSeriesSorted(t *testing.T) {
	s := &Series{Name: "s"}
	s.Add(3, 30)
	s.Add(1, 10)
	s.Add(2, 20)
	sorted := s.Sorted()
	for i, want := range []float64{1, 2, 3} {
		if sorted.Points[i].X != want {
			t.Fatalf("Sorted order wrong: %v", sorted.Points)
		}
	}
	if s.Points[0].X != 3 {
		t.Fatal("Sorted mutated the original")
	}
}

func TestTrimFloat(t *testing.T) {
	cases := map[float64]string{
		1:      "1",
		1.5:    "1.5",
		0.1234: "0.1234",
		0.10:   "0.1",
		-2:     "-2",
	}
	for in, want := range cases {
		if got := trimFloat(in); got != want {
			t.Errorf("trimFloat(%v) = %q, want %q", in, got, want)
		}
	}
}

func TestCSVEscape(t *testing.T) {
	if got := csvEscape(`a,b"c`); got != `"a,b""c"` {
		t.Fatalf("csvEscape = %q", got)
	}
	if got := csvEscape("plain"); got != "plain" {
		t.Fatalf("csvEscape = %q", got)
	}
}
