// Package stats provides the measurement machinery for the MMR
// simulations: streaming moment accumulators, histograms, per-connection
// jitter trackers, and labeled series for regenerating the paper's figures.
//
// Metric definitions follow the paper exactly (§5): delay is the time from
// a flit being ready to transmit through the switch until it actually
// leaves the switch; jitter on a connection is the difference between the
// delays of successive flits on that connection.
package stats

import (
	"fmt"
	"math"
	"sort"
)

// Accumulator computes streaming count, mean, variance (Welford), min and
// max without storing samples. The zero value is ready to use.
type Accumulator struct {
	n        int64
	mean, m2 float64
	min, max float64
}

// Add records one sample.
func (a *Accumulator) Add(x float64) {
	a.n++
	if a.n == 1 {
		a.min, a.max = x, x
	} else {
		if x < a.min {
			a.min = x
		}
		if x > a.max {
			a.max = x
		}
	}
	d := x - a.mean
	a.mean += d / float64(a.n)
	a.m2 += d * (x - a.mean)
}

// N returns the number of samples recorded.
func (a *Accumulator) N() int64 { return a.n }

// Mean returns the sample mean, or 0 with no samples.
func (a *Accumulator) Mean() float64 { return a.mean }

// Variance returns the unbiased sample variance, or 0 with <2 samples.
func (a *Accumulator) Variance() float64 {
	if a.n < 2 {
		return 0
	}
	return a.m2 / float64(a.n-1)
}

// StdDev returns the sample standard deviation.
func (a *Accumulator) StdDev() float64 { return math.Sqrt(a.Variance()) }

// Min returns the smallest sample. With no samples it returns 0, which
// is indistinguishable from a genuine minimum of 0 — callers that print
// extremes must check N() first (FormatAccumCell does this) rather than
// report a fabricated zero.
func (a *Accumulator) Min() float64 { return a.min }

// Max returns the largest sample, or 0 with no samples (see Min for the
// empty-accumulator caveat).
func (a *Accumulator) Max() float64 { return a.max }

// Sum returns n*mean, the total of all samples.
func (a *Accumulator) Sum() float64 { return a.mean * float64(a.n) }

// Reset discards all recorded samples.
func (a *Accumulator) Reset() { *a = Accumulator{} }

// Merge folds other into a, as if a had seen other's samples too.
func (a *Accumulator) Merge(other *Accumulator) {
	if other.n == 0 {
		return
	}
	if a.n == 0 {
		*a = *other
		return
	}
	n := a.n + other.n
	d := other.mean - a.mean
	mean := a.mean + d*float64(other.n)/float64(n)
	m2 := a.m2 + other.m2 + d*d*float64(a.n)*float64(other.n)/float64(n)
	min, max := a.min, a.max
	if other.min < min {
		min = other.min
	}
	if other.max > max {
		max = other.max
	}
	*a = Accumulator{n: n, mean: mean, m2: m2, min: min, max: max}
}

// AccumulatorState is the full serializable state of an Accumulator.
// All five fields must round-trip for restored statistics to merge and
// extend bit-identically to the uninterrupted run.
type AccumulatorState struct {
	N        int64
	Mean, M2 float64
	Min, Max float64
}

// State exports the accumulator for checkpointing.
func (a *Accumulator) State() AccumulatorState {
	return AccumulatorState{N: a.n, Mean: a.mean, M2: a.m2, Min: a.min, Max: a.max}
}

// Restore overwrites the accumulator with a previously exported state.
func (a *Accumulator) Restore(st AccumulatorState) {
	a.n, a.mean, a.m2, a.min, a.max = st.N, st.Mean, st.M2, st.Min, st.Max
}

// String summarizes the accumulator for debug output.
func (a *Accumulator) String() string {
	return fmt.Sprintf("n=%d mean=%.4g sd=%.4g min=%.4g max=%.4g",
		a.n, a.Mean(), a.StdDev(), a.min, a.max)
}

// Histogram counts samples in uniform bins over [lo, hi); samples outside
// the range go to under/overflow counters so nothing is silently lost.
type Histogram struct {
	lo, hi float64
	width  float64
	bins   []int64
	under  int64
	over   int64
	total  int64
	acc    Accumulator
}

// NewHistogram returns a histogram with nbins uniform bins spanning
// [lo, hi). It panics on a degenerate range or nbins < 1.
func NewHistogram(lo, hi float64, nbins int) *Histogram {
	if nbins < 1 || !(hi > lo) {
		panic("stats: invalid histogram shape")
	}
	return &Histogram{lo: lo, hi: hi, width: (hi - lo) / float64(nbins), bins: make([]int64, nbins)}
}

// Add records one sample.
func (h *Histogram) Add(x float64) {
	h.total++
	h.acc.Add(x)
	switch {
	case x < h.lo:
		h.under++
	case x >= h.hi:
		h.over++
	default:
		i := int((x - h.lo) / h.width)
		if i >= len(h.bins) { // float edge case at hi boundary
			i = len(h.bins) - 1
		}
		h.bins[i]++
	}
}

// N returns the total number of samples including out-of-range ones.
func (h *Histogram) N() int64 { return h.total }

// Bin returns the count in bin i.
func (h *Histogram) Bin(i int) int64 { return h.bins[i] }

// Underflow and Overflow return the out-of-range counts.
func (h *Histogram) Underflow() int64 { return h.under }

// Overflow returns the count of samples >= hi.
func (h *Histogram) Overflow() int64 { return h.over }

// Mean returns the exact streaming mean (not bin-quantized).
func (h *Histogram) Mean() float64 { return h.acc.Mean() }

// Quantile returns an estimate of the q-quantile (0<=q<=1) by linear
// interpolation within bins. Out-of-range mass is pinned to the range
// edges. With no samples it returns 0.
func (h *Histogram) Quantile(q float64) float64 {
	if h.total == 0 {
		return 0
	}
	if q <= 0 {
		return h.acc.Min()
	}
	if q >= 1 {
		return h.acc.Max()
	}
	target := q * float64(h.total)
	cum := float64(h.under)
	if target <= cum {
		return h.lo
	}
	for i, c := range h.bins {
		if cum+float64(c) >= target && c > 0 {
			frac := (target - cum) / float64(c)
			return h.lo + (float64(i)+frac)*h.width
		}
		cum += float64(c)
	}
	return h.hi
}

// Point is one (x, y) pair of a plotted series.
type Point struct {
	X, Y float64
}

// Series is a named sequence of points — one curve of a paper figure.
type Series struct {
	Name   string
	Points []Point
}

// Add appends a point to the series.
func (s *Series) Add(x, y float64) { s.Points = append(s.Points, Point{x, y}) }

// AddAccum appends (x, a.Mean()) only when the accumulator holds at
// least one sample; an empty accumulator's mean is a fabricated 0 that
// would plot as a real data point. It reports whether a point was added.
func (s *Series) AddAccum(x float64, a *Accumulator) bool {
	if a.N() == 0 {
		return false
	}
	s.Add(x, a.Mean())
	return true
}

// YAt returns the y value at the given x (exact match) and whether it
// exists.
func (s *Series) YAt(x float64) (float64, bool) {
	for _, p := range s.Points {
		if p.X == x {
			return p.Y, true
		}
	}
	return 0, false
}

// Sorted returns a copy of the series with points ordered by x.
func (s *Series) Sorted() *Series {
	c := &Series{Name: s.Name, Points: append([]Point(nil), s.Points...)}
	sort.Slice(c.Points, func(i, j int) bool { return c.Points[i].X < c.Points[j].X })
	return c
}
