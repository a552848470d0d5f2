package traffic

import (
	"math"
	"testing"

	"mmr/internal/sim"
)

// sumLoop is what sumBelowOne replaced and is held to: the plain add loop,
// one rounded add per cycle.
func sumLoop(acc, rate float64, max int64) (steps int64, sum float64) {
	a := acc
	for ; steps < max; steps++ {
		next := a + rate
		if next >= 1 {
			break
		}
		a = next
	}
	return steps, a
}

// sameAsLoop compares bit patterns, so NaN payloads and the sign of zero
// count.
func sameAsLoop(t testing.TB, acc, rate float64, max int64) {
	t.Helper()
	wantN, wantSum := sumLoop(acc, rate, max)
	n, sum, _ := sumBelowOne(acc, rate, max)
	if n != wantN || math.Float64bits(sum) != math.Float64bits(wantSum) {
		t.Fatalf("sumBelowOne(%#016x, %#016x, %d) = %d steps ending on %#016x; the loop makes %d ending on %#016x (acc %g rate %g)",
			math.Float64bits(acc), math.Float64bits(rate), max, n, math.Float64bits(sum), wantN, math.Float64bits(wantSum), acc, rate)
	}
}

// spacing returns the distance between neighbouring doubles of x's binade.
func spacing(x float64) float64 { return math.Nextafter(x, math.Inf(1)) - x }

// TestSumBelowOneMatchesLoop: the closed form is the loop, bit for bit — on
// the table of edges, on every paper rate and on over a million seeded
// cases drawn where the argument is thinnest: rates of a few bits, rates
// that end exactly half a spacing of a binade below 1 (every add a tie)
// from odd and even starts, rates too small to move the sum.
func TestSumBelowOneMatchesLoop(t *testing.T) {
	sub := math.SmallestNonzeroFloat64
	for _, c := range []struct{ acc, rate float64 }{
		{0, 0}, {0.5, 0}, {0, 1}, {0, 0.999}, {0, 0.5}, {0.25, 0.25}, {0, 1.0 / 3}, {0, 0.1},
		{1, 0.1}, {1.5, 0.001}, {7, 0}, {3, -2.5}, {1.5, -1}, // acc >= 1
		{0, sub}, {sub, sub}, {3 * sub, 5 * sub}, {sub, 0.001}, {0, 0x1p-1022}, {0x1p-1023, 0x1p-1030},
		{0.5, 0x1p-54}, {0.5, 0x1p-55}, {0.75, 0x1p-54}, {0.5 + 0x1p-53, 0x1p-54}, // half a spacing and less
		{0.5, 0x1p-53 + 0x1p-54}, {0.5 + 0x1p-53, 0x1p-53 + 0x1p-54}, {0.25, 0x1p-54 + 0x1p-55},
		{math.Copysign(0, -1), 0}, {math.Copysign(0, -1), 0.01}, {-0.9, 0.001}, {-0.9, -0.001}, {0.9, -0.001},
		{-1e300, -1e299}, {-math.MaxFloat64, -math.MaxFloat64}, {0.5, -0x1p-54},
		{math.NaN(), 0.1}, {0.1, math.NaN()}, {math.Inf(1), 0.1}, {math.Inf(-1), 0.1}, {0.1, math.Inf(-1)},
		{math.Inf(-1), math.Inf(1)}, {math.Float64frombits(0x7ff0000000000001), 0.5},
	} {
		for _, max := range []int64{0, 1, 2, 3, 7, 64, 5000} {
			sameAsLoop(t, c.acc, c.rate, max)
		}
	}
	for _, r := range PaperRates {
		rate := PaperLink.FlitsPerCycle(r)
		for max := int64(0); max <= 5000; max++ {
			sameAsLoop(t, 0, rate, max)
			sameAsLoop(t, 0.37, rate, max)
		}
	}

	rng := sim.NewRNG(22)
	cases := 1_100_000
	if testing.Short() {
		cases = 100_000
	}
	for i := 0; i < cases; i++ {
		acc := rng.Float64()
		max := int64(rng.Intn(1 << (1 + rng.Intn(13))))
		var rate float64
		switch i % 5 {
		case 0: // uniform
			rate = rng.Float64()
		case 1: // log-uniform down to 2⁻⁴⁰
			rate = math.Ldexp(0.5+rng.Float64()/2, -rng.Intn(40))
		case 2: // a few bits: m·2⁻ᵏ
			rate = math.Ldexp(float64(1+rng.Intn(31)), -(1 + rng.Intn(60)))
			if i%2 == 0 {
				acc = math.Ldexp(float64(rng.Intn(64)), -6)
			}
		case 3: // (r + ½) spacings of a binade below 1: every add there is a tie
			b := math.Ldexp(1, -(1 + rng.Intn(30)))
			u := spacing(b)
			rate = (float64(rng.Intn(1<<(1+rng.Intn(40)))) + 0.5) * u
			acc = b + float64(rng.Intn(1<<20))*u // odd and even starts in the binade
			if i%3 == 0 {
				acc = b - float64(1+rng.Intn(1<<20))*u/2 // or just under it
			}
		default: // under half a spacing of where it starts, or just over
			rate = spacing(acc) * (0.25 + rng.Float64()/2)
		}
		sameAsLoop(t, acc, rate, max)
	}
}

func FuzzSumBelowOne(f *testing.F) {
	f.Add(math.Float64bits(0.37), math.Float64bits(PaperLink.FlitsPerCycle(64*Kbps)), uint16(20000))
	f.Add(math.Float64bits(0.5), math.Float64bits(0x1p-53+0x1p-54), uint16(999))
	f.Add(uint64(1), uint64(3), uint16(65535))
	f.Add(math.Float64bits(-0.9), math.Float64bits(0.001), uint16(3000))
	f.Add(uint64(0x7ff8000000000001), math.Float64bits(0.5), uint16(9))
	f.Fuzz(func(t *testing.T, acc, rate uint64, max uint16) {
		sameAsLoop(t, math.Float64frombits(acc), math.Float64frombits(rate), int64(max))
	})
}

// TestSumBelowOneBounded: the closed form's real adds are counted in
// binades, not in cycles — at most 4 for each binade the sum crosses and 8
// over — for rates down to 2⁻⁴⁰, whose gaps run to 2⁴⁰ cycles.
func TestSumBelowOneBounded(t *testing.T) {
	rng := sim.NewRNG(23)
	for k := 0; k <= 40; k++ {
		for i := 0; i < 200; i++ {
			acc, rate := rng.Float64(), math.Ldexp(0.5+rng.Float64()/2, -k)
			if i%4 == 0 {
				acc = 0
			}
			if i%8 == 1 {
				rate = math.Ldexp(1, -k)
			}
			steps, sum, adds := sumBelowOne(acc, rate, math.MaxInt64)
			if sum+rate < 1 {
				t.Fatalf("sumBelowOne(%g, %g) stopped after %d steps on %g, short of 1", acc, rate, steps, sum)
			}
			first := acc
			if first == 0 {
				first = rate
			}
			binades := int(math.Float64bits(sum)>>52) - int(math.Float64bits(first)>>52) + 1
			if adds > 4*binades+8 {
				t.Fatalf("sumBelowOne(%g, %g): %d real adds for %d steps across %d binades", acc, rate, adds, steps, binades)
			}
		}
	}
}

// BenchmarkForecastGap times one forecast of a CBR source against the add
// loop it replaced, from gaps of 2 cycles, where the closed form must cost
// what the loop did, to the paper's longest, 19,375, where it must not.
func BenchmarkForecastGap(b *testing.B) {
	for _, r := range []Rate{600 * Mbps, 120 * Mbps, 55 * Mbps, 20 * Mbps, 1.54 * Mbps, 64 * Kbps} {
		s := NewCBRSource(PaperLink, r, 0)
		b.Run(r.String(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				s.acc = float64(i&7) / 1024
				s.ForecastEvent(0, forecastHorizon)
			}
		})
		b.Run(r.String()+"/loop", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				acc := float64(i&7) / 1024
				n, end := sumLoop(acc, s.perCycle, forecastHorizon-1)
				s.memo = gapMemo{n: n, start: acc, end: end, rate: s.perCycle}
			}
		})
	}
}
