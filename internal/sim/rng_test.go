package sim

import (
	"fmt"
	"math"
	"testing"
	"testing/quick"
)

func TestRNGDeterminism(t *testing.T) {
	a, b := NewRNG(42), NewRNG(42)
	for i := 0; i < 1000; i++ {
		if av, bv := a.Uint64(), b.Uint64(); av != bv {
			t.Fatalf("streams diverged at %d: %d vs %d", i, av, bv)
		}
	}
}

func TestRNGSeedIndependence(t *testing.T) {
	a, b := NewRNG(1), NewRNG(2)
	same := 0
	for i := 0; i < 1000; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("adjacent seeds produced %d identical draws out of 1000", same)
	}
}

func TestRNGReseed(t *testing.T) {
	r := NewRNG(7)
	first := make([]uint64, 16)
	for i := range first {
		first[i] = r.Uint64()
	}
	r.Seed(7)
	for i := range first {
		if v := r.Uint64(); v != first[i] {
			t.Fatalf("reseeded stream diverged at %d", i)
		}
	}
}

func TestIntnRange(t *testing.T) {
	r := NewRNG(3)
	for n := 1; n <= 64; n++ {
		for i := 0; i < 200; i++ {
			v := r.Intn(n)
			if v < 0 || v >= n {
				t.Fatalf("Intn(%d) = %d out of range", n, v)
			}
		}
	}
}

func TestIntnPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) did not panic")
		}
	}()
	NewRNG(1).Intn(0)
}

func TestIntnUniformity(t *testing.T) {
	r := NewRNG(11)
	const n, draws = 10, 100000
	counts := make([]int, n)
	for i := 0; i < draws; i++ {
		counts[r.Intn(n)]++
	}
	want := float64(draws) / n
	for i, c := range counts {
		if math.Abs(float64(c)-want) > 5*math.Sqrt(want) {
			t.Errorf("bucket %d: got %d, want ~%.0f", i, c, want)
		}
	}
}

func TestFloat64Range(t *testing.T) {
	r := NewRNG(5)
	for i := 0; i < 10000; i++ {
		v := r.Float64()
		if v < 0 || v >= 1 {
			t.Fatalf("Float64() = %v out of [0,1)", v)
		}
	}
}

func TestExpMean(t *testing.T) {
	r := NewRNG(9)
	const mean, draws = 4.0, 200000
	var sum float64
	for i := 0; i < draws; i++ {
		sum += r.Exp(mean)
	}
	got := sum / draws
	if math.Abs(got-mean) > 0.1 {
		t.Fatalf("Exp mean: got %.3f, want ~%.1f", got, mean)
	}
}

func TestPermIsPermutation(t *testing.T) {
	r := NewRNG(13)
	f := func(seed uint64) bool {
		r.Seed(seed)
		p := r.Perm(20)
		seen := make([]bool, 20)
		for _, v := range p {
			if v < 0 || v >= 20 || seen[v] {
				return false
			}
			seen[v] = true
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestShuffleKeepsElements(t *testing.T) {
	r := NewRNG(17)
	p := []int{5, 6, 7, 8, 9}
	r.shuffle(p)
	sum := 0
	for _, v := range p {
		sum += v
	}
	if sum != 35 {
		t.Fatalf("shuffle lost elements: %v", p)
	}
}

func TestMul64(t *testing.T) {
	cases := []struct {
		a, b, hi, lo uint64
	}{
		{0, 0, 0, 0},
		{1, 1, 0, 1},
		{math.MaxUint64, 2, 1, math.MaxUint64 - 1},
		{math.MaxUint64, math.MaxUint64, math.MaxUint64 - 1, 1},
		{1 << 32, 1 << 32, 1, 0},
	}
	for _, c := range cases {
		hi, lo := mul64(c.a, c.b)
		if hi != c.hi || lo != c.lo {
			t.Errorf("mul64(%d,%d) = (%d,%d), want (%d,%d)", c.a, c.b, hi, lo, c.hi, c.lo)
		}
	}
}

// TestStreamRNG: streams are deterministic, and distinct (seed, stream)
// pairs produce distinct sequences — including the stream-0 vs master
// collision case the derivation must avoid.
func TestStreamRNG(t *testing.T) {
	a, b := NewStreamRNG(1, 0), NewStreamRNG(1, 0)
	for i := 0; i < 100; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("same (seed, stream) diverged")
		}
	}
	draw := func(r *RNG) [4]uint64 {
		var v [4]uint64
		for i := range v {
			v[i] = r.Uint64()
		}
		return v
	}
	seen := map[[4]uint64]string{}
	seen[draw(NewRNG(1))] = "master seed 1"
	for stream := uint64(0); stream < 64; stream++ {
		for _, seed := range []uint64{1, 2, 7} {
			k := draw(NewStreamRNG(seed, stream))
			if prev, dup := seen[k]; dup {
				t.Fatalf("stream (seed=%d, stream=%d) collides with %s", seed, stream, prev)
			}
			seen[k] = fmt.Sprintf("(seed=%d, stream=%d)", seed, stream)
		}
	}
}
