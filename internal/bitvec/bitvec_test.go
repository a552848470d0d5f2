package bitvec

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestSetTestClear(t *testing.T) {
	v := New(130) // spans three words
	for _, i := range []int{0, 1, 63, 64, 65, 127, 128, 129} {
		if v.Test(i) {
			t.Fatalf("bit %d set in fresh vector", i)
		}
		v.Set(i)
		if !v.Test(i) {
			t.Fatalf("bit %d not set after Set", i)
		}
		v.Clear(i)
		if v.Test(i) {
			t.Fatalf("bit %d set after Clear", i)
		}
	}
}

func TestSetTo(t *testing.T) {
	v := New(10)
	v.SetTo(3, true)
	v.SetTo(4, false)
	if !v.Test(3) || v.Test(4) {
		t.Fatal("SetTo mismatch")
	}
}

func TestOutOfRangePanics(t *testing.T) {
	for _, idx := range []int{-1, 64} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("index %d did not panic", idx)
				}
			}()
			New(64).Set(idx)
		}()
	}
}

func TestCountAndAny(t *testing.T) {
	v := New(200)
	if v.Any() || v.Count() != 0 {
		t.Fatal("fresh vector not empty")
	}
	for i := 0; i < 200; i += 3 {
		v.Set(i)
	}
	if got, want := v.Count(), 67; got != want {
		t.Fatalf("Count = %d, want %d", got, want)
	}
	if !v.Any() {
		t.Fatal("Any false with bits set")
	}
	v.Reset()
	if v.Any() {
		t.Fatal("Any true after Reset")
	}
}

func TestFillRespectsLength(t *testing.T) {
	v := New(70)
	v.Fill()
	if got := v.Count(); got != 70 {
		t.Fatalf("Fill set %d bits, want 70", got)
	}
}

func TestLogicalOps(t *testing.T) {
	a, b := New(100), New(100)
	for i := 0; i < 100; i += 2 {
		a.Set(i)
	}
	for i := 0; i < 100; i += 3 {
		b.Set(i)
	}
	and := New(100)
	and.And(a, b)
	or := New(100)
	or.Or(a, b)
	andnot := New(100)
	andnot.andNot(a, b)
	for i := 0; i < 100; i++ {
		ai, bi := i%2 == 0, i%3 == 0
		if and.Test(i) != (ai && bi) {
			t.Fatalf("And wrong at %d", i)
		}
		if or.Test(i) != (ai || bi) {
			t.Fatalf("Or wrong at %d", i)
		}
		if andnot.Test(i) != (ai && !bi) {
			t.Fatalf("AndNot wrong at %d", i)
		}
	}
}

func TestNotTrims(t *testing.T) {
	a := New(70)
	n := New(70)
	n.not(a)
	if got := n.Count(); got != 70 {
		t.Fatalf("Not of empty 70-bit vector has %d bits, want 70", got)
	}
}

func TestAliasedOps(t *testing.T) {
	a, b := New(64), New(64)
	a.Set(1)
	a.Set(2)
	b.Set(2)
	b.Set(3)
	a.And(a, b) // aliased destination
	if a.Count() != 1 || !a.Test(2) {
		t.Fatalf("aliased And wrong: %s", a)
	}
}

func TestLengthMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("length mismatch did not panic")
		}
	}()
	New(10).And(New(10), New(11))
}

func TestNextSet(t *testing.T) {
	v := New(200)
	v.Set(5)
	v.Set(64)
	v.Set(199)
	cases := []struct{ from, want int }{
		{0, 5}, {5, 5}, {6, 64}, {64, 64}, {65, 199}, {199, 199}, {200, -1}, {-3, 5},
	}
	for _, c := range cases {
		if got := v.NextSet(c.from); got != c.want {
			t.Errorf("NextSet(%d) = %d, want %d", c.from, got, c.want)
		}
	}
}

func TestNextSetWrap(t *testing.T) {
	v := New(100)
	v.Set(10)
	if got := v.nextSetWrap(50); got != 10 {
		t.Fatalf("NextSetWrap(50) = %d, want 10 (wrapped)", got)
	}
	if got := v.nextSetWrap(10); got != 10 {
		t.Fatalf("NextSetWrap(10) = %d, want 10", got)
	}
	empty := New(100)
	if got := empty.nextSetWrap(0); got != -1 {
		t.Fatalf("NextSetWrap on empty = %d, want -1", got)
	}
	if got := New(0).nextSetWrap(0); got != -1 {
		t.Fatalf("NextSetWrap on zero-length = %d, want -1", got)
	}
}

// TestNextClearWrap holds the word scan to the bit-by-bit walk it stands
// for, on lengths around the word and inline-storage boundaries.
func TestNextClearWrap(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, n := range []int{0, 1, 7, 63, 64, 65, 128, 255, 256, 257, 300} {
		v := New(n)
		for step := 0; step < 2000 && n > 0; step++ {
			switch i := rng.Intn(n); rng.Intn(8) {
			case 0:
				v.Fill()
			case 1, 2, 3, 4:
				v.Set(i)
			default:
				v.Clear(i)
			}
			from := rng.Intn(3*n) - n
			want := -1
			for k := 0; k < n; k++ {
				if i := ((from%n+n)%n + k) % n; !v.Test(i) {
					want = i
					break
				}
			}
			if got := v.NextClearWrap(from); got != want {
				t.Fatalf("len %d, %v: NextClearWrap(%d) = %d, want %d", n, v, from, got, want)
			}
		}
		if n == 0 && v.NextClearWrap(0) != -1 {
			t.Fatal("NextClearWrap on zero-length should be -1")
		}
	}
}

// TestInitInPlace: a vector held by value and sized with Init behaves as one
// from New, at inline and at heap sizes, and Init again resizes and clears.
func TestInitInPlace(t *testing.T) {
	var holder struct {
		pad uint64
		v   Vector
	}
	for _, n := range []int{256, 1000, 64} {
		holder.v.Init(n)
		if holder.v.n != n || holder.v.Any() {
			t.Fatalf("Init(%d): len %d, any %v", n, holder.v.n, holder.v.Any())
		}
		holder.v.Set(n - 1)
		holder.v.Set(0)
		if holder.v.Count() != 2 || holder.v.NextSet(1) != n-1 {
			t.Fatalf("Init(%d): count %d, NextSet(1) = %d", n, holder.v.Count(), holder.v.NextSet(1))
		}
	}
}

func TestForEachAndAppendSet(t *testing.T) {
	v := New(300)
	want := []int{0, 63, 64, 128, 299}
	for _, i := range want {
		v.Set(i)
	}
	got := v.AppendSet(nil)
	if len(got) != len(want) {
		t.Fatalf("AppendSet = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("AppendSet = %v, want %v", got, want)
		}
	}
	// Early stop.
	n := 0
	v.ForEach(func(int) bool { n++; return n < 2 })
	if n != 2 {
		t.Fatalf("ForEach early stop visited %d, want 2", n)
	}
}

func TestEqualCloneCopy(t *testing.T) {
	a := New(90)
	a.Set(3)
	a.Set(89)
	b := a.clone()
	if !a.equal(b) {
		t.Fatal("clone not equal")
	}
	b.Clear(3)
	if a.equal(b) {
		t.Fatal("clone shares storage with original")
	}
	c := New(90)
	c.copyFrom(a)
	if !c.equal(a) {
		t.Fatal("CopyFrom mismatch")
	}
	if a.equal(New(91)) {
		t.Fatal("vectors of different length compared equal")
	}
}

func TestString(t *testing.T) {
	v := New(5)
	v.Set(0)
	v.Set(3)
	if got := v.String(); got != "10010" {
		t.Fatalf("String = %q, want 10010", got)
	}
}

// Property: AND/OR/ANDNOT match per-bit evaluation for arbitrary contents.
func TestLogicalOpsProperty(t *testing.T) {
	f := func(aw, bw [3]uint64) bool {
		const n = 3 * 64
		a, b := New(n), New(n)
		for i := 0; i < n; i++ {
			if aw[i/64]&(1<<(uint(i)%64)) != 0 {
				a.Set(i)
			}
			if bw[i/64]&(1<<(uint(i)%64)) != 0 {
				b.Set(i)
			}
		}
		and, or, an := New(n), New(n), New(n)
		and.And(a, b)
		or.Or(a, b)
		an.andNot(a, b)
		for i := 0; i < n; i++ {
			if and.Test(i) != (a.Test(i) && b.Test(i)) ||
				or.Test(i) != (a.Test(i) || b.Test(i)) ||
				an.Test(i) != (a.Test(i) && !b.Test(i)) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// Property: Count equals the number of indices ForEach visits, and
// NextSet walks exactly those indices.
func TestIterationConsistencyProperty(t *testing.T) {
	f := func(words [4]uint64) bool {
		const n = 4 * 64
		v := New(n)
		for i := 0; i < n; i++ {
			if words[i/64]&(1<<(uint(i)%64)) != 0 {
				v.Set(i)
			}
		}
		var visited []int
		v.ForEach(func(i int) bool { visited = append(visited, i); return true })
		if len(visited) != v.Count() {
			return false
		}
		idx, from := 0, 0
		for {
			i := v.NextSet(from)
			if i < 0 {
				break
			}
			if idx >= len(visited) || visited[idx] != i {
				return false
			}
			idx++
			from = i + 1
		}
		return idx == len(visited)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
