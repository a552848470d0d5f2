package flow

import (
	"slices"
	"testing"

	"mmr/internal/sim"
	"mmr/internal/traffic"
)

// The fabric's wake table takes minima over lanes' NextAt and source
// calendars' due cycles: an empty lane and a source that will never inject
// must read the same.
func TestNeverIsTheCalendarsNoEvent(t *testing.T) {
	if Never != traffic.NoEvent {
		t.Fatalf("flow.Never = %d, traffic.NoEvent = %d", Never, traffic.NoEvent)
	}
}

// drain pops what has matured by t the way a reader does and returns it
// with what Settle reports.
func drain(l *Lane[int], t int64) (got []int, next int64) {
	for l.Ready(t) {
		got = append(got, l.Pop())
	}
	return got, l.Settle()
}

func TestLane(t *testing.T) {
	steps := []struct {
		name    string
		do      func(l *Lane[int])
		nextAt  int64
		pending []int
	}{
		{"the zero lane is empty", func(l *Lane[int]) {}, Never, nil},
		{"a push into an empty lane sets NextAt", func(l *Lane[int]) { l.Push(5, 50) }, 5, []int{50}},
		{"a later push leaves the head's", func(l *Lane[int]) { l.Push(5, 51); l.Push(8, 80) }, 5, []int{50, 51, 80}},
		{"nothing matures early", func(l *Lane[int]) {
			if got, next := drain(l, 4); len(got) != 0 || next != 5 {
				t.Fatalf("drain(4) = %v, next %d", got, next)
			}
		}, 5, []int{50, 51, 80}},
		{"a partial drain pops in push order and leaves the head's At", func(l *Lane[int]) {
			if got, next := drain(l, 5); !slices.Equal(got, []int{50, 51}) || next != 8 {
				t.Fatalf("drain(5) = %v, next %d", got, next)
			}
		}, 8, []int{80}},
		{"a full drain empties the lane", func(l *Lane[int]) {
			if got, next := drain(l, 9); !slices.Equal(got, []int{80}) || next != Never {
				t.Fatalf("drain(9) = %v, next %d", got, next)
			}
		}, Never, nil},
		{"Filter keeps the order of what it keeps", func(l *Lane[int]) {
			for i, at := range []int64{10, 10, 11, 12, 12} {
				l.Push(at, i)
			}
			l.Filter(func(v int) bool { return v%2 == 1 })
		}, 10, []int{1, 3}},
		{"Filter dropping the head moves NextAt", func(l *Lane[int]) { l.Filter(func(v int) bool { return v != 1 }) }, 12, []int{3}},
		{"Filter dropping everything empties the lane", func(l *Lane[int]) { l.Filter(func(int) bool { return false }) }, Never, nil},
		{"Reset empties the lane", func(l *Lane[int]) { l.Push(20, 1); l.Push(21, 2); l.Reset() }, Never, nil},
	}
	var l Lane[int]
	for _, s := range steps {
		s.do(&l)
		var pending []int
		for _, e := range l.Pending() {
			pending = append(pending, e.V)
		}
		if l.NextAt() != s.nextAt || !slices.Equal(pending, s.pending) {
			t.Fatalf("%s: NextAt %d pending %v, want %d %v", s.name, l.NextAt(), pending, s.nextAt, s.pending)
		}
	}
}

// A lane that is drained empties back to the start of its backing array:
// a steady push/drain cycle allocates nothing once the array has grown to
// the most the lane ever holds.
func TestLaneSteadyStateAllocs(t *testing.T) {
	var l Lane[int]
	now := int64(0)
	cycle := func() {
		for i := 0; i < 4; i++ {
			l.Push(now+2, i)
		}
		now++
		for l.Ready(now) {
			l.Pop()
		}
		l.Settle()
	}
	for i := 0; i < 64; i++ {
		cycle()
	}
	held := cap(l.buf)
	if n := testing.AllocsPerRun(1000, cycle); n != 0 {
		t.Fatalf("%v allocs per push/drain cycle", n)
	}
	if cap(l.buf) != held {
		t.Fatalf("the backing array grew from %d to %d entries in steady state", held, cap(l.buf))
	}
}

// TestLaneMatchesSliceModel drives a lane and a plain slice with one
// seeded stream of pushes, drains to a moving clock, filters and resets.
func TestLaneMatchesSliceModel(t *testing.T) {
	for seed := uint64(1); seed <= 20; seed++ {
		rng := sim.NewRNG(seed)
		var l Lane[int]
		var model []Timed[int]
		now, last, serial := int64(0), int64(0), 0
		for op := 0; op < 4000; op++ {
			switch r := rng.Intn(100); {
			case r < 55:
				last = max(last, now) + int64(rng.Intn(4)) // nondecreasing arrival
				l.Push(last, serial)
				model = append(model, Timed[int]{At: last, V: serial})
				serial++
			case r < 90:
				now += int64(rng.Intn(3))
				got, next := drain(&l, now)
				k := 0
				for k < len(model) && model[k].At <= now {
					k++
				}
				for i, v := range got {
					if i >= k || v != model[i].V {
						t.Fatalf("seed %d op %d: drained %v at %d, model has %v", seed, op, got, now, model[:k])
					}
				}
				if len(got) != k {
					t.Fatalf("seed %d op %d: drained %d entries at %d, model %d", seed, op, len(got), now, k)
				}
				model = model[k:]
				if want := modelNextAt(model); next != want {
					t.Fatalf("seed %d op %d: Settle reported %d, model %d", seed, op, next, want)
				}
			case r < 97:
				m := 2 + rng.Intn(3)
				keep := func(v int) bool { return v%m != 0 }
				l.Filter(keep)
				model = slices.DeleteFunc(model, func(e Timed[int]) bool { return !keep(e.V) })
			default:
				l.Reset()
				model = model[:0]
			}
			if !slices.Equal(l.Pending(), model) || l.NextAt() != modelNextAt(model) {
				t.Fatalf("seed %d op %d: lane holds %v (NextAt %d), model %v", seed, op, l.Pending(), l.NextAt(), model)
			}
		}
	}
}

func modelNextAt(model []Timed[int]) int64 {
	if len(model) == 0 {
		return Never
	}
	return model[0].At
}
