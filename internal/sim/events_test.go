package sim

import (
	"testing"
	"testing/quick"
)

func TestEngineOrdersByTime(t *testing.T) {
	e := NewEngine()
	var order []int
	e.At(30, EventFunc(func(Time) { order = append(order, 3) }))
	e.At(10, EventFunc(func(Time) { order = append(order, 1) }))
	e.At(20, EventFunc(func(Time) { order = append(order, 2) }))
	e.runAll()
	if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Fatalf("wrong firing order: %v", order)
	}
	if e.Now() != 30 {
		t.Fatalf("clock = %d, want 30", e.Now())
	}
}

func TestEngineFIFOAtSameTime(t *testing.T) {
	e := NewEngine()
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		e.At(5, EventFunc(func(Time) { order = append(order, i) }))
	}
	e.runAll()
	for i, v := range order {
		if v != i {
			t.Fatalf("same-deadline events not FIFO: %v", order)
		}
	}
}

func TestEnginePastSchedulingPanics(t *testing.T) {
	e := NewEngine()
	e.At(10, EventFunc(func(Time) {}))
	e.Step()
	defer func() {
		if recover() == nil {
			t.Fatal("scheduling in the past did not panic")
		}
	}()
	e.At(5, EventFunc(func(Time) {}))
}

func TestEngineNegativeDelayPanics(t *testing.T) {
	e := NewEngine()
	defer func() {
		if recover() == nil {
			t.Fatal("negative delay did not panic")
		}
	}()
	e.after(-1, EventFunc(func(Time) {}))
}

func TestEngineRunLimit(t *testing.T) {
	e := NewEngine()
	fired := 0
	for i := Time(1); i <= 10; i++ {
		e.At(i*10, EventFunc(func(Time) { fired++ }))
	}
	n := e.Run(50)
	if n != 5 || fired != 5 {
		t.Fatalf("Run(50) fired %d events, want 5", fired)
	}
	if e.Now() != 50 {
		t.Fatalf("clock = %d, want 50 after Run(50)", e.Now())
	}
	e.runAll()
	if fired != 10 {
		t.Fatalf("runAll left events unfired: %d", fired)
	}
}

func TestEngineEventsCanSchedule(t *testing.T) {
	e := NewEngine()
	var ticks []Time
	var tick func(t Time)
	tick = func(t Time) {
		ticks = append(ticks, t)
		if t < 50 {
			e.after(10, EventFunc(tick))
		}
	}
	e.At(0, EventFunc(tick))
	e.runAll()
	if len(ticks) != 6 {
		t.Fatalf("self-scheduling chain fired %d times, want 6 (%v)", len(ticks), ticks)
	}
	for i, at := range ticks {
		if at != Time(i*10) {
			t.Fatalf("tick %d fired at %d", i, at)
		}
	}
}

func TestEngineCounters(t *testing.T) {
	e := NewEngine()
	e.At(1, EventFunc(func(Time) {}))
	e.At(2, EventFunc(func(Time) {}))
	if e.Pending() != 2 {
		t.Fatalf("Pending = %d, want 2", e.Pending())
	}
	e.runAll()
	if e.Fired() != 2 || e.Pending() != 0 {
		t.Fatalf("Fired = %d Pending = %d after runAll", e.Fired(), e.Pending())
	}
}

// Property: however events are inserted, they fire in nondecreasing time
// order, and same-time events fire in insertion order.
func TestEngineOrderingProperty(t *testing.T) {
	f := func(deadlines []uint8) bool {
		e := NewEngine()
		type rec struct {
			at  Time
			seq int
		}
		var fired []rec
		for i, d := range deadlines {
			i, at := i, Time(d)
			e.At(at, EventFunc(func(now Time) { fired = append(fired, rec{now, i}) }))
		}
		e.runAll()
		for i := 1; i < len(fired); i++ {
			if fired[i].at < fired[i-1].at {
				return false
			}
			if fired[i].at == fired[i-1].at && fired[i].seq < fired[i-1].seq {
				return false
			}
		}
		return len(fired) == len(deadlines)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// runAll fires events until none remain and returns how many fired.
func (e *Engine) runAll() uint64 {
	start := e.fired
	for e.Step() {
	}
	return e.fired - start
}
