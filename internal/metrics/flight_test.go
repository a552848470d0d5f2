package metrics

import (
	"fmt"
	"slices"
	"strings"
	"testing"
)

// eagerRing is the flight recorder's model: every event ever recorded,
// of which the last size are retained.
type eagerRing struct {
	size int
	all  []Event
}

func (e *eagerRing) retained() []Event { return e.all[max(0, len(e.all)-e.size):] }

// checkRecorder compares every reader of r against the model.
func checkRecorder(t *testing.T, r *Recorder, model *eagerRing, total int64, when string) {
	t.Helper()
	want := model.retained()
	if got := r.Events(nil); !slices.Equal(got, want) {
		t.Fatalf("%s: Events = %v, want %v", when, got, want)
	}
	if r.Len() != len(want) || r.Total() != total {
		t.Fatalf("%s: Len %d Total %d, want %d and %d", when, r.Len(), r.Total(), len(want), total)
	}
	var got, ref strings.Builder
	r.Dump(&got, nil)
	for _, ev := range want {
		fmt.Fprintf(&ref, "cycle=%-10d node=%-4d %-18s a=%d b=%d aux=%d\n",
			ev.Cycle, ev.Node, fmt.Sprintf("code=%d", ev.Code), ev.A, ev.B, ev.Aux)
	}
	if got.String() != ref.String() {
		t.Fatalf("%s: Dump\n%s\nwant\n%s", when, got.String(), ref.String())
	}
}

// TestRecorderLazyRing: a recorder holds no ring until its first Record,
// which allocates it, and nothing allocates after that. After k events — none, fewer than, exactly and
// more than the ring holds — a recorder reads like the model, and so does
// one rebuilt the way a checkpoint restore rebuilds it (the retained
// events replayed through Record, then SetTotal).
func TestRecorderLazyRing(t *testing.T) {
	const size = 8
	var held *Recorder
	if a := testing.AllocsPerRun(10, func() { held = NewRecorder(size) }); a != 1 {
		t.Fatalf("NewRecorder allocates %.0f times, want 1 (the header, no ring)", a)
	}
	if a := testing.AllocsPerRun(10, func() { held = NewRecorder(size); held.Record(Event{}) }); a != 2 {
		t.Fatalf("a recorder with one event took %.0f allocations, want 2 (header and ring)", a)
	}
	if a := testing.AllocsPerRun(100, func() { held.Record(Event{Cycle: 1}) }); a != 0 {
		t.Fatalf("Record after the first allocates %.1f times", a)
	}
	for _, k := range []int{0, 1, size - 1, size, size + 1, 3*size + 5} {
		r := NewRecorder(size)
		model := &eagerRing{size: size}
		for i := 0; i < k; i++ {
			ev := Event{Cycle: int64(10 * i), Code: uint16(i % 5), Node: int16(i % 3), A: int32(i), B: -int32(i), Aux: int64(i * i)}
			r.Record(ev)
			model.all = append(model.all, ev)
		}
		checkRecorder(t, r, model, int64(k), "recorded")

		replay := NewRecorder(size)
		for _, ev := range r.Events(nil) {
			replay.Record(ev)
		}
		replay.SetTotal(r.Total())
		checkRecorder(t, replay, model, int64(k), "replayed")
	}
}
