package traffic

import (
	"slices"
	"testing"

	"mmr/internal/sim"
)

// TestCalendarMatchesScan drives a Calendar the way a gated injector does
// — one Visit a cycle, now and then an Invalidate after the session list
// changed — against a plain table scanned every cycle: Visit must hand
// out exactly the held sessions and the waiting ones that are due, in
// ascending id, ticking exactly the due ones, file each again where its key
// says after the injector has changed it, and NextDue must be the table's
// minimum.
func TestCalendarMatchesScan(t *testing.T) {
	type sess struct {
		due  int64
		held bool
		live bool
	}
	rng := sim.NewRNG(5)
	const n = 97
	tab := make([]sess, n)
	all := make([]int, n)
	for id := range tab {
		tab[id] = sess{due: int64(rng.Intn(40)), live: true}
		all[id] = id
	}
	// A session that is gone has nothing queued and no due cycle: it is
	// filed nowhere, whether the calendar meets it in the list or again
	// after a visit.
	key := func(id int) (int64, bool, int64) {
		if s := tab[id]; s.live {
			return s.due, s.held, int64(id)
		}
		return NoEvent, false, int64(id)
	}
	var cal Calendar[int]
	if cal.Stale() {
		t.Fatal("a new calendar is stale")
	}
	cal.Invalidate()
	rebuilt := 0
	for now := int64(0); now < 4000; now++ {
		var want []int
		next := NoEvent
		for id, s := range tab {
			if s.live && (s.held || s.due <= now) {
				want = append(want, id)
			}
			if s.live && s.due < next {
				next = s.due
			}
		}
		if !cal.Stale() {
			// Until the Visit after an Invalidate the calendar describes
			// the sessions as they were.
			if got := cal.NextDue(); got != next {
				t.Fatalf("cycle %d: NextDue %d, the table's minimum is %d", now, got, next)
			}
		} else {
			rebuilt++
		}
		var got []int
		cal.Visit(now, false, all, key, func(id int, tick bool) {
			got = append(got, id)
			s := &tab[id]
			if tick != (s.due <= now) {
				t.Fatalf("cycle %d: session %d (due %d) handed over with tick %v", now, id, s.due, tick)
			}
			// What an injector decides after looking at a session: a new
			// forecast if it was due, whether flits still queue, and once
			// in a while that it is gone.
			if s.due <= now {
				s.due = now + 1 + int64(rng.Intn(300))
				if rng.Intn(50) == 0 {
					s.due = NoEvent // stopped injecting; held while it drains
					s.held = true
				}
			}
			if s.due == NoEvent {
				s.live = rng.Intn(4) != 0
			} else {
				s.held = rng.Intn(5) == 0
			}
		})
		if cal.Stale() {
			t.Fatalf("cycle %d: still stale after a Visit", now)
		}
		if !slices.Equal(got, want) {
			t.Fatalf("cycle %d: Visit handed out %v, the scan says %v", now, got, want)
		}
		if cal.Holding() != slices.ContainsFunc(tab, func(s sess) bool { return s.live && s.held }) {
			t.Fatalf("cycle %d: Holding() = %v disagrees with the table", now, cal.Holding())
		}
		if rng.Intn(200) == 0 {
			// The control plane changed the session list under the
			// calendar: a session opens, everything is to be filed afresh.
			tab[rng.Intn(n)] = sess{due: now + 1, live: true}
			cal.Invalidate()
		}
	}
	if rebuilt < 5 {
		t.Fatalf("only %d rebuilds: the stale path went unexercised", rebuilt)
	}
}

// TestCalendarReferenceWalk pins Visit with every set, the engines'
// NoIdleSkip: every session of the list is handed over, in list order and
// ticked, whatever the calendar has filed; the calendar is left stale; and
// the gated Visit that follows files every session afresh — the walk's
// changes to the sessions, made behind the calendar's back, included.
func TestCalendarReferenceWalk(t *testing.T) {
	due := map[int]int64{7: 3, 2: 50, 9: NoEvent, 4: 10, 5: 3}
	all := []int{7, 2, 9, 4, 5} // list order, not id order
	key := func(id int) (int64, bool, int64) { return due[id], false, int64(id) }
	var cal Calendar[int]
	cal.Invalidate()
	var got []int
	cal.Visit(3, false, all, key, func(id int, tick bool) { got = append(got, id) })
	if !slices.Equal(got, []int{5, 7}) {
		t.Fatalf("gated Visit at 3 handed out %v, want [5 7]", got)
	}
	due[5], due[7] = 40, 40

	got = got[:0]
	cal.Visit(4, true, all, key, func(id int, tick bool) {
		if !tick {
			t.Fatalf("the reference walk handed %d over unticked", id)
		}
		got = append(got, id)
		if id == 9 {
			due[9] = 5 // a change no Invalidate announces
		}
	})
	if !slices.Equal(got, all) {
		t.Fatalf("the reference walk handed out %v, want the list %v", got, all)
	}
	if !cal.Stale() {
		t.Fatal("the calendar is not stale after a reference walk")
	}

	// Filed before the walk, the calendar knew 9 as never due and 4 as due
	// at 10; only a refile from scratch finds 9 due at 5.
	got = got[:0]
	cal.Visit(5, false, all, key, func(id int, tick bool) {
		if !tick {
			t.Fatalf("a due session %d handed over unticked", id)
		}
		got = append(got, id)
		due[id] = NoEvent
	})
	if !slices.Equal(got, []int{9}) {
		t.Fatalf("gated Visit after the walk handed out %v, want [9]", got)
	}
	if cal.Stale() || cal.NextDue() != 10 {
		t.Fatalf("after the refile: stale %v, NextDue %d, want 10", cal.Stale(), cal.NextDue())
	}
}
