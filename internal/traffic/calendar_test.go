package traffic

import (
	"slices"
	"testing"

	"mmr/internal/sim"
)

// calendarCase is one way an injector drives its calendar: where the
// clock starts and how far ahead a due session's next forecast lands.
type calendarCase struct {
	name  string
	start int64 // the first cycle visited
	span  int64 // a due session's next due cycle lies 1..span cycles ahead
	far   int64 // when not 0, one refile in 16 lands this far ahead instead
	grid  int64 // when not 0, due cycles are rounded up to a multiple of it
	every int   // one cycle in every starts a burst of Invalidates
	burst int   // the most Invalidates in a burst, one a cycle
}

// calendarCases are TestCalendarMatchesScan's table and
// FuzzCalendarMatchesScan's seeds.
var calendarCases = []calendarCase{
	{name: "dues under 300", span: 300, every: 200, burst: 1},
	// A long daemon run, or a fabric restored from one: every due cycle
	// lies past 2³², and some refiles reach far beyond the rest.
	{name: "dues past 2^32", start: 1<<33 + 12_345, span: 5_000, far: 1 << 35, every: 200, burst: 1},
	// Forecasts land on a few shared cycles, filed in different cycles.
	{name: "equal dues", span: 200, grid: 64, every: 300, burst: 1},
	{name: "refiles at t+1", span: 1, every: 200, burst: 1},
	{name: "Invalidate bursts", span: 300, every: 20, burst: 5},
}

// TestCalendarMatchesScan drives a Calendar the way a gated injector does
// — one Visit a cycle, now and then an Invalidate after the session list
// changed — against a plain table scanned every cycle, for each case of
// calendarCases: Visit must hand out exactly the held sessions and the
// waiting ones that are due, in ascending id, ticking exactly the due
// ones, file each again where its key says after the injector has changed
// it, and NextDue must be the table's minimum. The same run without the
// NextDue and Holding reads between visits must hand out the same.
func TestCalendarMatchesScan(t *testing.T) {
	for _, tc := range calendarCases {
		t.Run(tc.name, func(t *testing.T) {
			peeked, rebuilt := driveCalendar(t, tc, 5, 4000, true)
			if rebuilt < 5 {
				t.Fatalf("only %d rebuilds: the stale path went unexercised", rebuilt)
			}
			if bare, _ := driveCalendar(t, tc, 5, 4000, false); !slices.Equal(peeked, bare) {
				t.Fatal("reading NextDue and Holding between visits changed what Visit handed out")
			}
		})
	}
}

// FuzzCalendarMatchesScan is TestCalendarMatchesScan over any case and
// seed, for a shorter run.
func FuzzCalendarMatchesScan(f *testing.F) {
	for i, tc := range calendarCases {
		f.Add(uint64(i), uint64(tc.start), uint16(tc.span), uint64(tc.far), uint8(tc.grid), uint8(tc.every), uint8(tc.burst))
	}
	f.Fuzz(func(t *testing.T, seed, start uint64, span uint16, far uint64, grid, every, burst uint8) {
		tc := calendarCase{
			start: int64(start % (1 << 61)), span: 1 + int64(span),
			far: int64(far % (1 << 40)), grid: int64(grid),
			every: 1 + int(every), burst: 1 + int(burst%8),
		}
		peeked, _ := driveCalendar(t, tc, seed, 600, true)
		if bare, _ := driveCalendar(t, tc, seed, 600, false); !slices.Equal(peeked, bare) {
			t.Fatal("reading NextDue and Holding between visits changed what Visit handed out")
		}
	})
}

// driveCalendar runs one case for cycles cycles from a seeded table of
// sessions, failing t where Visit disagrees with the scan — and, with peek,
// where NextDue or Holding does. It returns every session handed out, as
// id and tick, cycle by cycle, and how many Visits rebuilt the calendar.
func driveCalendar(t *testing.T, tc calendarCase, seed uint64, cycles int64, peek bool) (log []int64, rebuilt int) {
	t.Helper()
	type sess struct {
		due  int64
		held bool
		live bool
	}
	rng := sim.NewRNG(seed)
	const n = 97
	tab := make([]sess, n)
	all := make([]int, n)
	for id := range tab {
		tab[id] = sess{due: tc.start + int64(rng.Intn(40)), live: true}
		all[id] = id
	}
	next := func(now int64) int64 {
		due := now + 1 + int64(rng.Intn(int(tc.span)))
		if tc.far != 0 && rng.Intn(16) == 0 {
			due = now + tc.far
		}
		if tc.grid != 0 {
			due = (due + tc.grid - 1) / tc.grid * tc.grid
		}
		return due
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
	if cal.stale {
		t.Fatal("a new calendar is stale")
	}
	cal.Invalidate()
	bursting := 0
	for now := tc.start; now < tc.start+cycles; now++ {
		var want []int
		least := NoEvent
		for id, s := range tab {
			if s.live && (s.held || s.due <= now) {
				want = append(want, id)
			}
			if s.live && s.due < least {
				least = s.due
			}
		}
		if cal.stale {
			rebuilt++
		} else if peek {
			// Until the Visit after an Invalidate the calendar describes
			// the sessions as they were.
			if got := cal.NextDue(); got != least {
				t.Fatalf("cycle %d: NextDue %d, the table's minimum is %d", now, got, least)
			}
		}
		var got []int
		cal.Visit(now, false, all, key, func(id int, tick bool) {
			got = append(got, id)
			s := &tab[id]
			if tick != (s.due <= now) {
				t.Fatalf("cycle %d: session %d (due %d) handed over with tick %v", now, id, s.due, tick)
			}
			if tick {
				log = append(log, int64(id))
			} else {
				log = append(log, -1-int64(id))
			}
			// What an injector decides after looking at a session: a new
			// forecast if it was due, whether to be held, and once in a
			// while that it is gone.
			if s.due <= now {
				s.due = next(now)
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
		if cal.stale {
			t.Fatalf("cycle %d: still stale after a Visit", now)
		}
		if !slices.Equal(got, want) {
			t.Fatalf("cycle %d: Visit handed out %v, the scan says %v", now, got, want)
		}
		if peek && cal.Holding() != slices.ContainsFunc(tab, func(s sess) bool { return s.live && s.held }) {
			t.Fatalf("cycle %d: Holding() = %v disagrees with the table", now, cal.Holding())
		}
		if bursting == 0 && rng.Intn(tc.every) == 0 {
			bursting = 1 + rng.Intn(tc.burst)
		}
		if bursting > 0 {
			// The control plane changed the session list under the
			// calendar: a session opens, everything is to be filed afresh.
			bursting--
			tab[rng.Intn(n)] = sess{due: now + 1, live: true}
			cal.Invalidate()
		}
	}
	return log, rebuilt
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
	if !cal.stale {
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
	if cal.stale || cal.NextDue() != 10 {
		t.Fatalf("after the refile: stale %v, NextDue %d, want 10", cal.stale, cal.NextDue())
	}
}
