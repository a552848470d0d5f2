package traffic

import (
	"slices"
	"testing"

	"mmr/internal/sim"
)

// TestCalendarMatchesScan drives a Calendar the way an injector does —
// Take a cycle's sessions, file each again, now and then Reset and file
// everything — against a plain table scanned every cycle: Take must hand
// out exactly the held sessions and the waiting ones that are due, in
// ascending id, and NextDue must be the table's minimum.
func TestCalendarMatchesScan(t *testing.T) {
	type sess struct {
		due  int64
		held bool
		live bool
	}
	rng := sim.NewRNG(5)
	const n = 97
	tab := make([]sess, n)
	var cal Calendar[int]
	file := func(id int) {
		if s := &tab[id]; s.live {
			cal.File(s.due, s.held, int64(id), id)
		}
	}
	refile := func() {
		cal.Reset()
		for id := range tab {
			file(id)
		}
	}
	for id := range tab {
		tab[id] = sess{due: int64(rng.Intn(40)), live: true}
	}
	refile()
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
		if got := cal.NextDue(); got != next {
			t.Fatalf("cycle %d: NextDue %d, the table's minimum is %d", now, got, next)
		}
		var got []int
		for _, e := range cal.Take(now) {
			got = append(got, e.Item)
			s := &tab[e.Item]
			if s.due != e.Due || int64(e.Item) != e.ID {
				t.Fatalf("cycle %d: entry %+v filed for session %d due %d", now, e, e.Item, s.due)
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
			file(e.Item)
		}
		if !slices.Equal(got, want) {
			t.Fatalf("cycle %d: Take handed out %v, the scan says %v", now, got, want)
		}
		if cal.Holding() != slices.ContainsFunc(tab, func(s sess) bool { return s.live && s.held }) {
			t.Fatalf("cycle %d: Holding() = %v disagrees with the table", now, cal.Holding())
		}
		if rng.Intn(200) == 0 {
			// The control plane changed the session list under the
			// calendar: a session opens, everything is filed afresh.
			id := rng.Intn(n)
			tab[id] = sess{due: now + 1, live: true}
			refile()
		}
	}
}
