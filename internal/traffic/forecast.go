package traffic

import "math"

// Forecaster is implemented by sources that can predict, without touching
// simulated state or consuming randomness, the first future cycle at
// which calling Tick would matter, and can then replay the silent cycles
// before it in one call. "Matter" means Tick would either return a
// nonzero arrival count or draw from the source's RNG (a toggle, frame
// boundary or Poisson arrival) — everything in between is a cycle the
// activity-gated engines may skip, replaying it when the source next
// wakes (see docs/performance.md, "Activity gating").
//
// ForecastEvent(now, horizon) returns the earliest cycle c with
// now < c <= horizon at which Tick(c) would return >0 flits or consume
// RNG. If no such cycle exists within the window, it returns horizon,
// which the caller must treat as "nothing before horizon; re-forecast
// there" — a conservative (early) wake-up is always safe, because a Tick
// that turns out to be silent is a no-op; a late one would lose arrivals
// or reorder RNG draws.
//
// AdvanceTo(from, to) is Tick(from+1) … Tick(to) for a source already
// ticked through from, where the caller's forecast promised every one of
// those cycles silent; it returns the flits the ticks produced, which is
// 0 whenever the promise held.
//
// Implementations must end on the very sum Tick's per-cycle adds end on:
// one multiply by the gap length diverges from the stepwise sum under
// IEEE-754 rounding and would break bit-identical equivalence with ungated
// stepping. sumBelowOne makes that sum exactly without making every add — a
// few per binade the accumulator crosses — so a forecast costs tens of
// nanoseconds whatever the gap. It still keeps the sum it ends on (gapMemo)
// and AdvanceTo assigns it rather than make it a second time (a replay that
// stops short — a checkpoint in mid-gap — sums its part afresh and leaves
// the memo standing for the rest). The memo is a cache, not simulated state:
// it is keyed by every value the sum depends on, so a source whose
// accumulator or rate moved in between (RestoreState, a rate change)
// simply misses and is ticked cycle by cycle, and it is never exported.
type Forecaster interface {
	ForecastEvent(now, horizon int64) int64
	AdvanceTo(from, to int64) int
}

// gapMemo records one stepwise accumulator sum: adding rate to start, n
// times, one rounding per add, gives end, and no partial sum reaches 1.
type gapMemo struct {
	n          int64
	start, end float64
	rate       float64
}

// sumBelowOne makes Tick's silent adds: rate is added to acc, one rounded
// add at a time, until the next sum would reach 1 or max adds are made. It
// returns how many were made and the sum they end on — bit for bit the
// loop's, in a few real adds (the third result) per binade the sum crosses
// instead of one per cycle.
//
// Between two powers of two every double is a multiple of one spacing u and
// consecutive doubles are consecutive integers as bit patterns. A sum a = k·u
// that rate = (r+f)·u (r whole, 0 <= f < 1) leaves inside its binade is
// therefore (k+r)·u or (k+r+1)·u: the bit pattern moves by r where f < 1/2
// and by r+1 where f > 1/2, whatever k is. At the tie f = 1/2 the add rounds
// to the even neighbour, so a sum that is itself the result of such an add is
// even, and from an even k the pattern moves by whichever of r, r+1 is even —
// even again, so constant too. Hence: once two adds in a row have started and
// ended in one binade, the second one's stride s = bits(next) - bits(a) is
// every later add's, for as long as the pattern stays below the binade's top;
// (top-1-bits)/s of them are taken by one integer multiply (a pattern the
// stride keeps under top is a sum the exact add keeps under it too, so none
// rounds at the next binade's spacing), and the add that crosses is made for
// real. s = 0 is a sum that stands still — NaN and -Inf included — and takes
// all that max allows. Every binade holding a sum below 1 lies wholly below 1
// and next >= 1 is tested on each real add, so the jumps skip no stop. A sum
// moving toward zero (rate and sum of opposite signs) meets the binade's
// bottom, where the argument needs another bound; no source has one, and it
// is stepped plainly. So are the first few adds of any sum: most forecasts
// are a fast session's, over before a stride could be measured.
func sumBelowOne(acc, rate float64, max int64) (steps int64, sum float64, adds int) {
	const mantissa, lead = 1<<52 - 1, 8
	a, inBinade := acc, 0
	for ; steps < min(max, lead); steps++ { // a short gap ends here, at the loop's price
		next := a + rate
		if next >= 1 {
			return steps, a, int(steps) + 1
		}
		a = next
	}
	adds = int(steps)
	for steps < max {
		next := a + rate // same op order as Tick
		adds++
		if next >= 1 { // int(a) >= 1 ⟺ a >= 1 for a >= 0
			break
		}
		ab, nb := math.Float64bits(a), math.Float64bits(next)
		a, steps = next, steps+1
		if (ab^nb)>>52 != 0 { // sign or exponent moved
			inBinade = 0
			continue
		}
		if inBinade++; inBinade < 2 || nb < ab {
			continue
		}
		n, stride := max-steps, nb-ab
		if stride != 0 {
			n = min(n, int64((nb|mantissa-nb)/stride))
		}
		a = math.Float64frombits(nb + uint64(n)*stride)
		steps += n
	}
	return steps, a, adds
}

// forecastAcc steps an accumulator from acc, adding rate once per cycle
// after now, and returns the first cycle before limit whose sum reaches 1
// — or limit — recording in m the sum the cycles before it add up to.
func (m *gapMemo) forecastAcc(acc, rate float64, now, limit int64) int64 {
	if limit <= now {
		return limit
	}
	n, end, _ := sumBelowOne(acc, rate, limit-1-now)
	*m = gapMemo{n: n, start: acc, end: end, rate: rate}
	return now + 1 + n
}

// replay adds rate to *acc n times, silently, if the memo vouches for
// it: the whole gap it measured is assigned, a prefix of it is summed
// afresh — the memo then stands for the rest, whose sum still ends where
// the forecast's did — and anything else is refused.
func (m *gapMemo) replay(acc *float64, rate float64, n int64) bool {
	if m.start != *acc || m.rate != rate || n > m.n {
		return false
	}
	if n == m.n {
		*acc = m.end
		return true
	}
	_, a, _ := sumBelowOne(*acc, rate, n) // no partial sum of the gap reaches 1
	*acc, m.start, m.n = a, a, m.n-n
	return true
}

// tickThrough is the cycle-by-cycle replay every AdvanceTo falls back on.
func tickThrough(s Source, from, to int64) int {
	k := 0
	for c := from + 1; c <= to; c++ {
		k += s.Tick(c)
	}
	return k
}

// ForecastEvent implements Forecaster. The CBR accumulator is pure
// arithmetic — no RNG — so the only event is the accumulator crossing 1.
func (s *CBRSource) ForecastEvent(now, horizon int64) int64 {
	if s.perCycle <= 0 {
		return horizon
	}
	return s.memo.forecastAcc(s.acc, s.perCycle, now, horizon)
}

// AdvanceTo implements Forecaster.
func (s *CBRSource) AdvanceTo(from, to int64) int {
	if to <= from {
		return 0
	}
	if s.memo.replay(&s.acc, s.perCycle, to-from) {
		return 0
	}
	return tickThrough(s, from, to)
}

// ForecastEvent implements Forecaster. The next Poisson arrival time is
// already materialized in s.next; Tick fires (and draws the following
// inter-arrival gap) at the first integer cycle >= next. Cycles before
// that are total no-ops.
func (s *BestEffortSource) ForecastEvent(now, horizon int64) int64 {
	if s.rate <= 0 {
		return horizon
	}
	c := int64(math.Ceil(s.next))
	if c <= now {
		return now + 1
	}
	if c > horizon {
		return horizon
	}
	return c
}

// AdvanceTo implements Forecaster: ticks before the next arrival change
// nothing.
func (s *BestEffortSource) AdvanceTo(from, to int64) int {
	if float64(to) < s.next {
		return 0
	}
	return tickThrough(s, from, to)
}

// ForecastEvent implements Forecaster. Two event kinds: the next frame
// boundary (which draws frame-size noise from the RNG when Sigma > 0, so
// the source must be ticked live there) and, while a backlog is draining,
// the injection accumulator crossing 1. With Sigma == 0 the whole frame
// machine is deterministic, so the forecast just runs a private copy of
// the source forward — bit-exact and RNG-free by construction.
func (s *VBRSource) ForecastEvent(now, horizon int64) int64 {
	if s.gop.Sigma <= 0 {
		cp := *s // Tick never touches cp.rng while Sigma == 0
		for c := now + 1; c <= horizon; c++ {
			if cp.Tick(c) > 0 {
				return c
			}
		}
		return horizon
	}
	fc := int64(math.Ceil(s.nextFrame))
	if fc <= now {
		return now + 1 // frame boundary already due: Tick would draw RNG
	}
	limit := fc
	if limit > horizon {
		limit = horizon
	}
	if s.backlog < s.flitBits {
		// Tick early-returns before touching the accumulator until the
		// next frame tops up the backlog.
		return limit
	}
	return s.memo.forecastAcc(s.acc, s.perCycle, now, limit)
}

// AdvanceTo implements Forecaster. Between frame boundaries a silent tick
// moves nothing but the accumulator, and not even that while the backlog
// is short of a flit.
func (s *VBRSource) AdvanceTo(from, to int64) int {
	if to <= from {
		return 0
	}
	if float64(to) < s.nextFrame {
		if s.backlog < s.flitBits {
			return 0
		}
		if s.memo.replay(&s.acc, s.perCycle, to-from) {
			return 0
		}
	}
	return tickThrough(s, from, to)
}

// ForecastSource forecasts an arbitrary Source: sources implementing
// Forecaster answer exactly; anything else (externally supplied trace
// sources via EstablishWithSource) is conservatively "always due", so the
// engine never skips a cycle it cannot prove silent.
func ForecastSource(src Source, now, horizon int64) int64 {
	if f, ok := src.(Forecaster); ok {
		return f.ForecastEvent(now, horizon)
	}
	return now + 1
}

// AdvanceSource replays the silent cycles from+1 … to of an arbitrary
// Source (see Forecaster.AdvanceTo); sources that cannot forecast are
// ticked through them.
func AdvanceSource(src Source, from, to int64) int {
	if f, ok := src.(Forecaster); ok {
		return f.AdvanceTo(from, to)
	}
	return tickThrough(src, from, to)
}
