package traffic

import (
	"fmt"
	"reflect"
	"testing"

	"mmr/internal/sim"
)

// advTwin is a source under test and its reference: built alike over RNGs
// seeded alike. The live one is driven the way the gated engines drive a
// source — forecast, AdvanceTo across the gap, Tick at the event; the
// reference is ticked every cycle and never forecast.
type advTwin struct {
	live, ref       Source
	liveRNG, refRNG *sim.RNG
}

// forget drops the live source's memo.
func (w *advTwin) forget() {
	switch x := w.live.(type) {
	case *CBRSource:
		x.memo = gapMemo{}
	case *VBRSource:
		x.memo = gapMemo{}
	}
}

// retune changes the rate of both CBR twins through RestoreState, as
// ModifyBandwidth does.
func (w *advTwin) retune(k float64) {
	for _, s := range []*CBRSource{w.live.(*CBRSource), w.ref.(*CBRSource)} {
		st := s.ExportState()
		st.PerCycle *= k
		s.RestoreState(st)
	}
}

func newAdvTwin(kind uint8, seed uint64, rate Rate) *advTwin {
	w := &advTwin{liveRNG: sim.NewRNG(seed), refRNG: sim.NewRNG(seed)}
	switch kind % 4 {
	case 0:
		phase := sim.NewRNG(seed ^ 0x9e37).Float64()
		w.live, w.ref = NewCBRSource(PaperLink, rate, phase), NewCBRSource(PaperLink, rate, phase)
		w.liveRNG, w.refRNG = nil, nil
	case 1, 2:
		gop := DefaultGoP()
		if kind%4 == 1 {
			gop.Sigma = 0
		}
		w.live = NewVBRSource(w.liveRNG, PaperLink, rate, 3*rate, gop)
		w.ref = NewVBRSource(w.refRNG, PaperLink, rate, 3*rate, gop)
	default:
		per := PaperLink.FlitsPerCycle(rate)
		w.live, w.ref = NewBestEffortSource(w.liveRNG, per), NewBestEffortSource(w.refRNG, per)
	}
	return w
}

// state is everything a source's future depends on, the memo and the RNG
// pointer aside (the RNG's position is compared on its own).
func advState(s Source) any {
	switch x := s.(type) {
	case *CBRSource:
		return x.ExportState()
	case *VBRSource:
		return x.ExportState()
	case *BestEffortSource:
		return x.ExportState()
	}
	panic("unknown source kind")
}

func (w *advTwin) same(t testing.TB, when string, now int64) {
	t.Helper()
	if a, b := advState(w.live), advState(w.ref); !reflect.DeepEqual(a, b) {
		t.Fatalf("%s at cycle %d: AdvanceTo left %+v, per-cycle ticks %+v", when, now, a, b)
	}
	if w.liveRNG != nil && *w.liveRNG != *w.refRNG {
		t.Fatalf("%s at cycle %d: RNG position differs from per-cycle ticking", when, now)
	}
}

// runAdvance walks the twins event by event to cycle until. Each gap is
// crossed as script says (cycling through it): memo valid, re-keyed by a
// replay in two parts, unchanged or stale after the state went through
// RestoreState, absent (dropped), or — CBR — cut short
// by a rate change, after which the source is due at once, as after
// ModifyBandwidth.
func runAdvance(t testing.TB, w *advTwin, script []byte, until int64) {
	const horizon = 700
	f := w.live.(Forecaster)
	now := int64(0)
	for step := 0; now < until; step++ {
		due := f.ForecastEvent(now, now+horizon)
		if due <= now || due > now+horizon {
			t.Fatalf("forecast %d outside (%d, %d]", due, now, now+horizon)
		}
		op := byte(0)
		if len(script) > 0 {
			op = script[step%len(script)]
		}
		gapEnd := due - 1
		cut := false
		switch op % 5 {
		case 1: // replayed in two parts: the second cannot use the memo
			if mid := now + (gapEnd-now)*int64(op)/255; mid > now {
				if k := f.AdvanceTo(now, mid); k != 0 {
					t.Fatalf("AdvanceTo(%d, %d) produced %d flits in a gap forecast silent", now, mid, k)
				}
				tickThrough(w.ref, now, mid)
				w.same(t, "after a partial replay", mid)
				now = mid
			}
		case 2: // the state leaves and comes back, as through a checkpoint
			switch x := w.live.(type) {
			case *CBRSource:
				x.RestoreState(x.ExportState())
			case *VBRSource:
				x.RestoreState(x.ExportState())
			case *BestEffortSource:
				x.RestoreState(x.ExportState())
			}
		case 3: // no memo at all
			w.forget()
		case 4: // the rate changes part-way through the gap
			if _, cbr := w.live.(*CBRSource); cbr {
				gapEnd, cut = now+(gapEnd-now)/2, true
			}
		}
		if k := f.AdvanceTo(now, gapEnd); k != 0 {
			t.Fatalf("AdvanceTo(%d, %d) produced %d flits in a gap forecast silent", now, gapEnd, k)
		}
		tickThrough(w.ref, now, gapEnd)
		w.same(t, "after the gap", gapEnd)
		if cut {
			w.retune(1 + float64(op)/64)
		}
		now = gapEnd + 1
		if a, b := w.live.Tick(now), w.ref.Tick(now); a != b {
			t.Fatalf("Tick(%d) = %d after AdvanceTo, %d after per-cycle ticks", now, a, b)
		}
		w.same(t, "after the event tick", now)
	}
}

// TestAdvanceToMatchesTicks: crossing a forecast-silent gap with AdvanceTo
// leaves every kind of source bit-equal to ticking it through each cycle
// — ExportState and RNG position — whether the forecast's memo is valid,
// stale or absent.
func TestAdvanceToMatchesTicks(t *testing.T) {
	names := []string{"cbr", "vbr-sigma0", "vbr", "besteffort"}
	scripts := [][]byte{{0}, {1, 90, 201}, {2}, {3}, {4, 0, 64, 1}, {0, 1, 2, 3, 4, 131, 77, 248, 9}}
	for kind, name := range names {
		for _, rate := range []Rate{64 * Kbps, 1.54 * Mbps, 20 * Mbps, 120 * Mbps} {
			for si, script := range scripts {
				w := newAdvTwin(uint8(kind), uint64(7+si), rate)
				t.Run(fmt.Sprintf("%s/%v/script%d", name, rate, si), func(t *testing.T) { runAdvance(t, w, script, 60_000) })
			}
		}
	}
}

// TestAdvanceToUsesMemo: the equality above would also hold if AdvanceTo
// always ticked. It must not: a gap crossed right after its forecast is
// assigned from the memo (shown by planting a value no sum produces), so
// is what remains of it after a replay that stopped short, and a gap the
// forecast did not vouch for — longer, or from another accumulator — is
// not.
func TestAdvanceToUsesMemo(t *testing.T) {
	s := NewCBRSource(PaperLink, 64*Kbps, 0.25)
	due := s.ForecastEvent(0, 4096)
	if due < 100 {
		t.Fatalf("degenerate: a 64 Kbps source due at cycle %d", due)
	}
	s.memo.end = -1
	whole, parts, longer, moved := *s, *s, *s, *s
	if whole.AdvanceTo(0, due-1); whole.acc != -1 {
		t.Fatalf("the gap the forecast measured was added up again (acc %v)", whole.acc)
	}
	if parts.AdvanceTo(0, 40); parts.acc == -1 || parts.acc == s.acc {
		t.Fatalf("a prefix of the gap was not added up (acc %v)", parts.acc)
	}
	if parts.AdvanceTo(40, due-1); parts.acc != -1 {
		t.Fatalf("the rest of the gap was added up again after a partial replay (acc %v)", parts.acc)
	}
	if longer.AdvanceTo(0, due); longer.acc == -1 {
		t.Fatal("a gap longer than the forecast's was taken from its memo")
	}
	moved.acc += 0.001
	if moved.AdvanceTo(0, due-1); moved.acc == -1 {
		t.Fatal("a gap from another accumulator value was taken from the memo")
	}
}

func FuzzAdvanceToMatchesTicks(f *testing.F) {
	f.Add(uint8(0), uint64(1), uint16(64), []byte{0, 1, 2, 3, 4})
	f.Add(uint8(2), uint64(9), uint16(20_000), []byte{1, 200, 3})
	f.Add(uint8(3), uint64(5), uint16(1_540), []byte{4, 2})
	f.Add(uint8(4), uint64(3), uint16(300), []byte{})
	f.Fuzz(func(t *testing.T, kind uint8, seed uint64, kbps uint16, script []byte) {
		if kbps == 0 {
			kbps = 1
		}
		runAdvance(t, newAdvTwin(kind, seed, Rate(kbps)*Kbps), script, 20_000)
	})
}
