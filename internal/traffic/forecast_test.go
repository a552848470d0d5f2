package traffic

import (
	"testing"

	"mmr/internal/sim"
)

// cloneSrc deep-copies a source together with its RNG so brute-force
// simulation can run ahead without disturbing the live source. The
// returned RNG is nil when the source draws no randomness.
type cloneSrc func() (Source, *sim.RNG)

// bruteNextEvent ticks a throwaway copy cycle by cycle and returns the
// first cycle at which Tick returns flits or consumes RNG — the reference
// semantics ForecastEvent must reproduce. RNG consumption is detected by
// comparing the generator's value state before and after each Tick.
func bruteNextEvent(clone cloneSrc, now, horizon int64) int64 {
	src, rng := clone()
	var shadow sim.RNG
	if rng != nil {
		shadow = *rng
	}
	for c := now + 1; c <= horizon; c++ {
		n := src.Tick(c)
		drew := rng != nil && *rng != shadow
		if rng != nil {
			shadow = *rng
		}
		if n > 0 || drew {
			return c
		}
	}
	return horizon
}

// checkForecast walks a source forward event by event for `until` cycles,
// asserting at every step that ForecastEvent agrees exactly with the
// brute-force reference, then advancing the live source through every
// skipped cycle the way the engines' catch-up loops do.
func checkForecast(t *testing.T, name string, live Source, clone cloneSrc, until int64) {
	t.Helper()
	f, ok := live.(Forecaster)
	if !ok {
		t.Fatalf("%s does not implement Forecaster", name)
	}
	const window = 512
	now := int64(0)
	for now < until {
		horizon := now + window
		want := bruteNextEvent(clone, now, horizon)
		got := f.ForecastEvent(now, horizon)
		if got != want {
			t.Fatalf("%s: at cycle %d forecast says %d, brute-force says %d", name, now, got, want)
		}
		if got <= now || got > horizon {
			t.Fatalf("%s: forecast %d outside (now=%d, horizon=%d]", name, got, now, horizon)
		}
		for c := now + 1; c <= got; c++ {
			live.Tick(c)
		}
		now = got
	}
}

func TestForecastEventCBR(t *testing.T) {
	for _, r := range []Rate{64 * Kbps, 1.54 * Mbps, 20 * Mbps, 120 * Mbps} {
		s := NewCBRSource(PaperLink, r, 0.37)
		clone := func() (Source, *sim.RNG) { c := *s; return &c, nil }
		checkForecast(t, "cbr/"+r.String(), s, clone, 50000)
	}
}

func TestForecastEventCBRZeroRate(t *testing.T) {
	s := NewCBRSource(PaperLink, 0, 0)
	if got := s.ForecastEvent(100, 600); got != 600 {
		t.Fatalf("zero-rate CBR forecast %d, want horizon 600", got)
	}
}

func TestForecastEventBestEffort(t *testing.T) {
	for _, rate := range []float64{0.001, 0.02, 0.3} {
		s := NewBestEffortSource(sim.NewRNG(17), rate)
		clone := func() (Source, *sim.RNG) {
			c := *s
			r := *s.rng
			c.rng = &r
			return &c, c.rng
		}
		checkForecast(t, "be", s, clone, 50000)
	}
	s := NewBestEffortSource(sim.NewRNG(17), 0)
	if got := s.ForecastEvent(100, 600); got != 600 {
		t.Fatalf("zero-rate best-effort forecast %d, want horizon 600", got)
	}
}

func TestForecastEventVBR(t *testing.T) {
	for _, sigma := range []float64{0, 0.2} {
		gop := DefaultGoP()
		gop.Sigma = sigma
		s := NewVBRSource(sim.NewRNG(23), PaperLink, 5*Mbps, 10*Mbps, gop)
		clone := func() (Source, *sim.RNG) {
			c := *s
			r := *s.rng
			c.rng = &r
			return &c, c.rng
		}
		checkForecast(t, "vbr", s, clone, 200000)
	}
}

// TestForecastSourceFallback: sources without a forecast are always due
// next cycle, so the engines never skip across an unpredictable source.
func TestForecastSourceFallback(t *testing.T) {
	opaque := sourceFunc(func(int64) int { return 0 })
	if got := ForecastSource(opaque, 10, 500); got != 11 {
		t.Fatalf("opaque source forecast %d, want 11", got)
	}
	cbr := NewCBRSource(PaperLink, 20*Mbps, 0)
	if got, want := ForecastSource(cbr, 10, 500), cbr.ForecastEvent(10, 500); got != want {
		t.Fatalf("ForecastSource bypassed Forecaster: got %d, want %d", got, want)
	}
}

type sourceFunc func(int64) int

func (f sourceFunc) Tick(cycle int64) int { return f(cycle) }
