package traffic

import "mmr/internal/flit"

// forecastHorizon bounds how far ahead a source forecast looks. A forecast
// returning the horizon means "nothing before then; re-forecast there", so
// the constant is only how often a silent source is looked at again — a
// forecast costs the same whatever it spans (sumBelowOne). It never affects
// results, but NextDue rides checkpoints, which is why it is not raised.
const forecastHorizon = 4096

// Injector is one session's host interface: its traffic source, the
// network-interface queue its flits wait in for buffer space, and the
// source-gating protocol every engine runs it under.
//
// A source is stateful and must see every cycle, but an engine looks at a
// session only when NextDue has come or flits queue at its interface.
// Arrivals makes good the cycles in between: it first replays them (no-ops
// by construction — the forecast promised no arrivals and gap ticks draw no
// RNG; the sum is the one the forecast already made, see Forecaster), then
// ticks the live cycle, and only then, once the forecast has expired,
// forecasts again — after the tick, so the forecast always describes the
// source's actual per-cycle state. LastTick and NextDue are maintained the
// same way whether or not the engine gates on them: they are durable state
// a checkpoint carries, and must not depend on the execution strategy
// (ForecastEvent touches no simulated state). A session that is only
// draining its queue is not ticked: its gap stays whole for the forecast's
// memo.
type Injector struct {
	Source Source    // nil once the session is torn down
	Queue  flit.Ring // flits minted and not yet in a virtual channel

	LastTick int64 // last cycle Source was ticked
	NextDue  int64 // forecast cycle of Source's next arrival or RNG draw
}

// Start makes cycle now the first the source is ticked in: whatever came
// before — a broken period, a rate whose forecast no longer holds — is not
// replayed, and the first look at the session forecasts afresh.
func (in *Injector) Start(now int64) {
	in.LastTick = now - 1
	in.NextDue = now
}

// Arrivals returns the flits the source emits in cycle t; every cycle
// between LastTick and t must lie before NextDue.
func (in *Injector) Arrivals(t int64) int {
	in.CatchUp(t - 1)
	k := in.Source.Tick(t)
	in.LastTick = t
	if in.NextDue <= t {
		in.NextDue = ForecastSource(in.Source, t, t+forecastHorizon)
	}
	return k
}

// Mint ticks the source in cycle t (Arrivals) and queues each flit it
// emits at the interface: one from pool, made like proto and created at t.
// It returns how many it queued.
func (in *Injector) Mint(t int64, pool *flit.Pool, proto flit.Flit) int64 {
	proto.CreatedAt = t
	k := in.Arrivals(t)
	for i := 0; i < k; i++ {
		f := pool.Get()
		*f = proto
		in.Queue.Push(f)
	}
	return int64(k)
}

// CatchUp replays the cycles after LastTick up to and including through,
// all of which lie before NextDue. Anything about to change how the source
// ticks (its rate) or to stop it must first replay the gap as it was.
func (in *Injector) CatchUp(through int64) {
	if in.Replay(through) != 0 {
		panic("traffic: a source produced flits during cycles its forecast promised silent")
	}
}

// Replay is CatchUp for a caller that reports a broken forecast itself: it
// returns the flits the replayed cycles produced — 0 whenever the forecast
// held — instead of panicking on them.
func (in *Injector) Replay(through int64) int {
	if in.LastTick >= through {
		return 0
	}
	k := AdvanceSource(in.Source, in.LastTick, through)
	in.LastTick = through
	return k
}

// Retune makes a CBR source emit perCycle flits a cycle from cycle
// through+1 on. The cycles it was left alone for ran at the old rate and
// are replayed first; its fractional accumulator is kept — a renegotiation
// changes the rate, it does not restart the stream, so there is no phase
// jump or burst — and the forecast, made at the old rate, starts afresh.
// For any other source it replays and restarts alike but changes no rate,
// and reports false.
func (in *Injector) Retune(through int64, perCycle float64) bool {
	if in.Source != nil {
		in.CatchUp(through)
	}
	in.Start(through + 1)
	src, ok := in.Source.(*CBRSource)
	if ok {
		src.perCycle = perCycle
	}
	return ok
}
