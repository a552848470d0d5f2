package router

import (
	"testing"

	"mmr/internal/flit"
	"mmr/internal/sim"
	"mmr/internal/traffic"
)

// steadyRouter builds the paper's 8×8 router carrying a mixed workload —
// streams at the given load plus control and best-effort packet flows —
// and runs it to steady state so every scratch buffer, ring and free list
// has reached its high-water mark.
func steadyRouter(t testing.TB, load float64, warmup int64) *Router {
	t.Helper()
	cfg := PaperConfig()
	r, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	wl, err := traffic.Generate(traffic.WorkloadConfig{
		Ports: cfg.Ports, Link: cfg.Link, Rates: traffic.PaperRates,
		TargetLoad: load, MaxPortLoad: 1,
	}, sim.NewRNG(1))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.EstablishWorkload(wl); err != nil {
		t.Fatal(err)
	}
	for p := 0; p < cfg.Ports; p++ {
		if err := r.AddControlFlow(p, (p+1)%cfg.Ports, 0.01); err != nil {
			t.Fatal(err)
		}
		if err := r.AddBestEffortFlow(p, (p+3)%cfg.Ports, 0.02); err != nil {
			t.Fatal(err)
		}
	}
	r.Run(warmup, 0)
	return r
}

// TestStepZeroAllocSteadyState is the allocation-regression gate: one
// steady-state flit cycle of the paper configuration must not allocate.
// Any change that reintroduces a per-cycle allocation — a closure that
// escapes, a map rebuilt per call, a flit constructed instead of pooled —
// fails here long before it shows up in a profile.
func TestStepZeroAllocSteadyState(t *testing.T) {
	r := steadyRouter(t, 0.8, 5_000)
	allocs := testing.AllocsPerRun(500, func() { r.Step() })
	if allocs != 0 {
		t.Errorf("Router.Step allocates %.2f times per cycle at steady state, want 0", allocs)
	}
}

// TestPoolRecycleBalance runs a long mixed workload and then audits the
// flit pool: every live flit must be reachable from exactly one place (an
// NI queue or a VCM slot — no aliasing from a double-recycle), the
// get/put ledger must equal the live count, and draining everything must
// return the pool to balance. `make check` runs this under -race, so a
// pool shared across goroutines by mistake would be caught here too.
func TestPoolRecycleBalance(t *testing.T) {
	r := steadyRouter(t, 0.9, 0)
	cycles := int64(30_000)
	if testing.Short() {
		cycles = 5_000
	}
	r.Run(0, cycles)

	pool := r.pool
	seen := make(map[*flit.Flit]string)
	note := func(f *flit.Flit, where string) {
		if prev, dup := seen[f]; dup {
			t.Fatalf("flit %p reachable twice: %s and %s (recycled while live?)", f, prev, where)
		}
		seen[f] = where
	}
	// Drain destructively: NI queues first, then every VC of every port.
	for _, c := range r.Connections() {
		for c.ni.Queue.Len() > 0 {
			note(c.ni.Queue.Pop(), "conn NI queue")
		}
	}
	for _, pf := range r.flows {
		for pf.ni.Queue.Len() > 0 {
			note(pf.ni.Queue.Pop(), "packet flow NI queue")
		}
	}
	for p := 0; p < r.cfg.Ports; p++ {
		mem := r.core.Mems[p]
		for vc := 0; vc < mem.NumVCs(); vc++ {
			for mem.Len(vc) > 0 {
				note(mem.Pop(vc), "VCM")
			}
		}
	}
	if got, want := int64(len(seen)), pool.Live(); got != want {
		t.Fatalf("pool ledger out of balance: %d live flits reachable, pool says %d", got, want)
	}
	// Retiring everything must zero the ledger — no flit leaked, none
	// double-counted.
	for f := range seen {
		pool.Put(f)
	}
	if n := pool.Live(); n != 0 {
		t.Fatalf("pool holds %d live flits after draining everything, want 0", n)
	}
}

// TestRecycledFlitNotRetained locks the ownership rule that departure is
// the sink: after a flit leaves the switch, no router structure may still
// reference it. A departed flit is reissued by the pool with new contents,
// so retention would silently corrupt whatever held on.
func TestRecycledFlitNotRetained(t *testing.T) {
	r := steadyRouter(t, 0.8, 2_000)
	pool := r.pool
	if m := r.Run(0, 1_000); m.FlitsDelivered == 0 {
		t.Fatal("no flit departed during the measurement window")
	}
	// The pool's free list only holds retired flits; a retired flit still
	// queued anywhere would surface as aliasing in TestPoolRecycleBalance.
	// Here we check the cheap global invariant instead: everything issued
	// is either still queued or parked on the free list.
	queued := int64(0)
	for _, c := range r.Connections() {
		queued += int64(c.ni.Queue.Len())
	}
	for _, pf := range r.flows {
		queued += int64(pf.ni.Queue.Len())
	}
	for p := 0; p < r.cfg.Ports; p++ {
		queued += int64(r.core.Mems[p].Occupied())
	}
	if n := pool.Live(); n != queued {
		t.Fatalf("pool counts %d live flits but %d are queued: a departed flit is retained or leaked",
			n, queued)
	}
}
