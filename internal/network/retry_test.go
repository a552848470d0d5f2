package network

import (
	"strings"
	"testing"

	"mmr/internal/topology"
	"mmr/internal/traffic"

	"mmr/internal/flit"
)

// retryNet builds a tiny mesh with the given retry policy.
func retryNet(t *testing.T, maxRetries int, backoff int64) *Network {
	t.Helper()
	tp, err := topology.Mesh(2, 2, 4)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig(tp)
	cfg.Seed = 21
	cfg.Fault = FaultPolicy{MaxRetries: maxRetries, RetryBackoff: backoff}
	n, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return n
}

// pendingOpenRetry returns the single journaled durOpenRetry event, or
// nil if none is pending.
func pendingOpenRetry(t *testing.T, n *Network) *durableEvent {
	t.Helper()
	var found *durableEvent
	for _, ev := range n.durables {
		if ev.kind != durOpenRetry {
			continue
		}
		if found != nil {
			t.Fatalf("two open retries journaled at once")
		}
		found = ev
	}
	return found
}

// TestOpenWithRetryBackoff drives an admission request that can never
// succeed (its rate exceeds the link) through the full retry sequence
// and checks the contract precisely: one synchronous attempt plus
// MaxRetries journaled re-searches, each delayed by base<<attempt plus
// jitter strictly within [0, 50%) of that bound, and a single terminal
// callback carrying the admission error.
func TestOpenWithRetryBackoff(t *testing.T) {
	const maxRetries = 4
	const backoff = int64(16)
	n := retryNet(t, maxRetries, backoff)
	n.Run(100)

	impossible := traffic.ConnSpec{Class: flit.ClassCBR, Rate: 2 * n.cfg.Link.Bandwidth}
	var doneConn *Conn
	var doneErr error
	calls := 0
	before := n.Stats().SetupAttempts
	if err := n.OpenWithRetry(0, 3, impossible, func(c *Conn, err error) {
		calls++
		doneConn, doneErr = c, err
	}); err != nil {
		t.Fatalf("OpenWithRetry returned a synchronous error for a retryable failure: %v", err)
	}

	for attempt := 0; attempt < maxRetries; attempt++ {
		ev := pendingOpenRetry(t, n)
		if ev == nil {
			t.Fatalf("attempt %d: no retry journaled", attempt)
		}
		delay := ev.at - n.Now()
		base := backoff << attempt
		if delay < base || delay >= base+base/2 {
			t.Fatalf("attempt %d: delay %d outside jitter window [%d, %d)", attempt, delay, base, base+base/2)
		}
		if calls != 0 {
			t.Fatalf("done callback fired before the attempt budget was exhausted")
		}
		n.Run(delay + 1)
	}

	if ev := pendingOpenRetry(t, n); ev != nil {
		t.Fatalf("retry journaled past the attempt budget (at cycle %d)", ev.at)
	}
	if calls != 1 || doneConn != nil || doneErr == nil {
		t.Fatalf("done: calls=%d conn=%v err=%v, want exactly one failure callback", calls, doneConn, doneErr)
	}
	if got := n.Stats().SetupAttempts - before; got != maxRetries+1 {
		t.Fatalf("%d setup attempts, want %d (1 synchronous + %d retries)", got, maxRetries+1, maxRetries)
	}
	if len(n.openRetries) != 0 {
		t.Fatalf("open-retry registry leaked %d entries", len(n.openRetries))
	}
}

// TestOpenWithRetryImmediateSuccess: an admissible request completes
// synchronously — callback fired before return, nothing journaled.
func TestOpenWithRetryImmediateSuccess(t *testing.T) {
	n := retryNet(t, 3, 16)
	var got *Conn
	if err := n.OpenWithRetry(0, 3, traffic.ConnSpec{Class: flit.ClassCBR, Rate: 20 * traffic.Mbps},
		func(c *Conn, err error) { got = c }); err != nil {
		t.Fatal(err)
	}
	if got == nil || !got.open {
		t.Fatalf("synchronous success did not deliver an open connection: %+v", got)
	}
	if len(n.durables) != 0 || len(n.openRetries) != 0 {
		t.Fatalf("successful open left retry state behind")
	}
}

// TestOpenWithRetryZeroBudget: with MaxRetries 0 the failure is
// delivered synchronously and nothing is journaled.
func TestOpenWithRetryZeroBudget(t *testing.T) {
	n := retryNet(t, 0, 16)
	var gotErr error
	if err := n.OpenWithRetry(0, 3, traffic.ConnSpec{Class: flit.ClassCBR, Rate: 2 * n.cfg.Link.Bandwidth},
		func(c *Conn, err error) { gotErr = err }); err != nil {
		t.Fatal(err)
	}
	if gotErr == nil {
		t.Fatal("zero-budget failure not delivered synchronously")
	}
	if len(n.durables) != 0 || len(n.openRetries) != 0 {
		t.Fatal("zero-budget open journaled a retry")
	}
}

// TestModifyBandwidth covers §4.3 renegotiation at the network level:
// growth within capacity rewires allocation registers and per-hop
// scheduling state, impossible growth is rejected atomically (no
// register drift at any hop), shrinking always succeeds, and the
// resource audit stays clean throughout.
func TestModifyBandwidth(t *testing.T) {
	tp, err := topology.Mesh(3, 3, 4)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig(tp)
	cfg.Seed = 33
	n, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}

	c, err := n.Open(0, 8, traffic.ConnSpec{Class: flit.ClassCBR, Rate: 40 * traffic.Mbps})
	if err != nil {
		t.Fatal(err)
	}
	n.Run(500)
	preDelivered := n.Stats().FlitsDelivered

	if err := n.ModifyBandwidth(c, 160*traffic.Mbps); err != nil {
		t.Fatalf("grow within capacity: %v", err)
	}
	if c.Spec.Rate != 160*traffic.Mbps {
		t.Fatalf("spec rate not updated: %v", c.Spec.Rate)
	}
	d := n.demandFor(c.Spec)
	for i, ref := range c.VCs {
		st := n.nodes[c.Nodes[i]].Mems[ref.Port].State(ref.VC)
		if st.Allocated != d.Alloc {
			t.Fatalf("hop %d allocation %d, want %d", i, st.Allocated, d.Alloc)
		}
	}
	if err := n.CheckInvariants(); err != nil {
		t.Fatalf("after grow: %v", err)
	}
	n.Run(2000)
	grown := n.Stats().FlitsDelivered - preDelivered
	want := n.cfg.Link.FlitsPerCycle(160*traffic.Mbps) * 1500 // allow ramp-up slack
	if float64(grown) < want*0.9 {
		t.Fatalf("delivery did not follow the grown rate: %d flits, want >= %.0f", grown, want*0.9)
	}

	// Impossible growth: rejected with no register drift.
	gBefore := make([]int, len(c.Path)+1)
	for i, h := range c.Path {
		gBefore[i] = n.nodes[h.Node].Alloc[h.Port].Guaranteed()
	}
	gBefore[len(c.Path)] = n.nodes[c.Dst].Alloc[n.cfg.hostPort()].Guaranteed()
	if err := n.ModifyBandwidth(c, 2*n.cfg.Link.Bandwidth); err == nil {
		t.Fatal("impossible growth admitted")
	}
	for i, h := range c.Path {
		if got := n.nodes[h.Node].Alloc[h.Port].Guaranteed(); got != gBefore[i] {
			t.Fatalf("rejected growth drifted hop %d register: %d -> %d", i, gBefore[i], got)
		}
	}
	if got := n.nodes[c.Dst].Alloc[n.cfg.hostPort()].Guaranteed(); got != gBefore[len(c.Path)] {
		t.Fatalf("rejected growth drifted destination register")
	}
	if c.Spec.Rate != 160*traffic.Mbps {
		t.Fatalf("rejected growth changed the spec: %v", c.Spec.Rate)
	}

	if err := n.ModifyBandwidth(c, 10*traffic.Mbps); err != nil {
		t.Fatalf("shrink: %v", err)
	}
	if err := n.CheckInvariants(); err != nil {
		t.Fatalf("after shrink: %v", err)
	}

	// Class and state guards.
	vbr, err := n.Open(1, 7, traffic.ConnSpec{Class: flit.ClassVBR, Rate: 10 * traffic.Mbps, PeakRate: 20 * traffic.Mbps})
	if err != nil {
		t.Fatal(err)
	}
	if err := n.ModifyBandwidth(vbr, 20*traffic.Mbps); err == nil || !strings.Contains(err.Error(), "CBR") {
		t.Errorf("VBR modify: got %v, want CBR-only error", err)
	}
	if err := n.DrainAndClose(c, 10000); err != nil {
		t.Fatal(err)
	}
	if err := n.ModifyBandwidth(c, 20*traffic.Mbps); err == nil {
		t.Error("modify on a closed connection succeeded")
	}
}
