package exp

import (
	"reflect"
	"testing"
)

// TestNetworkPointGatingEquivalence: a netsweep load point produces a
// byte-identical statistics snapshot with activity gating on (the
// default) and off (NoIdleSkip, the cmd/mmrnet -no-idle-skip escape
// hatch). reflect.DeepEqual over *network.Stats
// compares every accumulator's floating-point state exactly, so a single
// elided or replayed cycle anywhere in the simulation fails the test.
func TestNetworkPointGatingEquivalence(t *testing.T) {
	const load = 0.3
	opts := tinyOpts()

	ref := opts
	ref.NoIdleSkip = true
	refStats, err := runNetworkPoint(load, ref)
	if err != nil {
		t.Fatal(err)
	}
	if refStats.FlitsDelivered == 0 {
		t.Fatalf("degenerate reference point: %+v", refStats)
	}
	st, err := runNetworkPoint(load, opts)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(refStats, st) {
		t.Errorf("gated run diverged from ungated:\nungated: %+v\ngated:   %+v", refStats, st)
	}
}

// TestRunPointGatingEquivalence: the single-router experiment harness is
// likewise bit-identical with gating on and off — the goldened figures
// cannot depend on idle-cycle elision.
func TestRunPointGatingEquivalence(t *testing.T) {
	opts := tinyOpts()
	v := SchemeVariant("biased", 4)

	ref := opts
	ref.NoIdleSkip = true
	refPt, err := RunPoint(paperBase(), 0.2, v, ref)
	if err != nil {
		t.Fatal(err)
	}
	pt, err := RunPoint(paperBase(), 0.2, v, opts)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(refPt.M, pt.M) {
		t.Fatalf("gated RunPoint diverged from ungated:\nungated: %+v\ngated:   %+v", refPt.M, pt.M)
	}
}
