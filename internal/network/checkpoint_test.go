package network

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"path/filepath"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"testing"

	"mmr/internal/checkpoint"
	"mmr/internal/flit"
	"mmr/internal/metrics"
	"mmr/internal/sim"
	"mmr/internal/topology"
	"mmr/internal/traffic"
)

// detConfig rebuilds the detScenario configuration on a fresh topology
// (topologies carry mutable link state, so restored networks need their
// own) with the given gating mode.
func detConfig(t testing.TB, noIdleSkip bool) Config {
	t.Helper()
	tp, err := topology.Mesh(4, 4, 4)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig(tp)
	cfg.Seed = 11
	cfg.NoIdleSkip = noIdleSkip
	cfg.Fault = FaultPolicy{Restore: true, MaxRetries: 4, RetryBackoff: 32, Degrade: true, Paranoid: true}
	return cfg
}

// TestCheckpointRoundTripBitExact is the tentpole's core proof: snapshot
// the loaded fault-plan scenario mid-run at cycle 1200 (links down,
// routers down, restorations and fault-plan events pending, flits in
// flight), restore the payload into freshly built fabrics with gating
// both on and off, run everything to cycle
// 3000, and require the restored runs to be indistinguishable from the
// uninterrupted one: identical statistics (floating-point accumulator
// state compared exactly), identical session logs, and — the strongest
// form — byte-identical re-checkpoints at both the snapshot point and
// the end state.
func TestCheckpointRoundTripBitExact(t *testing.T) {
	ref := buildDetNetwork(t, true)
	ref.Run(1200)
	snap, err := ref.EncodeState()
	if err != nil {
		t.Fatalf("EncodeState at cycle 1200: %v", err)
	}
	ref.Run(3000)
	refFinal, err := ref.EncodeState()
	if err != nil {
		t.Fatalf("EncodeState at cycle 3000: %v", err)
	}
	refStats, refEvents := ref.Stats(), ref.SessionEvents()
	if refStats.ConnsBroken == 0 || refStats.FlitsDelivered == 0 {
		t.Fatalf("degenerate scenario: %+v", refStats)
	}

	for _, noIdleSkip := range []bool{false, true} {
		n, err := New(detConfig(t, noIdleSkip))
		if err != nil {
			t.Fatal(err)
		}
		if err := n.RestoreState(snap); err != nil {
			t.Fatalf("gated=%v: restore: %v", !noIdleSkip, err)
		}
		if n.Now() != 1200 {
			t.Fatalf("restored clock %d, want 1200", n.Now())
		}
		resnap, err := n.EncodeState()
		if err != nil {
			t.Fatalf("gated=%v: re-encode: %v", !noIdleSkip, err)
		}
		if !bytes.Equal(snap, resnap) {
			t.Errorf("gated=%v: restored state re-encodes differently (%d vs %d bytes)", !noIdleSkip, len(snap), len(resnap))
		}
		n.Run(3000)
		st, ev := n.Stats(), n.SessionEvents()
		if !reflect.DeepEqual(refStats, st) {
			t.Errorf("gated=%v: stats diverged after restore:\nref:      %+v\nrestored: %+v", !noIdleSkip, refStats, st)
		}
		if !reflect.DeepEqual(refEvents, ev) {
			t.Errorf("gated=%v: session log diverged (%d vs %d events)", !noIdleSkip, len(refEvents), len(ev))
		}
		final, err := n.EncodeState()
		if err != nil {
			t.Fatalf("gated=%v: final encode: %v", !noIdleSkip, err)
		}
		if !bytes.Equal(refFinal, final) {
			t.Errorf("gated=%v: end state not byte-identical to uninterrupted run (%d vs %d bytes)", !noIdleSkip, len(refFinal), len(final))
		}
	}
}

// TestCheckpointResumeMatchesTwin pins what a checkpoint must preserve,
// read from the outside: the detScenario fabric, clean and under its fault
// plan, is checkpointed at cycle 1200 and restored into fresh fabrics gated
// and NoIdleSkip; each then runs 5,000 cycles beside a twin of its engine
// that was never checkpointed. Statistics, the session log, the end state's
// bytes and the metric snapshot in both renderings must be the twin's. The
// per-tenant delivery families are left out of the snapshot: tenantstats.go
// keeps them outside EncodeState, so a restored fabric counts them from
// zero.
func TestCheckpointResumeMatchesTwin(t *testing.T) {
	const at, after = 1200, 5000
	render := func(n *Network) (prom, js string) {
		var p, j bytes.Buffer
		snap := n.GatherMetrics()
		tenant := func(name string) bool { return strings.HasPrefix(name, "mmr_net_tenant_") }
		snap.Counters = slices.DeleteFunc(snap.Counters, func(s metrics.CounterSnap) bool { return tenant(s.Name) })
		snap.Histograms = slices.DeleteFunc(snap.Histograms, func(s metrics.HistSnap) bool { return tenant(s.Name) })
		if err := snap.WritePrometheus(&p); err != nil {
			t.Fatal(err)
		}
		if err := snap.WriteJSON(&j); err != nil {
			t.Fatal(err)
		}
		return p.String(), j.String()
	}
	for _, withFaults := range []bool{false, true} {
		src := buildDetNetwork(t, withFaults)
		src.Run(at)
		snap, err := src.EncodeState()
		if err != nil {
			t.Fatal(err)
		}
		for _, noIdleSkip := range []bool{false, true} {
			name := fmt.Sprintf("faults=%v/noIdleSkip=%v", withFaults, noIdleSkip)
			twin := buildDetNetwork(t, withFaults)
			twin.cfg.NoIdleSkip = noIdleSkip
			twin.Run(at + after)

			n, err := New(detConfig(t, noIdleSkip))
			if err != nil {
				t.Fatal(err)
			}
			if err := n.RestoreState(snap); err != nil {
				t.Fatalf("%s: restore: %v", name, err)
			}
			n.Run(after)

			if !reflect.DeepEqual(twin.Stats(), n.Stats()) {
				t.Errorf("%s: stats differ from the twin's:\ntwin:     %+v\nrestored: %+v", name, twin.Stats(), n.Stats())
			}
			if !reflect.DeepEqual(twin.SessionEvents(), n.SessionEvents()) {
				t.Errorf("%s: session log differs from the twin's (%d vs %d events)", name, len(twin.SessionEvents()), len(n.SessionEvents()))
			}
			wantProm, wantJSON := render(twin)
			gotProm, gotJSON := render(n)
			if gotProm != wantProm {
				t.Errorf("%s: Prometheus snapshot differs from the twin's", name)
			}
			if gotJSON != wantJSON {
				t.Errorf("%s: JSON snapshot differs from the twin's", name)
			}
			want, err := twin.EncodeState()
			if err != nil {
				t.Fatal(err)
			}
			got, err := n.EncodeState()
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(want, got) {
				t.Errorf("%s: end state differs from the twin's (%d vs %d bytes)", name, len(got), len(want))
			}
		}
	}
}

// TestCheckpointFileRoundTrip exercises the on-disk path: SaveCheckpoint
// writes the sealed envelope, RestoreCheckpoint rebuilds an equivalent
// fabric from it, and a configuration mismatch (different seed) is
// refused at the envelope hash before any state is touched.
func TestCheckpointFileRoundTrip(t *testing.T) {
	ref := buildDetNetwork(t, true)
	ref.Run(1000)
	path := filepath.Join(t.TempDir(), "fabric.ckpt")
	if err := ref.SaveCheckpoint(path); err != nil {
		t.Fatalf("SaveCheckpoint: %v", err)
	}
	ref.Run(2200)

	n, err := RestoreCheckpoint(detConfig(t, false), path)
	if err != nil {
		t.Fatalf("RestoreCheckpoint: %v", err)
	}
	n.Run(2200)
	if !reflect.DeepEqual(ref.Stats(), n.Stats()) {
		t.Errorf("file round-trip diverged:\nref:      %+v\nrestored: %+v", ref.Stats(), n.Stats())
	}

	badCfg := detConfig(t, false)
	badCfg.Seed = 12
	if _, err := RestoreCheckpoint(badCfg, path); err == nil ||
		!strings.Contains(err.Error(), "different fabric configuration") {
		t.Errorf("restore under a different seed: got %v, want config-hash mismatch", err)
	}
}

// TestEncodeStateRefusesNonDurablePending: user closures scheduled via
// Network.Schedule cannot be serialized, so a checkpoint with one
// pending must be refused rather than silently dropping it.
func TestEncodeStateRefusesNonDurablePending(t *testing.T) {
	tp, _ := topology.Mesh(3, 3, 4)
	cfg := DefaultConfig(tp)
	n, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	n.Run(10)
	n.Schedule(100, func() {})
	if _, err := n.EncodeState(); err == nil || !strings.Contains(err.Error(), "durable journal") {
		t.Errorf("EncodeState with a user closure pending: got %v, want durable-journal refusal", err)
	}
}

// TestQuiesceProbes asserts a fabric carrying streams with non-durable
// closures pending refuses to checkpoint, quiesces in bounded time — short
// of the last closure it errs, past it every closure has fired — and then
// checkpoints cleanly, the daemon's snapshot-during-traffic path. The
// streams' own events are durable and must not hold quiesce back.
func TestQuiesceProbes(t *testing.T) {
	tp, err := topology.Mesh(4, 4, 4)
	if err != nil {
		t.Fatal(err)
	}
	n, err := New(DefaultConfig(tp))
	if err != nil {
		t.Fatal(err)
	}
	spec := traffic.ConnSpec{Class: flit.ClassCBR, Rate: 8 * traffic.Mbps}
	for i := 0; i < 6; i++ {
		if _, err := n.Open(i, 15-i, spec); err != nil {
			t.Fatal(err)
		}
	}
	fired := 0
	for i := int64(1); i <= 4; i++ {
		n.Schedule(25*i, func() { fired++ })
	}
	if _, err := n.EncodeState(); err == nil {
		t.Fatal("EncodeState must refuse while closures are pending")
	}
	if err := n.QuiesceProbes(50); err == nil || fired == 4 {
		t.Errorf("QuiesceProbes short of the last closure: got %v (fired %d), want an error", err, fired)
	}
	if err := n.QuiesceProbes(100_000); err != nil || fired != 4 {
		t.Fatalf("QuiesceProbes past every closure: got %v (fired %d of 4)", err, fired)
	}
	if len(n.Conns()) != 6 {
		t.Fatalf("quiesce must not disturb the open streams: %d of 6 remain", len(n.Conns()))
	}
	if _, err := n.EncodeState(); err != nil {
		t.Fatalf("EncodeState after quiesce: %v", err)
	}
}

// TestRestoreStateRequiresFreshNetwork: restoring over a fabric that has
// already run or holds connections must be refused — restore composes
// with New, never with live state.
func TestRestoreStateRequiresFreshNetwork(t *testing.T) {
	ref := buildDetNetwork(t, false)
	ref.Run(50)
	snap, err := ref.EncodeState()
	if err != nil {
		t.Fatal(err)
	}

	tp, _ := topology.Mesh(4, 4, 4)
	cfg := DefaultConfig(tp)
	cfg.Seed = 11
	used, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := used.Open(0, 5, traffic.ConnSpec{Class: flit.ClassCBR, Rate: 20 * traffic.Mbps}); err != nil {
		t.Fatal(err)
	}
	if err := used.RestoreState(snap); err == nil || !strings.Contains(err.Error(), "freshly built") {
		t.Errorf("restore into a used network: got %v, want freshly-built refusal", err)
	}
}

// goldenPayload opens one of the two format-6 checkpoints under
// testdata. They were written by the change that introduced format 6, from
// a throwaway test in that tree:
//
//	n := buildDetNetwork(t, withFaults) // v6-clean.ckpt: false, v6-faults.ckpt: true
//	n.Run(1200)
//	n.SaveCheckpoint("testdata/v6-....ckpt")
//
// so they pin the wire format and the configuration hash to what that
// code produced, not to what later code believes it produced. Regenerate
// them the same way only when checkpoint.Version is bumped, and keep the
// newest file of the old format as the one a build must refuse
// (TestCheckpointRefusesPreviousVersion).
func goldenPayload(t testing.TB, name string) []byte {
	t.Helper()
	n, err := New(detConfig(t, false))
	if err != nil {
		t.Fatal(err)
	}
	payload, ver, err := checkpoint.ReadFile(filepath.Join("testdata", name), n.ConfigHash())
	if err != nil {
		t.Fatal(err)
	}
	if ver != checkpoint.Version {
		t.Fatalf("%s is format version %d, this build writes %d", name, ver, checkpoint.Version)
	}
	return payload
}

// TestCheckpointGoldens: the format is the one the goldens were written
// in. Each restores, re-encodes to the same bytes, and — run 500 cycles on
// — ends in the state the uninterrupted run reaches.
func TestCheckpointGoldens(t *testing.T) {
	for _, g := range []struct {
		name       string
		withFaults bool
	}{{"v6-clean.ckpt", false}, {"v6-faults.ckpt", true}} {
		t.Run(g.name, func(t *testing.T) {
			payload := goldenPayload(t, g.name)
			n, err := New(detConfig(t, false))
			if err != nil {
				t.Fatal(err)
			}
			if err := n.RestoreState(payload); err != nil {
				t.Fatalf("restore: %v", err)
			}
			again, err := n.EncodeState()
			if err != nil {
				t.Fatalf("re-encode: %v", err)
			}
			if !bytes.Equal(payload, again) {
				t.Fatalf("restored state re-encodes differently (%d vs %d bytes)", len(payload), len(again))
			}
			n.Run(500)
			final, err := n.EncodeState()
			if err != nil {
				t.Fatal(err)
			}

			ref := buildDetNetwork(t, g.withFaults)
			ref.Run(1700)
			want, err := ref.EncodeState()
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(want, final) {
				t.Errorf("500 cycles after the restore the state differs from the uninterrupted run's (%d vs %d bytes)", len(final), len(want))
			}
		})
	}
}

// TestRestoreStateMutatedWords feeds RestoreState payloads the envelope
// would never let through — the faulted golden with one 8-byte word
// overwritten at each of 400 random offsets, its truncations, and a
// trailing byte — and holds it to the hostile-input contract: an error
// or a fabric that passes CheckInvariants, never a panic; and a fabric it
// accepted then steps 200 cycles without indexing outside a table (the
// simulator's own consistency assertions may still fire: a word that is
// in range but wrong is the envelope CRC's to catch, not the decoder's).
func TestRestoreStateMutatedWords(t *testing.T) {
	golden := goldenPayload(t, "v6-faults.ckpt")
	type input struct {
		name    string
		payload []byte
		wantErr string // non-empty: the restore must fail mentioning it
	}
	inputs := []input{
		{"trailing byte", append(append([]byte(nil), golden...), 0xFF), "trailing"},
	}
	for _, cut := range []int{0, 8, len(golden) / 3, len(golden) - 1} {
		inputs = append(inputs, input{fmt.Sprintf("first %d bytes", cut), golden[:cut], "truncated"})
	}
	// Values that are hostile as an index, a count, a clock, a flag or a
	// float's bit pattern.
	words := []uint64{0x7fffffff, ^uint64(0), 1 << 62, 0, 1 << 63, 65}
	rng := sim.NewRNG(1)
	for i := 0; i < 400; i++ {
		off, word := rng.Intn(len(golden)-8), words[rng.Intn(len(words))]
		mut := append([]byte(nil), golden...)
		binary.LittleEndian.PutUint64(mut[off:], word)
		inputs = append(inputs, input{name: fmt.Sprintf("word %#x at offset %d", word, off), payload: mut})
	}

	accepted, asserted := 0, 0
	for _, in := range inputs {
		n, err := New(detConfig(t, false))
		if err != nil {
			t.Fatal(err)
		}
		var restoreErr error
		if p := panicOf(func() { restoreErr = n.RestoreState(in.payload) }); p != nil {
			t.Errorf("%s: RestoreState panicked: %v", in.name, p)
			continue
		}
		if in.wantErr != "" && (restoreErr == nil || !strings.Contains(restoreErr.Error(), in.wantErr)) {
			t.Errorf("%s: restore returned %v, want an error mentioning %q", in.name, restoreErr, in.wantErr)
		}
		if restoreErr != nil {
			continue
		}
		accepted++
		if err := n.CheckInvariants(); err != nil {
			t.Errorf("%s: accepted, but %v", in.name, err)
		}
		switch p := panicOf(func() { n.Run(200) }).(type) {
		case nil:
		case runtime.Error:
			t.Errorf("%s: accepted, then stepping it: %v", in.name, p)
		default:
			if msg := fmt.Sprint(p); strings.Contains(msg, "bitvec") || strings.Contains(msg, "VC reference") {
				t.Errorf("%s: accepted, then stepping it: %v", in.name, p)
			}
			asserted++
		}
	}
	t.Logf("%d inputs: %d accepted, of which %d tripped a simulator assertion within 200 cycles", len(inputs), accepted, asserted)
}

// TestRestoreFlitOnPortWithoutVC: a payload that buffers a flit on a port
// where it reserves no VC — so the port has no records when the decode
// reaches the flit — is refused by the post-restore audit, not by a panic.
func TestRestoreFlitOnPortWithoutVC(t *testing.T) {
	src, err := New(detConfig(t, false))
	if err != nil {
		t.Fatal(err)
	}
	mem := src.nodes[5].Mems[2]
	mem.Materialize() // what the decode will have to do
	mem.Push(3, &flit.Flit{Conn: flit.InvalidConn, Class: flit.ClassBestEffort, Dst: 5})
	payload, err := src.EncodeState()
	if err != nil {
		t.Fatal(err)
	}
	n, err := New(detConfig(t, false))
	if err != nil {
		t.Fatal(err)
	}
	if p := panicOf(func() { err = n.RestoreState(payload) }); p != nil {
		t.Fatalf("RestoreState panicked: %v", p)
	}
	if want := "node 5 port 2 VC 3 free but holds 1 flits"; err == nil || !strings.Contains(err.Error(), want) {
		t.Fatalf("restore returned %v, want the audit's %q", err, want)
	}
}

// panicOf runs fn and returns what it panicked with, nil if it returned.
func panicOf(fn func()) (p any) {
	defer func() { p = recover() }()
	fn()
	return nil
}

// FuzzCheckpointDecode: whatever bytes reach RestoreState, it returns;
// and a payload it accepts left a fabric that passes the resource audit
// and can be written out again.
func FuzzCheckpointDecode(f *testing.F) {
	f.Add(goldenPayload(f, "v6-clean.ckpt"))
	f.Add(goldenPayload(f, "v6-faults.ckpt"))
	f.Fuzz(func(t *testing.T, payload []byte) {
		n, err := New(detConfig(t, false))
		if err != nil {
			t.Fatal(err)
		}
		if n.RestoreState(payload) != nil {
			return
		}
		if err := n.CheckInvariants(); err != nil {
			t.Fatalf("accepted a payload that fails the audit: %v", err)
		}
		if _, err := n.EncodeState(); err != nil {
			t.Fatalf("accepted a payload it cannot write back: %v", err)
		}
	})
}

// TestCheckpointUntickedSources: a checkpoint taken between a session's
// establishment and its source's first tick restores (a VBR source then
// still holds the frame time it was built with, cycle 0, however late the
// clock) and continues bit-exactly.
func TestCheckpointUntickedSources(t *testing.T) {
	ref := buildDetNetwork(t, false)
	ref.Run(5000)
	opened := 0
	for src := 0; src < 16 && opened < 3; src++ {
		spec := traffic.ConnSpec{Class: flit.ClassVBR, Rate: traffic.PaperRates[0], PeakRate: 2 * traffic.PaperRates[0]}
		if _, err := ref.Open(src, 15-src, spec); err == nil {
			opened++
		}
	}
	if _, err := ref.AddBestEffortFlow(3, 12, 0.01); err != nil || opened == 0 {
		t.Fatalf("opened %d VBR sessions, flow: %v", opened, err)
	}
	snap, err := ref.EncodeState()
	if err != nil {
		t.Fatal(err)
	}
	n, err := New(detConfig(t, false))
	if err != nil {
		t.Fatal(err)
	}
	if err := n.RestoreState(snap); err != nil {
		t.Fatalf("restore: %v", err)
	}
	ref.Run(800)
	n.Run(800)
	want, _ := ref.EncodeState()
	got, _ := n.EncodeState()
	if !bytes.Equal(want, got) {
		t.Errorf("800 cycles after the restore the state differs from the uninterrupted run's (%d vs %d bytes)", len(got), len(want))
	}
}
