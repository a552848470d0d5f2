package network

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"

	"mmr/internal/checkpoint"
	"mmr/internal/metrics"
	"mmr/internal/routing"
)

// checkpoint.go serializes the complete mutable state of a Network and
// restores it into a freshly built one, bit-exactly: a restored fabric
// stepped to cycle M produces the same statistics, metrics, session log
// and flight-recorder contents as the uninterrupted run, in either gating
// mode (the config hash deliberately excludes it).
//
// This file holds what is one-sided — when a fabric can be written, the
// canonical form it is put in first, what a restore rebuilds rather than
// reads — plus the file envelope and the configuration hash. The payload,
// every field of it in either direction, is Network.state (state.go).

// EncodeState serializes the network's full mutable state. It must be
// called between cycles (never from inside an event or phase) and
// refuses to run while state that cannot round-trip is in flight: a
// pending event that is not in the durable journal (anything scheduled
// via Network.Schedule directly).
func (n *Network) EncodeState() ([]byte, error) {
	if p := n.events.Pending(); p != len(n.durables) {
		return nil, fmt.Errorf("network: cannot checkpoint: %d pending events but only %d in the durable journal (events scheduled via Schedule hold closures a checkpoint cannot serialize)", p, len(n.durables))
	}
	for _, nd := range n.nodes {
		if len(nd.dropCredits) != 0 {
			return nil, fmt.Errorf("network: cannot checkpoint mid-cycle: node %d has staged drop credits", nd.id)
		}
	}
	if err := n.quiesce(); err != nil {
		return nil, err
	}

	// A fabric's payload is about as long as its last one, so a repeat
	// checkpoint is one allocation; the first fills the encoder's chunks.
	e := checkpoint.NewEncoder()
	e.Grow(n.lastPayload + n.lastPayload/16)
	c := &codec{Codec: checkpoint.Writing(e), n: n, // lists sized for the largest router: no walk grows them
		vcs:    make([]int, 0, n.cfg.VCs),
		mapped: make([][2]routing.VCRef, 0, n.cfg.radix()*n.cfg.VCs),
		events: make([]metrics.Event, 0, flightRingSize)}
	if err := n.state(c); err != nil {
		return nil, err
	}
	n.lastPayload = e.Len()
	return e.Bytes(), nil
}

// RestoreState deserializes a payload produced by EncodeState into n,
// which must be freshly built by New with an equivalent configuration
// (same geometry, seed and policies; gating is free).
// Do not call ApplyPlan or schedule anything before restoring — the
// checkpoint carries the fault schedule and every pending event. After
// a successful restore the global resource invariants are audited.
// The payload must be of the current format version.
func (n *Network) RestoreState(payload []byte) error {
	if n.now != 0 || len(n.conns) != 0 || len(n.beFlows) != 0 ||
		n.events.Pending() != 0 || len(n.sessionLog) != 0 || len(n.faultSchedule) != 0 {
		return fmt.Errorf("network: restore target must be a freshly built network")
	}
	d := checkpoint.NewDecoder(payload)
	if err := n.state(&codec{Codec: checkpoint.Reading(d), n: n}); err != nil {
		return err
	}
	if r := d.Remaining(); r != 0 {
		return fmt.Errorf("network: checkpoint has %d trailing bytes", r)
	}

	// Routing is a function of the link state just restored.
	n.dists.Recompute(n.cfg.Topology)
	n.ud.Rebuild()

	// Derived state, recomputed from the restored connections in ID order
	// so it can never drift from the sessions it describes. Admission
	// usage: guaranteed bandwidth is charged while a session holds (or is
	// awaiting restoration of) a guaranteed path; a degraded session holds
	// only its session slot.
	for _, c := range n.conns {
		if c.Degraded && !c.closed {
			n.degradedLive++
		}
		if c.closed || c.lost {
			continue
		}
		g := 0
		if c.open || c.broken {
			g = n.demandFor(c.Spec).Alloc
		}
		n.tenants.RestoreSession(c.Tenant, g)
	}

	if err := n.CheckInvariants(); err != nil {
		return fmt.Errorf("network: restored state fails the resource audit: %w", err)
	}
	return nil
}

// quiesce applies every lazy catch-up the gated datapath has deferred —
// round-boundary resets for idle routers, source ticks across elided
// cycles — so the encoded state is canonical: a gated and an ungated
// run of the same fabric checkpoint to identical bytes. Each catch-up
// is exactly what the node would perform on its next active cycle, so
// quiescing is unobservable to the continuing simulation. The forecast
// contract guarantees elided cycles carry no emissions and no RNG
// draws; a tick that produces flits here indicates a forecast bug and
// aborts the checkpoint.
func (n *Network) quiesce() error {
	if n.now == 0 {
		return nil
	}
	t := n.now - 1
	for _, nd := range n.nodes {
		nd.BeginCycle(t)
	}
	for _, c := range n.conns {
		if c.injecting() && c.ni.Replay(t) != 0 {
			return fmt.Errorf("network: connection %d was due flits during cycles elided through %d", c.ID, t)
		}
	}
	for _, bf := range n.beFlows {
		if bf.ni.Replay(t) != 0 {
			return fmt.Errorf("network: best-effort flow %d was due packets during cycles elided through %d", bf.id, t)
		}
	}
	return nil
}

// SaveCheckpoint atomically writes the fabric state to path, sealed in
// the versioned, checksummed checkpoint envelope under this network's
// configuration hash.
func (n *Network) SaveCheckpoint(path string) error {
	payload, err := n.EncodeState()
	if err != nil {
		return err
	}
	return checkpoint.WriteFile(path, n.ConfigHash(), payload)
}

// RestoreCheckpoint builds a fresh network for cfg and restores the
// checkpoint at path into it. cfg must describe the same fabric the
// checkpoint was taken from (enforced via the envelope's config hash);
// NoIdleSkip is free to differ — restores are bit-exact across it.
func RestoreCheckpoint(cfg Config, path string) (*Network, error) {
	n, err := New(cfg)
	if err != nil {
		return nil, err
	}
	payload, _, err := checkpoint.ReadFile(path, n.ConfigHash()) // Open refuses any other version
	if err != nil {
		return nil, err
	}
	if err := n.RestoreState(payload); err != nil {
		return nil, err
	}
	return n, nil
}

// RestoreStateVersion is RestoreState for a payload whose envelope
// reported format version ver: only the current version decodes.
func (n *Network) RestoreStateVersion(payload []byte, ver uint32) error {
	if ver != checkpoint.Version {
		return fmt.Errorf("network: cannot restore format version %d (this build decodes only version %d)", ver, checkpoint.Version)
	}
	return n.RestoreState(payload)
}

// ConfigHash returns the FNV-1a hash of everything about the
// configuration that determines simulation behaviour: topology wiring,
// link geometry, buffering, scheduling scheme and policies, and the
// seed. NoIdleSkip is deliberately excluded — it selects an execution
// strategy, not a simulation, and checkpoints restore bit-exactly across
// it.
func (n *Network) ConfigHash() uint64 {
	cfg, tp, f := &n.cfg, n.cfg.Topology, &n.cfg.Fault
	words := []uint64{uint64(tp.Nodes), uint64(tp.Ports), uint64(len(tp.Links))}
	for _, l := range tp.Links {
		words = append(words, uint64(l.A), uint64(l.APort), uint64(l.B), uint64(l.BPort))
	}
	words = append(words, math.Float64bits(float64(cfg.Link.Bandwidth)), uint64(cfg.Link.FlitBits), uint64(cfg.Link.PhitBits),
		uint64(cfg.VCs), uint64(cfg.Depth), uint64(cfg.K), uint64(cfg.MaxCandidates), uint64(cfg.ArbiterIters),
		uint64(cfg.LinkDelay), uint64(cfg.HopLatency), math.Float64bits(cfg.Concurrency), cfg.Seed,
		uint64(cfg.Route), uint64(f.MaxRetries), uint64(f.RetryBackoff))
	b := make([]byte, 0, 8*len(words))
	for _, w := range words {
		b = binary.LittleEndian.AppendUint64(b, w)
	}
	h := fnv.New64a()
	h.Write(b)
	fmt.Fprintf(h, "%T restore=%t degrade=%t paranoid=%t promote=%t", cfg.Scheme, f.Restore, f.Degrade, f.Paranoid, f.Promote)
	return h.Sum64()
}

// QuiesceProbes steps the fabric until every pending event sits in the
// durable journal, bounded by limit cycles — the preamble a live
// checkpoint needs while closures scheduled through Schedule are pending.
// (The name predates the synchronous establishment model: no probe is
// ever in flight between calls.)
func (n *Network) QuiesceProbes(limit int64) error {
	deadline := n.now + limit
	for n.events.Pending() != len(n.durables) {
		if n.now >= deadline {
			return fmt.Errorf("network: %d non-durable events still pending after %d quiesce cycles",
				n.events.Pending()-len(n.durables), limit)
		}
		n.Step()
	}
	return nil
}
