package network

import (
	"fmt"
	"math"

	"mmr/internal/checkpoint"
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

	// One allocation, not a doubling series from empty: a fabric's payload
	// is about as long as its last one, and on the first call at least a
	// byte per virtual channel.
	e := checkpoint.NewEncoder()
	if n.lastPayload == 0 {
		n.lastPayload = len(n.nodes) * n.cfg.radix() * n.cfg.VCs
	}
	e.Grow(n.lastPayload + n.lastPayload/16)
	if err := n.state(&codec{Codec: checkpoint.Writing(e), n: n}); err != nil {
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
	// so it can never drift from the sessions it describes. Telemetry
	// tenant slots: assignTrackerSlot derived them as each connection was
	// decoded, but the payload's trailer had yet to name its owner.
	// Admission usage: guaranteed bandwidth is charged while a session
	// holds (or is awaiting restoration of) a guaranteed path; a degraded
	// session holds only its session slot.
	n.degradedLive = 0
	n.tenants.ResetUsage()
	for _, c := range n.conns {
		c.tenantSlot = n.tenantSlotFor(c.Tenant)
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
	payload, ver, err := checkpoint.ReadFile(path, n.ConfigHash())
	if err != nil {
		return nil, err
	}
	if err := n.RestoreStateVersion(payload, ver); err != nil {
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
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	mix := func(v uint64) {
		for i := 0; i < 8; i++ {
			h ^= v & 0xff
			h *= prime64
			v >>= 8
		}
	}
	mixStr := func(s string) {
		mix(uint64(len(s)))
		for i := 0; i < len(s); i++ {
			h ^= uint64(s[i])
			h *= prime64
		}
	}
	cfg := &n.cfg
	tp := cfg.Topology
	mix(uint64(tp.Nodes))
	mix(uint64(tp.Ports))
	mix(uint64(len(tp.Links)))
	for _, l := range tp.Links {
		mix(uint64(l.A))
		mix(uint64(l.APort))
		mix(uint64(l.B))
		mix(uint64(l.BPort))
	}
	mix(math.Float64bits(float64(cfg.Link.Bandwidth)))
	mix(uint64(cfg.Link.FlitBits))
	mix(uint64(cfg.Link.PhitBits))
	mix(uint64(cfg.VCs))
	mix(uint64(cfg.Depth))
	mix(uint64(cfg.K))
	mix(uint64(cfg.MaxCandidates))
	mixStr(fmt.Sprintf("%T", cfg.Scheme))
	mix(uint64(cfg.ArbiterIters))
	mix(uint64(cfg.LinkDelay))
	mix(uint64(cfg.HopLatency))
	mix(math.Float64bits(cfg.Concurrency))
	mixBool := func(b bool) {
		if b {
			mix(1)
		} else {
			mix(0)
		}
	}
	mix(1) // per-round allocation enforcement, a knob until format v4 was frozen; always on
	mix(cfg.Seed)
	mixBool(cfg.Fault.Restore)
	mix(uint64(cfg.Fault.MaxRetries))
	mix(uint64(cfg.Fault.RetryBackoff))
	mixBool(cfg.Fault.Degrade)
	mixBool(cfg.Fault.Paranoid)
	// Route changes establishment decisions, so it is part of the
	// simulated configuration. Mixed only when non-minimal: every
	// checkpoint written before the mode existed hashes as RouteMinimal.
	if cfg.Route != routing.RouteMinimal {
		mixStr("route")
		mix(uint64(cfg.Route))
	}
	// Promote changes which establishments run, so it is simulated
	// configuration too. Mixed only when disabled: it defaults on, and
	// every checkpoint written before the knob existed hashes as enabled.
	if !cfg.Fault.Promote {
		mixStr("nopromote")
	}
	return h
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
