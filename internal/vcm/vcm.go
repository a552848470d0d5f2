// Package vcm implements the MMR's Virtual Channel Memory (§3.2): per-link
// buffering organized as a large set of virtual channels. Instead of one
// queue + mux per virtual channel (which the paper rejects for delay and
// area), the VCM is a single memory with per-VC FIFO regions plus status
// bit vectors that the link scheduler reads. The paper stores it in
// low-order-interleaved RAM modules fronted by small phit buffers; the
// functional model moves whole flits, so neither is modelled here, and
// BankModel answers the banks' timing question analytically (the A8
// ablation).
package vcm

import (
	"fmt"

	"mmr/internal/bitvec"
	"mmr/internal/flit"
	"mmr/internal/sim"
)

// Config sizes one input link's VCM.
type Config struct {
	VirtualChannels int // V: VCs per physical input link (256 in §5)
	Depth           int // flits of buffering per VC (small, fixed — §1)
}

// PaperConfig returns the §5 arrangement: 256 VCs with small fixed per-VC
// buffers.
func PaperConfig() Config {
	return Config{VirtualChannels: 256, Depth: 4}
}

func (c Config) validate() error {
	if c.VirtualChannels < 1 {
		return fmt.Errorf("vcm: need at least one virtual channel, got %d", c.VirtualChannels)
	}
	if c.Depth < 1 || c.Depth > maxDepth {
		return fmt.Errorf("vcm: per-VC depth must be in [1, %d], got %d", maxDepth, c.Depth)
	}
	return nil
}

// maxDepth is the deepest per-VC buffer a record's one-byte ring position
// can address. The MMR's buffers are a few flits (§1).
const maxDepth = 255

// VCState is the one record the VCM keeps per virtual channel — the paper
// stores a channel's scheduling state beside its buffer (§3.2, §4.3), and so
// does this: connection identity, class, bandwidth allocation in flit
// cycles/round and what has been serviced this round, the priority, the
// switch output, and the position of the channel's ring in the flit store
// with the head flit's arrival stamp. Everything the link scheduler, Push,
// Pop and Free read or write for one channel is here, and the record is one
// cache line (TestVCRecordLayout), so visiting a channel costs one line and
// never the flit itself.
type VCState struct {
	// Allocated is the reserved flit cycles per round (CBR allocation, or
	// VBR permanent bandwidth). Peak is the VBR peak allocation.
	Allocated int
	Peak      int

	// BasePriority is the static VBR priority (dynamically modifiable via
	// control words, §4.3).
	BasePriority int

	// InterArrival caches the connection's flit inter-arrival time in
	// cycles; the biased scheduler grows priority at a rate proportional
	// to delay/InterArrival (§5.1).
	InterArrival float64

	// Output is the switch output port this VC is mapped to (the direct
	// channel mapping, §3.5). -1 when unmapped; a free VC's record is the
	// zero record, and nothing reads a free VC's output. A buffered
	// best-effort packet's output changes through Memory.SetOutput only: the
	// memory keeps the unrouted ones in a status vector.
	Output int

	// headReadyAt mirrors the head flit's ReadyAt while the VC buffers one
	// (written by Push into an empty VC and by Pop).
	headReadyAt int64

	Conn flit.ConnID

	// serviced counts the flit cycles consumed in round servicedRound of
	// the memory (§4.1); in any other round the VC has consumed none.
	serviced      int32
	servicedRound uint32

	Class flit.Class

	// InUse marks the VC as reserved by a connection or an in-flight
	// packet.
	InUse bool

	// The VC's FIFO ring over its Depth slots of the flit store.
	qhead, qsize uint8
}

// HeadReadyAt returns the cycle the VC's head flit entered the memory.
// Meaningful only while the VC buffers a flit.
func (st *VCState) HeadReadyAt() int64 { return st.headReadyAt }

// Memory is one input link's virtual channel memory: one VCState record per
// VC, the flit store the records' rings index — VC vc owns
// qbuf[vc*Depth : (vc+1)*Depth) — and the status bit vectors (§4.1), held by
// value so each is one line beside the memory's header. The records and the
// flit store exist from the memory's first Reserve or RestoreState on
// (Materialize); until then every vector is empty.
type Memory struct {
	cfg   Config
	qbuf  []*flit.Flit
	state []VCState
	store *Store // where Materialize carves qbuf and state from

	// round is the current round's stamp: a record's serviced count is live
	// only under it, so a round boundary is one increment (ResetRound).
	round uint32

	// ext, busy and port, when bound, mirror occupied outside the memory:
	// *ext counts the flits buffered across every memory bound to it, and
	// bit port of busy is set while this memory buffers any. The engines bind
	// every memory of a router to one counter and one vector so "anything
	// buffered?" is one load and the ports worth visiting are a word scan.
	// (port shares round's word: the header stays two lines.)
	port int32
	ext  *int64
	busy *bitvec.Vector

	occupied int // total flits buffered across VCs

	_ [3]int64 // pads the header to two whole lines (TestVCRecordLayout)

	// Status bit vectors. flitsAvailable has a set bit for every VC with at
	// least one buffered flit; full for every VC at capacity; reserved for
	// every in-use VC; unrouted for every VC that buffers a best-effort
	// packet with no output yet — the routing unit's worklist.
	flitsAvailable bitvec.Vector
	full           bitvec.Vector
	reserved       bitvec.Vector
	unrouted       bitvec.Vector
}

// New returns an empty VCM with the given configuration, which allocates
// its records and flit store for itself on first use.
func New(cfg Config) (*Memory, error) {
	m := &Memory{}
	if err := Init(m, cfg, nil); err != nil {
		return nil, err
	}
	return m, nil
}

// Init initializes m in place to its header and its four status vectors,
// all empty — which already answer FindFree, PickFree, FreeVCs, Unrouted and
// FlitsAvailable — and no records or flit store: the first Reserve or
// RestoreState carves those from store (nil: an allocation of the memory's
// own), so a port no VC is ever reserved on costs no more. Callers lay
// several Memory values out in one contiguous slice and Init each element,
// so a router's per-port headers and status vectors are adjacent in memory.
// An initialized Memory must not be copied (its vectors hold their bits
// inline).
func Init(m *Memory, cfg Config, store *Store) error {
	if err := cfg.validate(); err != nil {
		return err
	}
	*m = Memory{cfg: cfg, store: store}
	for _, v := range []*bitvec.Vector{&m.flitsAvailable, &m.full, &m.reserved, &m.unrouted} {
		v.Init(cfg.VirtualChannels)
	}
	return nil
}

// Store is the chunk allocator the memories of one owner carve their
// records and flit stores from: it allocates the storage of ports memories
// at a time, so the first reservations across many never-used ports cost
// one allocation pair per chunk, not per port. A chunk's records are
// pointer-free and a multiple of 64 bytes long, so the allocator's size
// classes — and above 32 KB its whole pages — start them on a line
// boundary, and every record carved from it is exactly one line
// (TestVCRecordLayout). A Store is not safe for concurrent use.
type Store struct {
	ports int
	state []VCState    // the current chunk's records not yet carved
	qbuf  []*flit.Flit // and its flit slots
}

// NewStore returns a store that allocates ports memories' storage at a time.
func NewStore(ports int) *Store { return &Store{ports: max(ports, 1)} }

// carve hands out vcs records and slots flit slots of the current chunk,
// starting the next chunk when this one has too few left.
func (s *Store) carve(vcs, slots int) ([]VCState, []*flit.Flit) {
	if len(s.state) < vcs || len(s.qbuf) < slots {
		s.state, s.qbuf = make([]VCState, s.ports*vcs), make([]*flit.Flit, s.ports*slots)
	}
	state, qbuf := s.state[:vcs:vcs], s.qbuf[:slots:slots]
	s.state, s.qbuf = s.state[vcs:], s.qbuf[slots:]
	return state, qbuf
}

// Materialize gives the memory its records and flit store if it has none
// yet. Reserve and RestoreState call it; so must a caller about to Push into
// a memory where nothing is reserved. Every fresh record is the zero record,
// a free VC's.
func (m *Memory) Materialize() {
	if m.state == nil {
		m.materialize()
	}
}

func (m *Memory) materialize() {
	if m.store == nil {
		m.store = NewStore(1)
	}
	m.state, m.qbuf = m.store.carve(m.cfg.VirtualChannels, m.cfg.VirtualChannels*m.cfg.Depth)
}

// Materialized reports whether the memory holds its records and flit store.
func (m *Memory) Materialized() bool { return m.state != nil }

// BindOccupancy points the memory's occupancy mirrors at ext and at bit
// port of busy: every Push/Pop keeps them in step with the internal count.
// Bind before buffering any flits.
func (m *Memory) BindOccupancy(ext *int64, busy *bitvec.Vector, port int) {
	m.ext, m.busy, m.port = ext, busy, int32(port)
	*ext += int64(m.occupied)
	busy.SetTo(port, m.occupied > 0)
}

// MustNew is New for static configurations known to be valid.
func MustNew(cfg Config) *Memory {
	m, err := New(cfg)
	if err != nil {
		panic(err)
	}
	return m
}

// NumVCs returns the number of virtual channels.
func (m *Memory) NumVCs() int { return m.cfg.VirtualChannels }

// State returns the mutable scheduling state of VC vc. Output is the one
// field with a mirror outside the record: write it through SetOutput.
func (m *Memory) State(vc int) *VCState { return &m.state[vc] }

// Len returns the number of flits buffered in VC vc.
func (m *Memory) Len(vc int) int { return int(m.state[vc].qsize) }

// Occupied returns the total flits buffered across all VCs.
func (m *Memory) Occupied() int { return m.occupied }

// Free returns the remaining flit slots in VC vc — the credit count the
// upstream node holds for this VC under link-level flow control.
func (m *Memory) Free(vc int) int { return m.cfg.Depth - int(m.state[vc].qsize) }

// awaitsRoute reports whether st, if it buffers a flit, belongs in the
// unrouted vector.
func (st *VCState) awaitsRoute() bool { return st.Class == flit.ClassBestEffort && st.Output < 0 }

// Push appends a flit to VC vc. It reports false (dropping nothing —
// callers must hold a credit before sending, so a full queue is a flow
// control protocol violation they can surface) when the VC is full.
func (m *Memory) Push(vc int, f *flit.Flit) bool {
	st := &m.state[vc]
	depth := m.cfg.Depth
	if int(st.qsize) == depth {
		return false
	}
	slot := int(st.qhead) + int(st.qsize)
	if slot >= depth {
		slot -= depth
	}
	m.qbuf[vc*depth+slot] = f
	if st.qsize == 0 {
		st.headReadyAt = f.ReadyAt
		m.flitsAvailable.Set(vc)
		if st.awaitsRoute() {
			m.unrouted.Set(vc)
		}
		if m.occupied == 0 && m.busy != nil {
			m.busy.Set(int(m.port))
		}
	}
	st.qsize++
	m.occupied++
	if m.ext != nil {
		*m.ext++
	}
	if int(st.qsize) == depth {
		m.full.Set(vc)
	}
	return true
}

// Peek returns the head flit of VC vc without removing it, or nil.
func (m *Memory) Peek(vc int) *flit.Flit {
	st := &m.state[vc]
	if st.qsize == 0 {
		return nil
	}
	return m.qbuf[vc*m.cfg.Depth+int(st.qhead)]
}

// Pop removes and returns the head flit of VC vc, or nil if empty.
func (m *Memory) Pop(vc int) *flit.Flit {
	st := &m.state[vc]
	if st.qsize == 0 {
		return nil
	}
	depth := m.cfg.Depth
	i := vc*depth + int(st.qhead)
	f := m.qbuf[i]
	m.qbuf[i] = nil
	st.qhead++
	if int(st.qhead) == depth {
		st.qhead = 0
	}
	st.qsize--
	m.occupied--
	if m.ext != nil {
		*m.ext--
	}
	if st.qsize == 0 {
		m.flitsAvailable.Clear(vc)
		if st.awaitsRoute() {
			m.unrouted.Clear(vc)
		}
		if m.occupied == 0 && m.busy != nil {
			m.busy.Clear(int(m.port))
		}
	} else {
		st.headReadyAt = m.qbuf[vc*depth+int(st.qhead)].ReadyAt
	}
	m.full.Clear(vc)
	return f
}

// FlitsAvailable returns the flits_available status vector. Callers must
// treat it as read-only; it stays current as flits move.
func (m *Memory) FlitsAvailable() *bitvec.Vector { return &m.flitsAvailable }

// ReservedVector returns the in-use status vector (read-only).
func (m *Memory) ReservedVector() *bitvec.Vector { return &m.reserved }

// Unrouted returns the status vector of VCs buffering a best-effort packet
// that has no output yet (read-only).
func (m *Memory) Unrouted() *bitvec.Vector { return &m.unrouted }

// SetOutput maps VC vc to switch output out (-1: none).
func (m *Memory) SetOutput(vc, out int) {
	st := &m.state[vc]
	st.Output = out
	m.unrouted.SetTo(vc, st.qsize > 0 && st.awaitsRoute())
}

// keepBuffer copies into st what old holds of its VC's buffer — ring
// position and head stamp — so that st can overwrite old.
func (st *VCState) keepBuffer(old *VCState) {
	st.qhead, st.qsize, st.headReadyAt = old.qhead, old.qsize, old.headReadyAt
}

// Reserve claims VC vc for a connection or packet, recording its class,
// mapping and allocation. It reports false if the VC is already in use.
func (m *Memory) Reserve(vc int, st VCState) bool {
	m.Materialize()
	old := &m.state[vc]
	if old.InUse {
		return false
	}
	st.InUse = true
	st.keepBuffer(old)
	st.serviced = 0
	*old = st
	m.reserved.Set(vc)
	if st.qsize > 0 { // an empty VC's unrouted bit is clear already
		m.unrouted.SetTo(vc, st.awaitsRoute())
	}
	return true
}

// Release frees VC vc. Buffered flits must have drained first; releasing a
// non-empty VC panics because it would leak flits mid-connection.
func (m *Memory) Release(vc int) {
	st := &m.state[vc]
	if st.qsize != 0 {
		panic(fmt.Sprintf("vcm: release of non-empty VC %d (%d flits)", vc, st.qsize))
	}
	*st = VCState{}
	m.reserved.Clear(vc)
}

// FlitAt returns the i-th buffered flit of VC vc in FIFO order (0 is
// the head) without removing it. Checkpointing uses it to serialize
// queue contents; i outside [0, Len) panics.
func (m *Memory) FlitAt(vc, i int) *flit.Flit {
	st := &m.state[vc]
	if i < 0 || i >= int(st.qsize) {
		panic(fmt.Sprintf("vcm: FlitAt(%d, %d) outside queue of %d flits", vc, i, st.qsize))
	}
	return m.qbuf[vc*m.cfg.Depth+(int(st.qhead)+i)%m.cfg.Depth]
}

// RestoreState overwrites VC vc's scheduling state wholesale, setting
// the reserved bit from st.InUse. Unlike Reserve it does not force
// InUse, so checkpoint restore can reinstate both free and reserved VCs,
// and it leaves the VC's round account alone (restored separately via
// SetServiced). Buffered flits are restored via Push.
func (m *Memory) RestoreState(vc int, st VCState) {
	m.Materialize()
	old := &m.state[vc]
	st.keepBuffer(old)
	st.serviced, st.servicedRound = old.serviced, old.servicedRound
	*old = st
	m.reserved.SetTo(vc, st.InUse)
	m.unrouted.SetTo(vc, st.qsize > 0 && st.awaitsRoute())
}

// FindFree returns a VC that is not in use, scanning round-robin from the
// given position, or -1 if every VC is reserved.
func (m *Memory) FindFree(from int) int { return m.reserved.NextClearWrap(from) }

// PickFree is the one free-VC pick every reservation makes — a stream's
// entry and per-hop VCs, a buffered packet's: FindFree from a position
// drawn from rng.
func (m *Memory) PickFree(rng *sim.RNG) int { return m.FindFree(rng.Intn(m.NumVCs())) }

// FreeVCs returns the number of unreserved virtual channels.
func (m *Memory) FreeVCs() int { return m.cfg.VirtualChannels - m.reserved.Count() }

// Serviced returns the flit cycles VC vc has consumed this round.
func (m *Memory) Serviced(vc int) int {
	if st := &m.state[vc]; st.servicedRound == m.round {
		return int(st.serviced)
	}
	return 0
}

// IncServiced charges one flit cycle to VC vc's round account.
func (m *Memory) IncServiced(vc int) { m.SetServiced(vc, m.Serviced(vc)+1) }

// SetServiced overwrites VC vc's round account (checkpoint restore,
// tests constructing mid-round states).
func (m *Memory) SetServiced(vc, n int) {
	st := &m.state[vc]
	st.serviced, st.servicedRound = int32(n), m.round
}

// ResetRound zeroes every VC's serviced counter — called at each round
// (frame) boundary (§4.1). The counters are stamped with the round they
// were written in, so a new stamp retires them all at once — but for the
// one boundary in 2³² where the stamp wraps and counts from its last lap
// would read live again: that one walks the records.
func (m *Memory) ResetRound() {
	m.round++
	if m.round == 0 {
		for i := range m.state {
			m.state[i].serviced, m.state[i].servicedRound = 0, 0
		}
	}
}

// CheckMirrors audits everything the memory keeps in step with its records
// and flit store — the four status vectors, each non-empty VC's head stamp,
// the flit count and the bound Busy bit — and returns the first mirror that
// does not say what it mirrors. The datapath steers by these without looking
// behind them, so the engines' invariant audits call this. A vector is right
// when every bit the records call for is set and it has no more bits than
// that, so the one pass over the records tests only the bits of VCs that are
// reserved or buffer a flit. A memory without records calls for none: its
// four vectors must be empty and its Busy bit clear, and there is no pass.
func (m *Memory) CheckMirrors() error {
	vecs := [...]*bitvec.Vector{&m.flitsAvailable, &m.full, &m.reserved, &m.unrouted}
	names := [...]string{"flits_available", "full", "reserved", "unrouted"}
	var want [len(vecs)]int
	total := 0
	for vc := range m.state {
		st, n := &m.state[vc], int(m.state[vc].qsize)
		if n == 0 && !st.InUse {
			continue // calls for no bit
		}
		total += n
		for i, called := range [...]bool{n > 0, n == m.cfg.Depth, st.InUse, n > 0 && st.awaitsRoute()} {
			if !called {
				continue
			}
			want[i]++
			if !vecs[i].Test(vc) {
				return fmt.Errorf("vcm: VC %d %s bit is clear (class=%v output=%d inUse=%v flits=%d)", vc, names[i], st.Class, st.Output, st.InUse, n)
			}
		}
		if head := m.Peek(vc); head != nil && st.headReadyAt != head.ReadyAt {
			return fmt.Errorf("vcm: VC %d record says its head arrived at %d, the flit at %d", vc, st.headReadyAt, head.ReadyAt)
		}
	}
	for i, v := range vecs {
		if v.Count() != want[i] {
			return fmt.Errorf("vcm: %s vector %v has %d bits set, the records call for %d", names[i], v, v.Count(), want[i])
		}
	}
	if total != m.occupied {
		return fmt.Errorf("vcm: %d flits counted, %d queued", m.occupied, total)
	}
	if m.busy != nil && m.busy.Test(int(m.port)) != (total > 0) {
		return fmt.Errorf("vcm: Busy bit %d is %v with %d flits queued", m.port, total == 0, total)
	}
	return nil
}
