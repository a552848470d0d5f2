package vcm

import (
	"testing"
	"testing/quick"

	"mmr/internal/bitvec"
	"mmr/internal/flit"
	"mmr/internal/sim"
)

// mk returns a memory with its records and flit store, so a test may push
// into VCs it never reserved; bare returns one as New leaves it, without.
func mk(t *testing.T, vcs, depth int) *Memory {
	t.Helper()
	m := bare(t, vcs, depth)
	m.Materialize()
	return m
}

func bare(t *testing.T, vcs, depth int) *Memory {
	t.Helper()
	m, err := New(Config{VirtualChannels: vcs, Depth: depth})
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// TestMemoryWithoutRecords: until its first reservation a memory holds no
// records and no flit store, and it answers everything that reads only its
// vectors — FindFree, PickFree, FreeVCs, the vectors themselves and the
// mirror audit — exactly as a materialized memory with nothing reserved
// does. Its first Reserve materializes it, and every other VC's record is
// then the zero record of a free VC.
func TestMemoryWithoutRecords(t *testing.T) {
	for _, vcs := range []int{1, 5, 64, 100, 256, 300} {
		empty, lazy := mk(t, vcs, 2), bare(t, vcs, 2)
		var occ int64
		busy := bitvec.New(2)
		lazy.BindOccupancy(&occ, busy, 1)
		if lazy.Materialized() || lazy.state != nil || lazy.qbuf != nil {
			t.Fatalf("%d VCs: New materialized the memory", vcs)
		}
		for from := 0; from < vcs; from++ {
			if got, want := lazy.FindFree(from), empty.FindFree(from); got != want {
				t.Fatalf("%d VCs: FindFree(%d) = %d, an empty memory's %d", vcs, from, got, want)
			}
		}
		if lazy.FreeVCs() != vcs || lazy.Occupied() != 0 {
			t.Fatalf("%d VCs: %d free VCs, %d flits", vcs, lazy.FreeVCs(), lazy.Occupied())
		}
		if a, b := lazy.PickFree(sim.NewRNG(3)), empty.PickFree(sim.NewRNG(3)); a != b {
			t.Fatalf("%d VCs: PickFree %d, an empty memory's %d", vcs, a, b)
		}
		for i, v := range []*bitvec.Vector{lazy.FlitsAvailable(), lazy.FullVector(), lazy.ReservedVector(), lazy.Unrouted()} {
			if v.Len() != vcs || v.Any() {
				t.Fatalf("%d VCs: vector %d is %v", vcs, i, v)
			}
		}
		if err := lazy.CheckMirrors(); err != nil || busy.Any() {
			t.Fatalf("%d VCs: audit %v, Busy %v", vcs, err, busy)
		}
		lazy.ResetRound() // nothing to walk

		vc := vcs / 2
		if !lazy.Reserve(vc, VCState{Conn: 3, Class: flit.ClassVBR, Allocated: 2, Output: 1}) || !lazy.Materialized() {
			t.Fatalf("%d VCs: Reserve did not materialize", vcs)
		}
		for v := 0; v < vcs; v++ {
			if st := *lazy.State(v); v != vc && st != (VCState{}) {
				t.Fatalf("%d VCs: free VC %d has record %+v", vcs, v, st)
			}
		}
		if !lazy.Push(vc, &flit.Flit{ReadyAt: 4}) || occ != 1 || !busy.Test(1) {
			t.Fatalf("%d VCs: push after materializing: occupancy %d, Busy %v", vcs, occ, busy)
		}
		if err := lazy.CheckMirrors(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestStoreCarvesChunks: memories sharing a Store allocate their storage a
// chunk at a time — two allocations, records and flit slots, per chunk of
// ports — and never share a record or a slot.
func TestStoreCarvesChunks(t *testing.T) {
	const perChunk, perCall = 32, 64
	cfg := Config{VirtualChannels: 64, Depth: 4}
	store := NewStore(perChunk)
	mems := make([]Memory, 2*perCall)
	next := 0
	materialize := func() {
		for i := 0; i < perCall; i++ {
			m := &mems[next]
			next++
			if err := Init(m, cfg, store); err != nil {
				t.Fatal(err)
			}
			m.Reserve(i%cfg.VirtualChannels, VCState{Class: flit.ClassCBR, Output: 0})
		}
	}
	if got := testing.AllocsPerRun(1, materialize); got != 2*perCall/perChunk {
		t.Fatalf("materializing %d ports allocated %.0f times, want %d", perCall, got, 2*perCall/perChunk)
	}
	seen := map[*VCState]bool{}
	slots := map[**flit.Flit]bool{}
	for i := range mems {
		m := &mems[i]
		if len(m.state) != cfg.VirtualChannels || len(m.qbuf) != cfg.VirtualChannels*cfg.Depth {
			t.Fatalf("memory %d carved %d records and %d slots", i, len(m.state), len(m.qbuf))
		}
		for v := range m.state {
			if seen[&m.state[v]] {
				t.Fatalf("memory %d VC %d shares its record", i, v)
			}
			seen[&m.state[v]] = true
		}
		for s := range m.qbuf {
			if slots[&m.qbuf[s]] {
				t.Fatalf("memory %d shares flit slot %d", i, s)
			}
			slots[&m.qbuf[s]] = true
		}
		// Filling every VC of one memory leaves its neighbours' untouched.
		for v := 0; v < cfg.VirtualChannels; v++ {
			for d := 0; d < cfg.Depth; d++ {
				m.Push(v, &flit.Flit{CreatedAt: int64(i)})
			}
		}
	}
	for i := range mems {
		if err := mems[i].CheckMirrors(); err != nil {
			t.Fatalf("memory %d: %v", i, err)
		}
		for v := 0; v < cfg.VirtualChannels; v++ {
			if f := mems[i].Peek(v); f.CreatedAt != int64(i) {
				t.Fatalf("memory %d VC %d holds memory %d's flit", i, v, f.CreatedAt)
			}
		}
	}
}

func TestConfigValidation(t *testing.T) {
	bad := []Config{
		{VirtualChannels: 0, Depth: 1},
		{VirtualChannels: 1, Depth: 0},
		{VirtualChannels: 1, Depth: 256}, // past a record's one-byte ring position
	}
	for i, cfg := range bad {
		if _, err := New(cfg); err == nil {
			t.Errorf("config %d accepted: %+v", i, cfg)
		}
	}
	if _, err := New(PaperConfig()); err != nil {
		t.Fatalf("paper config rejected: %v", err)
	}
}

func TestMustNewPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("MustNew with bad config did not panic")
		}
	}()
	MustNew(Config{})
}

func TestPushPopFIFO(t *testing.T) {
	m := mk(t, 4, 3)
	for i := 0; i < 3; i++ {
		if !m.Push(1, &flit.Flit{CreatedAt: int64(i)}) {
			t.Fatalf("push %d rejected", i)
		}
	}
	if m.Push(1, &flit.Flit{CreatedAt: 99}) {
		t.Fatal("push beyond depth accepted")
	}
	if m.Len(1) != 3 || m.Free(1) != 0 || m.Occupied() != 3 {
		t.Fatalf("occupancy wrong: len=%d free=%d occ=%d", m.Len(1), m.Free(1), m.Occupied())
	}
	for i := 0; i < 3; i++ {
		if f := m.Pop(1); f == nil || f.CreatedAt != int64(i) {
			t.Fatalf("pop %d: got %v", i, f)
		}
	}
	if m.Pop(1) != nil {
		t.Fatal("pop from empty returned a flit")
	}
	if m.Occupied() != 0 {
		t.Fatal("occupied count leaked")
	}
}

func TestPeekDoesNotConsume(t *testing.T) {
	m := mk(t, 2, 2)
	m.Push(0, &flit.Flit{CreatedAt: 7})
	if f := m.Peek(0); f == nil || f.CreatedAt != 7 {
		t.Fatal("peek wrong")
	}
	if m.Len(0) != 1 {
		t.Fatal("peek consumed the flit")
	}
	if m.Peek(1) != nil {
		t.Fatal("peek on empty VC returned a flit")
	}
}

func TestStatusVectorsTrackOccupancy(t *testing.T) {
	m := mk(t, 8, 2)
	if m.FlitsAvailable().Any() {
		t.Fatal("fresh memory advertises flits")
	}
	m.Push(3, &flit.Flit{})
	if !m.FlitsAvailable().Test(3) {
		t.Fatal("flits_available bit not set")
	}
	if m.FullVector().Test(3) {
		t.Fatal("full bit set below capacity")
	}
	m.Push(3, &flit.Flit{})
	if !m.FullVector().Test(3) {
		t.Fatal("full bit not set at capacity")
	}
	m.Pop(3)
	if m.FullVector().Test(3) {
		t.Fatal("full bit stuck after pop")
	}
	m.Pop(3)
	if m.FlitsAvailable().Test(3) {
		t.Fatal("flits_available bit stuck after drain")
	}
}

func TestReserveReleaseFindFree(t *testing.T) {
	m := mk(t, 4, 2)
	if !m.Reserve(2, VCState{Conn: 5, Class: flit.ClassCBR, Allocated: 3, Output: 1}) {
		t.Fatal("reserve failed")
	}
	if m.Reserve(2, VCState{}) {
		t.Fatal("double reserve accepted")
	}
	st := m.State(2)
	if st.Conn != 5 || !st.InUse || st.Output != 1 || st.Allocated != 3 {
		t.Fatalf("state wrong: %+v", st)
	}
	if !m.ReservedVector().Test(2) {
		t.Fatal("reserved bit not set")
	}
	if m.FreeVCs() != 3 {
		t.Fatalf("FreeVCs = %d, want 3", m.FreeVCs())
	}
	if vc := m.FindFree(2); vc != 3 {
		t.Fatalf("FindFree(2) = %d, want 3", vc)
	}
	m.Release(2)
	if *m.State(2) != (VCState{}) {
		t.Fatalf("release left record %+v, not a free VC's zero record", *m.State(2))
	}
	for i := 0; i < 4; i++ {
		m.Reserve(i, VCState{})
	}
	if m.FindFree(0) != -1 {
		t.Fatal("FindFree on saturated memory should be -1")
	}
}

func TestReleaseNonEmptyPanics(t *testing.T) {
	m := mk(t, 2, 2)
	m.Reserve(0, VCState{})
	m.Push(0, &flit.Flit{})
	defer func() {
		if recover() == nil {
			t.Fatal("release of non-empty VC did not panic")
		}
	}()
	m.Release(0)
}

func TestResetRound(t *testing.T) {
	m := mk(t, 3, 2)
	for i := 0; i < 3; i++ {
		m.SetServiced(i, 7)
	}
	m.ResetRound()
	for i := 0; i < 3; i++ {
		if m.Serviced(i) != 0 {
			t.Fatal("serviced count not reset")
		}
	}
}

// Property: for any push/pop sequence within capacity, flits_available
// and full vectors agree with queue occupancy, and FIFO order holds.
func TestVCMInvariantProperty(t *testing.T) {
	f := func(ops []uint8) bool {
		m := mk(t, 4, 3)
		next := make([]int64, 4)   // next seq to push per VC
		expect := make([]int64, 4) // next seq to pop per VC
		for _, op := range ops {
			vc := int(op) % 4
			if op&0x80 == 0 {
				if m.Push(vc, &flit.Flit{CreatedAt: next[vc]}) {
					next[vc]++
				}
			} else if f := m.Pop(vc); f != nil {
				if f.CreatedAt != expect[vc] {
					return false
				}
				expect[vc]++
			}
			// Invariants.
			total := 0
			for v := 0; v < 4; v++ {
				l := m.Len(v)
				total += l
				if m.FlitsAvailable().Test(v) != (l > 0) {
					return false
				}
				if m.FullVector().Test(v) != (l == 3) {
					return false
				}
				if m.Free(v) != 3-l {
					return false
				}
			}
			if total != m.Occupied() {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestBankModelGeometry(t *testing.T) {
	b := NewBankModel(8, 8)
	// 8 phits across 8 banks: one phit time per whole-flit access.
	if b.FlitAccessPhits() != 1 {
		t.Fatalf("FlitAccessPhits = %d, want 1", b.FlitAccessPhits())
	}
	// Low-order interleave: consecutive phits hit consecutive banks.
	for p := 0; p < 8; p++ {
		if b.BankFor(0, p) != p {
			t.Fatalf("BankFor(0,%d) = %d", p, b.BankFor(0, p))
		}
	}
	if b.BankFor(1, 0) != 0 { // next flit wraps around to bank 0
		t.Fatalf("BankFor(1,0) = %d", b.BankFor(1, 0))
	}
	b2 := NewBankModel(4, 8)
	if b2.FlitAccessPhits() != 2 {
		t.Fatalf("4 banks, 8 phits: access = %d phit times, want 2", b2.FlitAccessPhits())
	}
}

func TestBankModelConcurrency(t *testing.T) {
	// 8 banks, 8 phits/flit: one access at a time, 1 phit each → read+write = 2.
	b := NewBankModel(8, 8)
	if got := b.ConcurrentAccessPhits(1, 1); got != 2 {
		t.Fatalf("8/8 read+write = %d phit times, want 2", got)
	}
	if !b.MeetsCycleBudget() {
		t.Fatal("8 banks of 8-phit flits should meet the cycle budget")
	}
	// 1 bank: each access costs 8 phit times; read+write = 16 > 8 budget.
	b1 := NewBankModel(1, 8)
	if got := b1.ConcurrentAccessPhits(1, 1); got != 16 {
		t.Fatalf("1-bank read+write = %d, want 16", got)
	}
	if b1.MeetsCycleBudget() {
		t.Fatal("single bank cannot meet the cycle budget")
	}
	// 16 banks, 8 phits: two accesses proceed in parallel.
	b16 := NewBankModel(16, 8)
	if got := b16.ConcurrentAccessPhits(1, 1); got != 1 {
		t.Fatalf("16-bank read+write = %d, want 1", got)
	}
	if got := b.ConcurrentAccessPhits(0, 0); got != 0 {
		t.Fatalf("no accesses = %d, want 0", got)
	}
}

func TestBankModelClamping(t *testing.T) {
	b := NewBankModel(0, 0)
	if b.Banks != 1 || b.PhitsPerFlit != 1 {
		t.Fatal("degenerate geometry not clamped")
	}
}
