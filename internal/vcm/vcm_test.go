package vcm

import (
	"testing"
	"testing/quick"

	"mmr/internal/flit"
)

func mk(t *testing.T, vcs, depth int) *Memory {
	t.Helper()
	m, err := New(Config{VirtualChannels: vcs, Depth: depth, Banks: 4, PhitsPerFlit: 8, PhitBufferDepth: 8})
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestConfigValidation(t *testing.T) {
	bad := []Config{
		{VirtualChannels: 0, Depth: 1, Banks: 1, PhitsPerFlit: 1},
		{VirtualChannels: 1, Depth: 0, Banks: 1, PhitsPerFlit: 1},
		{VirtualChannels: 1, Depth: 256, Banks: 1, PhitsPerFlit: 1}, // past a record's one-byte ring position
		{VirtualChannels: 1, Depth: 1, Banks: 0, PhitsPerFlit: 1},
		{VirtualChannels: 1, Depth: 1, Banks: 1, PhitsPerFlit: 0},
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
		if !m.Push(1, &flit.Flit{Seq: int64(i)}) {
			t.Fatalf("push %d rejected", i)
		}
	}
	if m.Push(1, &flit.Flit{Seq: 99}) {
		t.Fatal("push beyond depth accepted")
	}
	if m.Len(1) != 3 || m.Free(1) != 0 || m.Occupied() != 3 {
		t.Fatalf("occupancy wrong: len=%d free=%d occ=%d", m.Len(1), m.Free(1), m.Occupied())
	}
	for i := 0; i < 3; i++ {
		if f := m.Pop(1); f == nil || f.Seq != int64(i) {
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
	m.Push(0, &flit.Flit{Seq: 7})
	if f := m.Peek(0); f == nil || f.Seq != 7 {
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
	if m.State(2).InUse || m.State(2).Output != -1 {
		t.Fatal("release did not clear state")
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
				if m.Push(vc, &flit.Flit{Seq: next[vc]}) {
					next[vc]++
				}
			} else if f := m.Pop(vc); f != nil {
				if f.Seq != expect[vc] {
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

func TestPhitBuffer(t *testing.T) {
	p := NewPhitBuffer(8)
	if got := p.Arrive(5); got != 5 || p.Pending() != 5 {
		t.Fatalf("arrive: %d pending %d", got, p.Pending())
	}
	if got := p.Arrive(5); got != 3 {
		t.Fatalf("overflow arrive accepted %d, want 3", got)
	}
	if p.Drops() != 2 {
		t.Fatalf("drops = %d, want 2", p.Drops())
	}
	if got := p.Drain(6); got != 6 || p.Pending() != 2 {
		t.Fatalf("drain: %d pending %d", got, p.Pending())
	}
	if got := p.Drain(10); got != 2 || p.Pending() != 0 {
		t.Fatalf("drain past empty: %d pending %d", got, p.Pending())
	}
	if NewPhitBuffer(0).Depth() != 1 {
		t.Fatal("zero depth not clamped")
	}
}
