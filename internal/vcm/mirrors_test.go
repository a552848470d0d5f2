package vcm

import (
	"math"
	"math/rand"
	"testing"
	"unsafe"

	"mmr/internal/bitvec"
	"mmr/internal/flit"
)

// TestVCRecordLayout holds the per-VC record to one cache line: exactly 64
// bytes, and a memory's block of them starting on a line boundary, so
// record vc is exactly line vc of the block — for a memory with a chunk of
// its own and for memories carved one after another from a shared chunk,
// below the allocator's 32 KB large-object threshold and above it.
func TestVCRecordLayout(t *testing.T) {
	if sz := unsafe.Sizeof(VCState{}); sz != 64 {
		t.Fatalf("VCState is %d bytes, not one cache line", sz)
	}
	// A router lays its memories out in one slice: whole lines each, so every
	// memory's four status vectors are a line apiece.
	if sz := unsafe.Sizeof(Memory{}); sz%64 != 0 || unsafe.Offsetof(Memory{}.flitsAvailable)%64 != 0 {
		t.Fatalf("Memory is %d bytes with its vectors from offset %d: not whole lines", sz, unsafe.Offsetof(Memory{}.flitsAvailable))
	}
	for _, vcs := range []int{1, 3, 13, 17, 64, 100, 256} {
		for _, ports := range []int{1, 3, 17, 32} {
			store := NewStore(ports)
			for i := 0; i < 2*ports+1; i++ {
				var m Memory
				if err := Init(&m, Config{VirtualChannels: vcs, Depth: 4}, store); err != nil {
					t.Fatal(err)
				}
				m.Reserve(0, VCState{})
				if off := uintptr(unsafe.Pointer(&m.state[0])) % 64; off != 0 {
					t.Fatalf("%d VCs, %d-port chunks, memory %d: state block starts %d bytes into a cache line", vcs, ports, i, off)
				}
			}
		}
	}
}

// findFreeRef is the record-by-record walk FindFree's word scan replaced. A
// memory without records has every VC free.
func findFreeRef(m *Memory, from int) int {
	n := m.cfg.VirtualChannels
	if !m.Materialized() {
		return from
	}
	for i := 0; i < n; i++ {
		if vc := (from + i) % n; !m.state[vc].InUse {
			return vc
		}
	}
	return -1
}

func TestFindFreeMatchesWalk(t *testing.T) {
	// Every single-hole pattern of a 64-VC port, from every start.
	m := mk(t, 64, 1)
	for vc := 0; vc < 64; vc++ {
		m.Reserve(vc, VCState{})
	}
	for hole := 0; hole < 64; hole++ {
		m.Release(hole)
		for from := 0; from < 64; from++ {
			if got := m.FindFree(from); got != hole {
				t.Fatalf("hole %d: FindFree(%d) = %d", hole, from, got)
			}
		}
		m.Reserve(hole, VCState{})
	}
	if got := m.FindFree(17); got != -1 {
		t.Fatalf("FindFree on a full port = %d", got)
	}
	// Random reservations on widths around the word and inline boundaries.
	rng := rand.New(rand.NewSource(1))
	for _, vcs := range []int{1, 5, 63, 64, 65, 128, 200, 256, 300} {
		m := mk(t, vcs, 1)
		for step := 0; step < 4000; step++ {
			if vc := rng.Intn(vcs); m.state[vc].InUse {
				m.Release(vc)
			} else if rng.Intn(4) > 0 {
				m.Reserve(vc, VCState{})
			}
			from := rng.Intn(vcs)
			if got, want := m.FindFree(from), findFreeRef(m, from); got != want {
				t.Fatalf("%d VCs, reserved %v: FindFree(%d) = %d, the walk finds %d", vcs, m.ReservedVector(), from, got, want)
			}
		}
	}
}

// refVC is the plain model FuzzMemoryMirrors holds a Memory to: a slice for
// the queue and a serviced count that a round boundary zeroes eagerly.
type refVC struct {
	st       VCState // public fields only
	q        []*flit.Flit
	serviced int
}

// FuzzMemoryMirrors drives a Memory bound to a router's occupancy mirrors
// and a plain reference model through the same random operations and
// compares, after every one, everything the memory derives: queue contents,
// the status vectors (flits_available, full, reserved, unrouted), the Busy
// bit and the flit count, the head stamp, and the round accounts — with the
// round stamp now and then run on to the end of its uint32 lap, so that the
// next boundary wraps it onto stamps the records still hold from the start.
// The memory starts as New leaves it, without records, carved from a chunk
// it shares with a neighbour that must never see its flits: until a Reserve
// or RestoreState materializes it only those two and the round boundary
// apply, and the vectors, FindFree and the audit must answer as for a
// memory with every VC free and empty.
func FuzzMemoryMirrors(f *testing.F) {
	f.Add(int64(1), []byte{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15})
	f.Add(int64(7), []byte{0, 8, 16, 24, 1, 9, 17, 6, 6, 6, 6, 2, 10, 5, 3, 4, 7})
	f.Add(int64(3), []byte{0, 7, 15, 6, 7, 6, 6, 15, 6, 6, 6, 6})
	f.Add(int64(5), []byte{1, 2, 6, 7, 6, 3, 4, 13, 5, 1, 9, 2})
	f.Fuzz(func(t *testing.T, seed int64, ops []byte) {
		const vcs, depth = 6, 3
		cfg := Config{VirtualChannels: vcs, Depth: depth}
		rng := rand.New(rand.NewSource(seed))
		store := NewStore(2)
		var m, neighbour Memory
		for _, mem := range []*Memory{&neighbour, &m} {
			if err := Init(mem, cfg, store); err != nil {
				t.Fatal(err)
			}
		}
		neighbour.Materialize()
		for v := 0; v < vcs; v++ {
			neighbour.Push(v, &flit.Flit{CreatedAt: -1})
		}
		var occ int64
		busy := bitvec.New(3)
		m.BindOccupancy(&occ, busy, 1)
		ref := make([]refVC, vcs)
		classes := []flit.Class{flit.ClassCBR, flit.ClassVBR, flit.ClassBestEffort, flit.ClassControl}
		randState := func() VCState {
			return VCState{
				Conn: flit.ConnID(rng.Intn(9)), Class: classes[rng.Intn(len(classes))],
				Allocated: rng.Intn(5), Peak: rng.Intn(9), BasePriority: rng.Intn(4),
				InterArrival: float64(rng.Intn(50)), Output: rng.Intn(4) - 1,
			}
		}
		now := int64(0)
		for _, op := range ops {
			vc, r := int(op>>3)%vcs, &ref[int(op>>3)%vcs]
			now++
			if k := op & 7; !m.Materialized() && k != 0 && k != 5 && k != 6 {
				continue // only Reserve and RestoreState give a memory records
			}
			switch op & 7 {
			case 0: // Reserve
				st := randState()
				if got, want := m.Reserve(vc, st), !r.st.InUse; got != want {
					t.Fatalf("Reserve(%d) = %v, want %v", vc, got, want)
				} else if got {
					st.InUse = true
					r.st, r.serviced = st, 0
				}
			case 1: // Push
				fl := &flit.Flit{CreatedAt: now, ReadyAt: now + int64(rng.Intn(5))}
				if got, want := m.Push(vc, fl), len(r.q) < depth; got != want {
					t.Fatalf("Push(%d) = %v, want %v", vc, got, want)
				} else if got {
					r.q = append(r.q, fl)
				}
			case 2: // Pop
				var want *flit.Flit
				if len(r.q) > 0 {
					want, r.q = r.q[0], r.q[1:]
				}
				if got := m.Pop(vc); got != want {
					t.Fatalf("Pop(%d) = %v, want %v", vc, got, want)
				}
			case 3: // SetOutput
				r.st.Output = rng.Intn(4) - 1
				m.SetOutput(vc, r.st.Output)
			case 4: // Release
				if len(r.q) == 0 {
					m.Release(vc)
					r.st, r.serviced = VCState{}, 0
				}
			case 5: // RestoreState
				r.st = randState()
				r.st.InUse = rng.Intn(2) == 0
				m.RestoreState(vc, r.st)
			case 6: // ResetRound
				if rng.Intn(3) == 0 {
					m.round = math.MaxUint32 // as many boundaries as it takes to get there
				}
				m.ResetRound()
				for i := range ref {
					ref[i].serviced = 0
				}
			case 7: // SetServiced / IncServiced
				if rng.Intn(2) == 0 {
					r.serviced = rng.Intn(9)
					m.SetServiced(vc, r.serviced)
				} else {
					r.serviced++
					m.IncServiced(vc)
				}
			}

			total := 0
			for v := range ref {
				r := &ref[v]
				total += len(r.q)
				unrouted := len(r.q) > 0 && r.st.Class == flit.ClassBestEffort && r.st.Output < 0
				if m.FlitsAvailable().Test(v) != (len(r.q) > 0) || m.FullVector().Test(v) != (len(r.q) == depth) ||
					m.ReservedVector().Test(v) != r.st.InUse || m.Unrouted().Test(v) != unrouted {
					t.Fatalf("VC %d: status bits avail=%v full=%v reserved=%v unrouted=%v for %d flits, state %+v", v,
						m.FlitsAvailable().Test(v), m.FullVector().Test(v), m.ReservedVector().Test(v), m.Unrouted().Test(v), len(r.q), r.st)
				}
				if !m.Materialized() {
					continue // every VC free and empty, as the vectors just said
				}
				st, want := m.State(v), r.st
				got := VCState{Conn: st.Conn, Class: st.Class, Allocated: st.Allocated, Peak: st.Peak, BasePriority: st.BasePriority,
					InterArrival: st.InterArrival, Output: st.Output, InUse: st.InUse}
				if got != want {
					t.Fatalf("VC %d state %+v, want %+v", v, got, want)
				}
				if m.Len(v) != len(r.q) || m.Free(v) != depth-len(r.q) {
					t.Fatalf("VC %d: Len %d Free %d with %d flits queued", v, m.Len(v), m.Free(v), len(r.q))
				}
				for i, fl := range r.q {
					if m.FlitAt(v, i) != fl {
						t.Fatalf("VC %d: flit %d differs", v, i)
					}
				}
				if len(r.q) > 0 && (m.Peek(v) != r.q[0] || st.HeadReadyAt() != r.q[0].ReadyAt) {
					t.Fatalf("VC %d: head %v stamped %d, want %v", v, m.Peek(v), st.HeadReadyAt(), r.q[0])
				}
				if len(r.q) == 0 && m.Peek(v) != nil {
					t.Fatalf("VC %d: Peek on an empty VC", v)
				}
				if m.Serviced(v) != r.serviced {
					t.Fatalf("VC %d: Serviced %d, want %d (round stamp %d)", v, m.Serviced(v), r.serviced, m.round)
				}
			}
			if m.Occupied() != total || occ != int64(total) || busy.Test(1) != (total > 0) || busy.Count() > 1 {
				t.Fatalf("occupied %d, mirror %d, Busy %v with %d flits queued", m.Occupied(), occ, busy, total)
			}
			if got, want := m.FindFree(vc), findFreeRef(&m, vc); got != want {
				t.Fatalf("FindFree(%d) = %d, want %d", vc, got, want)
			}
			// The memory's own audit, which the engines rely on, agrees.
			if err := m.CheckMirrors(); err != nil {
				t.Fatal(err)
			}
			for v := 0; v < vcs; v++ {
				if f := neighbour.Peek(v); f == nil || f.CreatedAt != -1 || neighbour.Len(v) != 1 {
					t.Fatalf("the neighbour's VC %d changed: %v", v, f)
				}
			}
		}
	})
}

// TestCheckMirrorsDetects damages each mirror in turn behind the memory's
// back: the audit must name every one, and pass once it is repaired.
func TestCheckMirrorsDetects(t *testing.T) {
	m := mk(t, 4, 2)
	var occ int64
	busy := bitvec.New(2)
	m.BindOccupancy(&occ, busy, 1)
	m.Reserve(0, VCState{Class: flit.ClassBestEffort, Output: -1})
	m.Reserve(1, VCState{Class: flit.ClassCBR, Output: 2})
	m.Push(0, &flit.Flit{ReadyAt: 5})
	m.Push(1, &flit.Flit{ReadyAt: 7})
	m.Push(1, &flit.Flit{ReadyAt: 9})
	if err := m.CheckMirrors(); err != nil {
		t.Fatalf("consistent memory: %v", err)
	}
	for name, damage := range map[string]func() (repair func()){
		"flits_available": func() func() { m.flitsAvailable.Clear(1); return func() { m.flitsAvailable.Set(1) } },
		"full":            func() func() { m.full.Clear(1); return func() { m.full.Set(1) } },
		"reserved":        func() func() { m.reserved.Set(3); return func() { m.reserved.Clear(3) } },
		"unrouted set":    func() func() { m.unrouted.Set(1); return func() { m.unrouted.Clear(1) } },
		"unrouted clear":  func() func() { m.unrouted.Clear(0); return func() { m.unrouted.Set(0) } },
		"output":          func() func() { m.state[0].Output = 3; return func() { m.state[0].Output = -1 } },
		"head stamp":      func() func() { m.state[1].headReadyAt = 8; return func() { m.state[1].headReadyAt = 7 } },
		"flit count":      func() func() { m.occupied++; return func() { m.occupied-- } },
		"busy":            func() func() { busy.Clear(1); return func() { busy.Set(1) } },
	} {
		repair := damage()
		if err := m.CheckMirrors(); err == nil {
			t.Errorf("%s: damage not detected", name)
		}
		repair()
		if err := m.CheckMirrors(); err != nil {
			t.Fatalf("%s: after repair: %v", name, err)
		}
	}

	// A memory without records calls for no bit at all: a stray one in any
	// vector, a stray Busy bit or a stray flit count is named without a record
	// being read, and the audit does not materialize the memory.
	b := bare(t, 4, 2)
	b.BindOccupancy(&occ, busy, 0)
	for name, damage := range map[string]func() (repair func()){
		"flits_available": func() func() { b.flitsAvailable.Set(2); return func() { b.flitsAvailable.Clear(2) } },
		"full":            func() func() { b.full.Set(3); return func() { b.full.Clear(3) } },
		"reserved":        func() func() { b.reserved.Set(0); return func() { b.reserved.Clear(0) } },
		"unrouted":        func() func() { b.unrouted.Set(1); return func() { b.unrouted.Clear(1) } },
		"flit count":      func() func() { b.occupied++; return func() { b.occupied-- } },
		"busy":            func() func() { busy.Set(0); return func() { busy.Clear(0) } },
	} {
		repair := damage()
		if err := b.CheckMirrors(); err == nil {
			t.Errorf("no records, %s: damage not detected", name)
		}
		repair()
		if err := b.CheckMirrors(); err != nil {
			t.Fatalf("no records, %s: after repair: %v", name, err)
		}
	}
	if b.Materialized() {
		t.Fatal("the audit materialized the memory")
	}
}
