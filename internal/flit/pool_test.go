package flit

import "testing"

func TestPoolRecycles(t *testing.T) {
	p := NewPool()
	f := p.Get()
	f.Conn = 7
	f.CreatedAt = 42
	f.WentDown = true
	p.Put(f)

	if p.Live() != 0 {
		t.Fatalf("Live = %d after balanced get/put", p.Live())
	}
	if p.FreeLen() != 1 {
		t.Fatalf("FreeLen = %d, want 1", p.FreeLen())
	}
	g := p.Get()
	if g != f {
		t.Fatal("pool did not reuse the retired flit")
	}
	if *g != (Flit{}) {
		t.Fatalf("reissued flit not zeroed: %+v", g)
	}
}

func TestPoolNilSafe(t *testing.T) {
	p := NewPool()
	p.Put(nil)
	if p.Puts() != 0 || p.Live() != 0 {
		t.Fatalf("nil puts counted: puts=%d live=%d", p.Puts(), p.Live())
	}
}

func TestPoolCounters(t *testing.T) {
	p := NewPool()
	var fs []*Flit
	for i := 0; i < 10; i++ {
		fs = append(fs, p.Get())
	}
	for _, f := range fs[:4] {
		p.Put(f)
	}
	if p.Gets() != 10 || p.Puts() != 4 || p.Live() != 6 {
		t.Fatalf("gets=%d puts=%d live=%d, want 10/4/6", p.Gets(), p.Puts(), p.Live())
	}
}

func TestRingFIFO(t *testing.T) {
	var r Ring
	if r.Pop() != nil || r.Peek() != nil || !r.Empty() {
		t.Fatal("empty ring misbehaves")
	}
	fs := make([]*Flit, 100)
	for i := range fs {
		fs[i] = &Flit{CreatedAt: int64(i)}
	}
	// Interleave pushes and pops so head wraps across several growths.
	k := 0
	for i := range fs {
		r.Push(fs[i])
		if i%3 == 2 {
			if got := r.Pop(); got != fs[k] {
				t.Fatalf("pop %d: got flit %d", k, got.CreatedAt)
			}
			k++
		}
	}
	for ; k < len(fs); k++ {
		if got := r.Pop(); got != fs[k] {
			t.Fatalf("pop %d: got flit %d", k, got.CreatedAt)
		}
	}
	if !r.Empty() {
		t.Fatalf("ring not empty: %d", r.Len())
	}
}

// TestRingReleasesPopped is the NI-queue retention regression test: after
// draining, the ring's backing array must hold no flit pointers.
func TestRingReleasesPopped(t *testing.T) {
	var r Ring
	for i := 0; i < 40; i++ {
		r.Push(&Flit{CreatedAt: int64(i)})
	}
	for !r.Empty() {
		r.Pop()
	}
	for i, f := range r.buf {
		if f != nil {
			t.Fatalf("slot %d still pins a popped flit (%d)", i, f.CreatedAt)
		}
	}
}

func TestRingPowerOfTwoCap(t *testing.T) {
	var r Ring
	for i := 0; i < 1000; i++ {
		r.Push(&Flit{})
		if c := r.Cap(); c&(c-1) != 0 {
			t.Fatalf("cap %d not a power of two", c)
		}
	}
}
