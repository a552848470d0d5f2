package flow

import (
	"testing"
	"testing/quick"
)

func TestCreditsStartFull(t *testing.T) {
	c := NewCredits(4, 3)
	for vc := 0; vc < 4; vc++ {
		if c.Available(vc) != 3 || c.Available(vc) == 0 || !c.Vector().Test(vc) {
			t.Fatalf("VC %d not initialized full", vc)
		}
	}
}

func TestConsumeReturnCycle(t *testing.T) {
	c := NewCredits(2, 2)
	if !c.Consume(0) || !c.Consume(0) {
		t.Fatal("consume with credits failed")
	}
	if c.Available(0) > 0 || c.Vector().Test(0) {
		t.Fatal("exhausted VC still advertises credits")
	}
	if c.Consume(0) {
		t.Fatal("consume with zero credits succeeded")
	}
	c.Return(0)
	if c.Available(0) == 0 || !c.Vector().Test(0) || c.Available(0) != 1 {
		t.Fatal("returned credit not visible")
	}
}

func TestReturnOverflowPanics(t *testing.T) {
	c := NewCredits(1, 1)
	defer func() {
		if recover() == nil {
			t.Fatal("credit overflow did not panic")
		}
	}()
	c.Return(0)
}

func TestNewCreditsValidation(t *testing.T) {
	for _, bad := range [][2]int{{0, 1}, {1, 0}, {1, 256}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("geometry %v accepted", bad)
				}
			}()
			NewCredits(bad[0], bad[1])
		}()
	}
}

// Property: credits never go negative or above depth, and the bit vector
// always equals count>0.
func TestCreditsInvariantProperty(t *testing.T) {
	f := func(ops []uint8) bool {
		const vcs, depth = 4, 3
		c := NewCredits(vcs, depth)
		for _, op := range ops {
			vc := int(op) % vcs
			if op&0x80 == 0 {
				c.Consume(vc)
			} else if c.Available(vc) < depth {
				c.Return(vc)
			}
			for v := 0; v < vcs; v++ {
				n := c.Available(v)
				if n < 0 || n > depth {
					return false
				}
				if c.Vector().Test(v) != (n > 0) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestCreditPipeDelay(t *testing.T) {
	p := NewCreditPipe(5)
	c := NewCredits(4, 1)
	c.Consume(2)
	c.Consume(3)
	p.Send(10, 2)
	p.Send(11, 3)
	if n := p.DeliverTo(14, c); n != 0 || c.Available(2) > 0 || c.Available(3) > 0 {
		t.Fatalf("%d credits delivered early", n)
	}
	if n := p.DeliverTo(15, c); n != 1 || c.Available(2) == 0 || c.Available(3) > 0 {
		t.Fatalf("at t=15 want VC 2's credit alone, got %d (VC 2 %v, VC 3 %v)", n, c.Available(2) > 0, c.Available(3) > 0)
	}
	if n := p.DeliverTo(16, c); n != 1 || c.Available(3) == 0 {
		t.Fatalf("at t=16 want VC 3's credit, got %d", n)
	}
	if p.InFlight() != 0 {
		t.Fatalf("in-flight = %d, want 0", p.InFlight())
	}
}

func TestCreditPipeZeroDelay(t *testing.T) {
	p := NewCreditPipe(-7) // negative clamps to immediate
	c := NewCredits(2, 1)
	c.Consume(1)
	p.Send(4, 1)
	if p.DeliverTo(4, c) != 1 || c.Available(1) == 0 {
		t.Fatal("zero-delay credit not immediately deliverable")
	}
}

// Credits come back in send order: sent one a cycle, after each delivery
// exactly the VCs sent so far hold theirs (Lane's own tests pin the order
// of entries that mature together).
func TestCreditPipeOrder(t *testing.T) {
	p := NewCreditPipe(1)
	c := NewCredits(5, 1)
	for vc := 0; vc < 5; vc++ {
		c.Consume(vc)
		p.Send(int64(vc), vc)
	}
	for now := int64(1); now <= 5; now++ {
		if n := p.DeliverTo(now, c); n != 1 {
			t.Fatalf("t=%d: %d credits delivered, want 1", now, n)
		}
		for vc := 0; vc < 5; vc++ {
			if (c.Available(vc) > 0) != (int64(vc) < now) {
				t.Fatalf("t=%d: credits out of order at VC %d", now, vc)
			}
		}
	}
}

// Property: a sender constrained by Credits+CreditPipe never exceeds the
// receiver's buffer occupancy bound.
func TestEndToEndBackpressureProperty(t *testing.T) {
	f := func(sendPattern []bool, delay8 uint8) bool {
		const depth = 3
		delay := int64(delay8%4) + 1
		c := NewCredits(1, depth)
		pipe := NewCreditPipe(delay)
		occupancy := 0 // receiver buffer fill
		for now := int64(0); now < int64(len(sendPattern)); now++ {
			pipe.DeliverTo(now, c)
			if sendPattern[now] && c.Consume(0) {
				occupancy++
			}
			if occupancy > depth {
				return false
			}
			// Receiver drains one flit per cycle when it has any.
			if occupancy > 0 {
				occupancy--
				pipe.Send(now, 0)
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// A VC at the deepest buffer a VC memory allows (255 flits) runs a full
// round trip — every credit spent through a pipe and returned — without
// its count wrapping or disturbing its neighbours, and refuses the one
// credit past its depth on every path that sets a count.
func TestCreditsRoundTripDepth255(t *testing.T) {
	const vcs, depth = 3, 255
	c := NewCredits(vcs, depth)
	p := NewCreditPipe(2)
	for i := 0; i < depth; i++ {
		if !c.Consume(1) {
			t.Fatalf("credit %d of %d refused", i+1, depth)
		}
		p.Send(int64(i), 1)
	}
	if c.Consume(1) || c.Vector().Test(1) || c.Available(1) != 0 {
		t.Fatalf("exhausted VC holds %d credits", c.Available(1))
	}
	if c.Available(0) != depth || c.Available(2) != depth {
		t.Fatalf("neighbours disturbed: %d, %d", c.Available(0), c.Available(2))
	}
	if n := p.DeliverTo(depth+1, c); n != depth || c.Available(1) != depth || !c.Vector().Test(1) {
		t.Fatalf("%d credits delivered, VC holds %d; want %d", n, c.Available(1), depth)
	}
	c.SetAvailable(1, depth)
	c.Consume(1)
	c.Reset(1)
	if c.Available(1) != depth {
		t.Fatalf("Reset left %d credits, want %d", c.Available(1), depth)
	}
	for name, over := range map[string]func(){
		"Return":       func() { c.Return(1) },
		"SetAvailable": func() { c.SetAvailable(1, depth+1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("%s past depth %d did not panic", name, depth)
				}
			}()
			over()
		}()
	}
}
