package flit

// Pool is a free list of flits for one simulation's flit cycle. The
// steady-state loop churns through one flit per injected and one per
// departed flit every cycle; recycling them keeps the hot path
// allocation-free after warmup. The pool is deliberately NOT
// concurrency-safe: each simulation — a router, a fabric — owns one pool
// and steps serially, so parallel simulations (exp.RunGrid cells) never
// contend on a shared free list.
//
// Ownership rules (see docs/performance.md):
//
//   - Get hands out a zeroed flit; the caller owns it exclusively.
//   - Ownership moves with the flit: NI queue → VCM → transmit.
//   - Put must be called exactly once, by the component that retires the
//     flit (the switch on departure, AbortFrame on a drop). After Put the
//     flit must not be referenced again — it will be reissued with
//     different contents.
type Pool struct {
	flits      []*Flit
	gets, puts int64 // flits issued and retired: the ledger tests balance
}

// NewPool returns an empty pool; it grows on demand and never shrinks.
func NewPool() *Pool { return &Pool{} }

// Get returns a zeroed flit, reusing a retired one when available.
func (p *Pool) Get() *Flit {
	p.gets++
	if n := len(p.flits); n > 0 {
		f := p.flits[n-1]
		p.flits[n-1] = nil
		p.flits = p.flits[:n-1]
		return f
	}
	return &Flit{}
}

// Put retires a flit back to the free list. Putting nil is a no-op so
// drain loops need no guard.
func (p *Pool) Put(f *Flit) {
	if f == nil {
		return
	}
	*f = Flit{}
	p.puts++
	p.flits = append(p.flits, f)
}
