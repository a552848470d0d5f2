package flit

// Pool is a free list of flits (and the packets head flits carry) for one
// simulation's flit cycle. The steady-state loop churns through one flit
// per injected and one per departed flit every cycle; recycling them keeps
// the hot path allocation-free after warmup. The pool is deliberately NOT
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
//   - Put recycles an attached Packet automatically; a Probe payload is
//     released to the GC (probes are control-plane rare).
type Pool struct {
	flits   []*Flit
	packets []*Packet

	gets, puts       int64
	pktGets, pktPuts int64
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

// Put retires a flit (and its packet payload, if any) back to the free
// list. Putting nil is a no-op so drain loops need no guard.
func (p *Pool) Put(f *Flit) {
	if f == nil {
		return
	}
	if f.Packet != nil {
		p.PutPacket(f.Packet)
	}
	*f = Flit{}
	p.puts++
	p.flits = append(p.flits, f)
}

// GetPacket returns a zeroed packet for a VCT head flit.
func (p *Pool) GetPacket() *Packet {
	p.pktGets++
	if n := len(p.packets); n > 0 {
		pk := p.packets[n-1]
		p.packets[n-1] = nil
		p.packets = p.packets[:n-1]
		return pk
	}
	return &Packet{}
}

// PutPacket retires a packet. The Probe payload, if any, is dropped to the
// GC rather than pooled.
func (p *Pool) PutPacket(pk *Packet) {
	if pk == nil {
		return
	}
	*pk = Packet{}
	p.pktPuts++
	p.packets = append(p.packets, pk)
}

// Live returns the number of flits issued and not yet retired — the flits
// currently in NI queues, virtual channel memories or in flight.
func (p *Pool) Live() int64 { return p.gets - p.puts }

// LivePackets returns the packets issued and not yet retired.
func (p *Pool) LivePackets() int64 { return p.pktGets - p.pktPuts }

// Gets returns the total flits issued (pool hits + fresh allocations).
func (p *Pool) Gets() int64 { return p.gets }

// Puts returns the total flits retired.
func (p *Pool) Puts() int64 { return p.puts }

// FreeLen returns the flits currently parked on the free list.
func (p *Pool) FreeLen() int { return len(p.flits) }
