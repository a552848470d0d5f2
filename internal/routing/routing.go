// Package routing implements the MMR's routing and arbitration unit
// state and algorithms (§3.5): direct/reverse channel mapping tables for
// established connections, per-virtual-channel history stores for
// backtracking probes, the Exhaustive Profitable Backtracking (EPB)
// connection-establishment search of Gaughan & Yalamanchili [17], and the
// up*/down* adaptive routing used for best-effort packets on irregular
// topologies (Silla & Duato [26,27]).
package routing

import (
	"fmt"
	"math"
)

// VCRef names a virtual channel: a physical port plus a VC index on it
// ("Virtual channels are specified by indicating the physical link and
// the virtual channel on that link", §3.5).
type VCRef struct {
	Port int
	VC   int
}

// Invalid is the null VCRef.
var Invalid = VCRef{Port: -1, VC: -1}

// ChannelMap stores the direct and reverse channel mappings of one router
// (§3.5): direct maps an input VC to the output VC that continues the
// connection (used to forward data flits); reverse maps an output VC back,
// so an output already feeding a connection refuses a second one.
//
// An entry is one int32, (port+1)<<16 | vc, and 0 means unmapped: decoding
// is a shift and a mask, and a router has at most math.MaxInt16 ports and
// VCs per port. Each port has a direct row, indexed by input port, and a
// reverse row, indexed by output port; a row is carved from a Rows store the
// first time a mapping roots at or leaves by its port, and reads as all
// zeroes until then.
type ChannelMap struct {
	ports, vcs      int
	direct, reverse Table[int32]
}

// NewChannelMap returns an empty mapping table for a router with the
// given geometry, with a row store of its own.
func NewChannelMap(ports, vcs int) *ChannelMap {
	checkGeometry(ports, vcs)
	return NewChannelMapIn(NewRows(vcs, 8, int32(0)), ports)
}

// NewChannelMapIn returns an empty mapping table for a router with ports
// ports whose rows, one entry per VC, are carved from rows: the routers of
// one fabric share a store, so giving a port its rows seldom allocates.
func NewChannelMapIn(rows *Rows[int32], ports int) *ChannelMap {
	checkGeometry(ports, len(rows.blank))
	return &ChannelMap{ports: ports, vcs: len(rows.blank), direct: rows.Table(ports), reverse: rows.Table(ports)}
}

func checkGeometry(ports, vcs int) {
	if ports < 1 || vcs < 1 || ports > math.MaxInt16 || vcs > math.MaxInt16 {
		panic(fmt.Sprintf("routing: invalid geometry ports=%d vcs=%d", ports, vcs))
	}
}

func (m *ChannelMap) check(r VCRef) {
	if r.Port < 0 || r.Port >= m.ports || r.VC < 0 || r.VC >= m.vcs {
		panic(fmt.Sprintf("routing: VC reference %+v out of range", r))
	}
}

func pack(r VCRef) int32 { return int32(r.Port+1)<<16 | int32(r.VC) }

func unpack(e int32) VCRef {
	if e == 0 {
		return Invalid
	}
	return VCRef{Port: int(e>>16) - 1, VC: int(e & 0xffff)}
}

// Map installs the bidirectional mapping in → out. Mapping an already
// mapped channel returns an error (the previous connection must be torn
// down first).
func (m *ChannelMap) Map(in, out VCRef) error {
	m.check(in)
	if m.direct.At(in.Port, in.VC) != 0 {
		return fmt.Errorf("routing: input %+v already mapped", in)
	}
	m.check(out)
	if m.reverse.At(out.Port, out.VC) != 0 {
		return fmt.Errorf("routing: output %+v already mapped", out)
	}
	m.direct.Put(in.Port, in.VC, pack(out))
	m.reverse.Put(out.Port, out.VC, pack(in))
	return nil
}

// Direct returns the output VC an input VC maps to, or Invalid.
func (m *ChannelMap) Direct(in VCRef) VCRef {
	m.check(in)
	return unpack(m.direct.At(in.Port, in.VC))
}

// Reverse returns the input VC feeding an output VC, or Invalid.
func (m *ChannelMap) Reverse(out VCRef) VCRef {
	m.check(out)
	return unpack(m.reverse.At(out.Port, out.VC))
}

// Unmap removes the mapping rooted at input in, returning the output it
// pointed to, or Invalid if none existed.
func (m *ChannelMap) Unmap(in VCRef) VCRef {
	m.check(in)
	out := unpack(m.direct.At(in.Port, in.VC))
	if out != Invalid {
		m.direct.Clear(in.Port, in.VC)
		m.reverse.Clear(out.Port, out.VC)
	}
	return out
}

// AppendMapped appends every installed mapping to dst as an (input,
// output) pair, in ascending input (port, VC) order — a deterministic
// order suitable for serialization — and returns the extended slice.
func (m *ChannelMap) AppendMapped(dst [][2]VCRef) [][2]VCRef {
	for p, row := range m.direct.rows {
		if !m.direct.Carved(p) {
			continue
		}
		for vc, e := range row {
			if e != 0 {
				dst = append(dst, [2]VCRef{{Port: p, VC: vc}, unpack(e)})
			}
		}
	}
	return dst
}

// Mapped returns the number of installed mappings.
func (m *ChannelMap) Mapped() int { return m.direct.Held() }

// Carved reports whether port p has its own direct row (a mapping has
// rooted at it) and its own reverse row (a mapping has left by it).
func (m *ChannelMap) Carved(p int) (direct, reverse bool) {
	return m.direct.Carved(p), m.reverse.Carved(p)
}

// History is the per-input-VC history store of §3.5: it records the
// output links a probe has already searched from this router, so
// backtracking never retries them ("In order to avoid searching the same
// links twice, a history store associated with each input virtual channel
// records all the output links that have already been searched").
type History struct {
	searched uint64 // bit per output port; routers have ≤ 64 ports
}

// Mark records that output port p has been searched.
func (h *History) Mark(p int) { h.searched |= 1 << uint(p) }

// Searched reports whether output port p has been tried.
func (h *History) Searched(p int) bool { return h.searched&(1<<uint(p)) != 0 }

// Reset clears the history (when the probe is released).
func (h *History) Reset() { h.searched = 0 }
