// Package flit defines the data units the MMR moves: flits (the unit of
// flow control and scheduling, §3.1, and — since a VCT packet is exactly
// one flit, §3.4 — of control and best-effort packets too) and control
// words (the virtual-channel identifier sent ahead of every flit, plus the
// command encodings used for dynamic bandwidth management, §4.3). Phits,
// the unit of physical link transfer, appear only as a link's geometry
// (traffic.Link) and in the VC memory's bank model (vcm.BankModel).
package flit

import "fmt"

// Class is the service class a flit or packet belongs to. The MMR serves
// four: CBR and VBR streams over pipelined circuit switching, and control
// and best-effort packets over virtual cut-through (§3.1, §3.4).
type Class uint8

// Service classes, ordered by the scheduling priority the paper assigns:
// control packets preempt data streams, data streams preempt best-effort.
const (
	ClassCBR Class = iota
	ClassVBR
	ClassControl
	ClassBestEffort
	numClasses
)

// NumClasses is the number of distinct service classes.
const NumClasses = int(numClasses)

// String implements fmt.Stringer.
func (c Class) String() string {
	switch c {
	case ClassCBR:
		return "CBR"
	case ClassVBR:
		return "VBR"
	case ClassControl:
		return "control"
	case ClassBestEffort:
		return "best-effort"
	default:
		return fmt.Sprintf("Class(%d)", uint8(c))
	}
}

// IsStream reports whether the class is carried by a connection (PCS)
// rather than by cut-through packets.
func (c Class) IsStream() bool { return c == ClassCBR || c == ClassVBR }

// ConnID identifies a connection (an established virtual circuit) within
// one simulation. The zero value is valid; InvalidConn marks "none".
type ConnID int32

// InvalidConn is the sentinel for "no connection".
const InvalidConn ConnID = -1

// Flit is one flow-control digit. The paper uses large flits
// (128–512 bits) so that flow-control and scheduling delays amortize; a
// flit crosses the router in exactly one flit cycle. A VCT packet is
// exactly one flit (§3.4: "packet size is equal to flit size"), so a flit
// carries what the model reads of a packet too, and nothing else: 40
// bytes with no pointer (TestFlitLayout).
type Flit struct {
	Conn ConnID // owning connection, or InvalidConn for VCT packets

	// Dst is a best-effort packet's destination router in a network run,
	// which the routing unit steers it toward; stream flits follow their
	// connection's channel mappings and leave it zero.
	Dst int32

	Class Class

	// WentDown records whether a packet has taken a "down" link yet — the
	// one bit of routing state up*/down* needs (§3.5).
	WentDown bool

	// CreatedAt is the cycle the source generated the flit. ReadyAt is the
	// cycle the flit entered the router's virtual channel memory. HeadAt
	// is the cycle it reached the head of its virtual channel and became
	// "ready to be transmitted through the switch" — the reference point
	// for the paper's delay metric (§5).
	CreatedAt int64
	ReadyAt   int64
	HeadAt    int64
}

// ControlOp is a command encoding carried in a control word along an
// established connection (§4.3): Myrinet-style in-band management.
type ControlOp uint8

// In-band connection-management commands.
const (
	CtlSetBandwidth ControlOp = iota // change allocated cycles/round
	CtlSetPriority                   // change VBR priority
)

// ControlWord precedes each flit on a link, naming the virtual channel the
// following flit belongs to (§3.4) and optionally carrying a management
// command.
type ControlWord struct {
	VC   int
	Op   ControlOp
	Arg  int
	Conn ConnID
}

// String implements fmt.Stringer.
func (f *Flit) String() string {
	return fmt.Sprintf("flit{conn=%d %s created=%d ready=%d}", f.Conn, f.Class, f.CreatedAt, f.ReadyAt)
}
