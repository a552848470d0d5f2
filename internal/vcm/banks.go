package vcm

// banks.go models the timing side of §3.2: flits are low-order interleaved
// across RAM modules, and the bank count must balance memory access time
// against link speed and crossbar delay. The functional FIFO behaviour
// lives in vcm.go; this file answers "how many extra cycles do concurrent
// reads and writes cost for a given bank count?", which drives the A8
// ablation.

// BankModel computes access conflicts for a VCM built from a given number
// of low-order-interleaved banks, each able to perform one access (read or
// write one phit) per phit time.
type BankModel struct {
	Banks        int
	PhitsPerFlit int
}

// NewBankModel returns a model for the given geometry.
func NewBankModel(banks, phitsPerFlit int) BankModel {
	if banks < 1 {
		banks = 1
	}
	if phitsPerFlit < 1 {
		phitsPerFlit = 1
	}
	return BankModel{Banks: banks, PhitsPerFlit: phitsPerFlit}
}

// bankFor returns the bank holding phit number phit of a flit stored at
// flit-aligned address base (low-order interleaving: consecutive phits hit
// consecutive banks).
func (b BankModel) bankFor(base, phit int) int {
	return (base*b.PhitsPerFlit + phit) % b.Banks
}

// FlitAccessPhits returns how many phit times a whole-flit access
// occupies, given that the flit's phits spread across min(banks, phits)
// banks working in parallel: ceil(phits/banks) sequential groups.
func (b BankModel) FlitAccessPhits() int {
	return (b.PhitsPerFlit + b.Banks - 1) / b.Banks
}

// ConcurrentAccessPhits returns the phit times needed to serve nReads
// whole-flit reads and nWrites whole-flit writes in the same flit cycle.
// Each access needs FlitAccessPhits() of every bank it touches; with
// enough banks the accesses pipeline, otherwise they serialize. The model
// is conservative: accesses are assumed to collide maximally, giving an
// upper bound the real interleaved layout can only improve on.
func (b BankModel) ConcurrentAccessPhits(nReads, nWrites int) int {
	total := nReads + nWrites
	if total == 0 {
		return 0
	}
	perAccess := b.FlitAccessPhits()
	// banksPerAccess banks are busy for each access; the bank array can
	// sustain floor(banks/banksPerAccess) accesses in parallel, minimum 1.
	banksPerAccess := b.PhitsPerFlit
	if banksPerAccess > b.Banks {
		banksPerAccess = b.Banks
	}
	parallel := b.Banks / banksPerAccess
	if parallel < 1 {
		parallel = 1
	}
	waves := (total + parallel - 1) / parallel
	return waves * perAccess
}

// MeetsCycleBudget reports whether the bank array can serve one read and
// one write per flit cycle (the steady-state demand of a link that both
// receives and transmits every cycle) within the phit budget of one flit
// cycle. This is the §3.2 design constraint: "the number of memory modules
// and flit size must be selected to balance memory access time, link
// speed, and crossbar switching delay".
func (b BankModel) MeetsCycleBudget() bool {
	return b.ConcurrentAccessPhits(1, 1) <= b.PhitsPerFlit
}
