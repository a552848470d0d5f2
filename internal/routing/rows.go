package routing

// Rows carves fixed-length rows of int32 entries from shared chunks, as
// vcm.Store carves VC records: a Table of one row per port gives a port a
// row of its own the first time an entry is put there, and one make pays
// for a chunk of such rows, not one per port. Until then the port's row is
// the store's blank row, which reads 0 everywhere and is never written, so
// a read needs no branch: an unused port reads as empty.
type Rows struct {
	blank []int32
	chunk []int32 // carved front to back; a fresh chunk replaces an exhausted one
	per   int     // rows per chunk
}

// NewRows returns a store of rows of n ≥ 1 entries, carved per ≥ 1 rows at
// a time, whose entries read 0 until written.
func NewRows(n, per int) *Rows {
	return &Rows{blank: make([]int32, n), per: per}
}

// Table returns a table of ports rows, every one blank.
func (r *Rows) Table(ports int) Table {
	t := Table{rows: make([][]int32, ports), store: r}
	for p := range t.rows {
		t.rows[p] = r.blank
	}
	return t
}

// Table is one row per port, each carved from its Rows store on the port's
// first Put. Every write is a Put or a Clear, which keep the count of
// nonzero entries, so Held costs nothing to ask.
type Table struct {
	rows  [][]int32
	store *Rows
	held  int
}

// At returns entry i of port p's row.
func (t *Table) At(p, i int) int32 { return t.rows[p][i] }

// Put sets entry i of port p's row, which holds 0, to v ≠ 0, first carving
// the port a row of its own if it has none. Put over a held entry counts
// it twice, which the count's reader reports.
func (t *Table) Put(p, i int, v int32) {
	if !t.Carved(p) {
		t.carve(p)
	}
	t.rows[p][i] = v
	t.held++
}

// Clear sets entry i of port p's row back to 0, if it holds another value.
// A blank row holds 0 already, so Clear never writes one.
func (t *Table) Clear(p, i int) {
	if row := t.rows[p]; row[i] != 0 {
		row[i] = 0
		t.held--
	}
}

func (t *Table) carve(p int) {
	r := t.store
	n := len(r.blank)
	if len(r.chunk) < n {
		r.chunk = make([]int32, n*r.per)
	}
	t.rows[p], r.chunk = r.chunk[:n:n], r.chunk[n:]
}

// Held returns how many entries are nonzero.
func (t *Table) Held() int { return t.held }

// Carved reports whether port p has a row of its own.
func (t *Table) Carved(p int) bool { return &t.rows[p][0] != &t.store.blank[0] }
