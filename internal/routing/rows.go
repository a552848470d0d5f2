package routing

// Rows carves fixed-length rows from shared chunks, as vcm.Store carves VC
// records: a Table of one row per port gives a port a row of its own the
// first time an entry is put there, and one
// make pays for a chunk of such rows, not one per port. Until then the
// port's row is the store's blank row, which holds the fill value everywhere
// and is never written, so a read needs no branch: an unused port reads as
// empty.
type Rows[T comparable] struct {
	blank []T
	fill  T
	chunk []T // carved front to back; a fresh chunk replaces an exhausted one
	per   int // rows per chunk
}

// NewRows returns a store of rows of n ≥ 1 entries, carved per ≥ 1 rows at
// a time, whose entries read fill until written.
func NewRows[T comparable](n, per int, fill T) *Rows[T] {
	r := &Rows[T]{fill: fill, per: per}
	r.blank = r.fresh(n)
	return r
}

// fresh returns k entries of fill.
func (r *Rows[T]) fresh(k int) []T {
	s := make([]T, k)
	var zero T
	if r.fill != zero {
		for i := range s {
			s[i] = r.fill
		}
	}
	return s
}

// Table returns a table of ports rows, every one blank.
func (r *Rows[T]) Table(ports int) Table[T] {
	t := Table[T]{rows: make([][]T, ports), store: r, blank: &r.blank[0]}
	for p := range t.rows {
		t.rows[p] = r.blank
	}
	return t
}

// Table is one row per port, each carved from its Rows store on the port's
// first Put. Every write is a Put or a Clear, which keep the count of entries
// that differ from the fill value, so Held costs nothing to ask.
type Table[T comparable] struct {
	rows  [][]T
	store *Rows[T]
	blank *T // the store's blank row, which an uncarved row starts at
	held  int
}

// At returns entry i of port p's row.
func (t *Table[T]) At(p, i int) T { return t.rows[p][i] }

// Put sets entry i of port p's row, which holds the fill value, to v, which
// does not, first carving the port a row of its own if it has none. Put over
// a held entry counts it twice, which the count's reader reports.
func (t *Table[T]) Put(p, i int, v T) {
	if !t.Carved(p) {
		t.carve(p)
	}
	t.rows[p][i] = v
	t.held++
}

// Clear sets entry i of port p's row back to the fill value, if it holds
// another. A blank row holds it already, so Clear never writes one.
func (t *Table[T]) Clear(p, i int) {
	if row := t.rows[p]; row[i] != t.store.fill {
		row[i] = t.store.fill
		t.held--
	}
}

func (t *Table[T]) carve(p int) {
	r := t.store
	n := len(r.blank)
	if len(r.chunk) < n {
		r.chunk = r.fresh(n * r.per)
	}
	t.rows[p], r.chunk = r.chunk[:n:n], r.chunk[n:]
}

// Held returns how many entries differ from the fill value.
func (t *Table[T]) Held() int { return t.held }

// Carved reports whether port p has a row of its own.
func (t *Table[T]) Carved(p int) bool { return &t.rows[p][0] != t.blank }
