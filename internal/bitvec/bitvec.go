// Package bitvec implements the status bit vectors the MMR uses for
// scheduling decisions (paper §4.1): one bit per virtual channel, updated
// whenever a channel's status changes, combined with wide logical
// operations so a link scheduler can compute sets such as
//
//	flits_available AND credits_available AND NOT CBR_completely_serviced
//
// in a handful of word operations. The paper's point is trading silicon
// (the vectors) for time (parallel bit ops); here the same structure trades
// memory for per-cycle scheduling cost.
package bitvec

import (
	"fmt"
	"math/bits"
	"strings"
)

const (
	wordBits = 64
	// inlineWords is how many words a Vector stores in itself: 256 bits, the
	// paper's VCs per link (§5), so a status vector's length, header and bits
	// are one 64-byte object and reading one is a single cache line.
	inlineWords = 4
)

// Vector is a fixed-length bit vector. The length is set at construction
// and logical operations require equal lengths (mirroring fixed-width
// hardware registers). The zero value is an empty vector of length 0.
//
// A vector of up to 256 bits keeps its words inline, words pointing into the
// vector itself, so a Vector must not be copied once sized: the copy would
// alias the original's bits. go vet's copylocks check enforces it (noCopy).
type Vector struct {
	_      noCopy
	n      int
	words  []uint64
	inline [inlineWords]uint64
}

// noCopy makes go vet's copylocks check reject by-value copies of whatever
// embeds it (the sync package's convention).
type noCopy struct{}

func (*noCopy) Lock()   {}
func (*noCopy) Unlock() {}

// New returns an all-zero vector holding n bits. It panics if n < 0.
func New(n int) *Vector {
	v := new(Vector)
	v.Init(n)
	return v
}

// Init sizes v in place to n all-zero bits — the form for a vector held by
// value inside its owner. It panics if n < 0.
func (v *Vector) Init(n int) {
	if n < 0 {
		panic("bitvec: negative length")
	}
	v.n = n
	v.inline = [inlineWords]uint64{}
	if nw := (n + wordBits - 1) / wordBits; nw <= inlineWords {
		v.words = v.inline[:nw]
	} else {
		v.words = make([]uint64, nw)
	}
}

func (v *Vector) check(i int) {
	if i < 0 || i >= v.n {
		panic(fmt.Sprintf("bitvec: index %d out of range [0,%d)", i, v.n))
	}
}

// Set turns bit i on.
func (v *Vector) Set(i int) {
	v.check(i)
	v.words[i/wordBits] |= 1 << (uint(i) % wordBits)
}

// Clear turns bit i off.
func (v *Vector) Clear(i int) {
	v.check(i)
	v.words[i/wordBits] &^= 1 << (uint(i) % wordBits)
}

// SetTo sets bit i to the given value.
func (v *Vector) SetTo(i int, on bool) {
	if on {
		v.Set(i)
	} else {
		v.Clear(i)
	}
}

// Test reports whether bit i is on.
func (v *Vector) Test(i int) bool {
	v.check(i)
	return v.words[i/wordBits]&(1<<(uint(i)%wordBits)) != 0
}

// Reset turns every bit off.
func (v *Vector) Reset() {
	for i := range v.words {
		v.words[i] = 0
	}
}

// Fill turns every bit on.
func (v *Vector) Fill() {
	for i := range v.words {
		v.words[i] = ^uint64(0)
	}
	v.trim()
}

// trim clears the unused high bits of the last word so Count and iteration
// never see ghost bits.
func (v *Vector) trim() {
	if r := uint(v.n) % wordBits; r != 0 && len(v.words) > 0 {
		v.words[len(v.words)-1] &= (1 << r) - 1
	}
}

// Count returns the number of set bits.
func (v *Vector) Count() int {
	c := 0
	for _, w := range v.words {
		c += bits.OnesCount64(w)
	}
	return c
}

// Any reports whether at least one bit is set.
func (v *Vector) Any() bool {
	for _, w := range v.words {
		if w != 0 {
			return true
		}
	}
	return false
}

func (v *Vector) sameLen(o *Vector) {
	if v.n != o.n {
		panic(fmt.Sprintf("bitvec: length mismatch %d vs %d", v.n, o.n))
	}
}

// copyFrom overwrites v with the contents of src.
func (v *Vector) copyFrom(src *Vector) {
	v.sameLen(src)
	copy(v.words, src.words)
}

// clone returns an independent copy of v.
func (v *Vector) clone() *Vector {
	c := New(v.n)
	copy(c.words, v.words)
	return c
}

// And sets v = a AND b. v may alias a or b.
func (v *Vector) And(a, b *Vector) {
	a.sameLen(b)
	v.sameLen(a)
	for i := range v.words {
		v.words[i] = a.words[i] & b.words[i]
	}
}

// Or sets v = a OR b. v may alias a or b.
func (v *Vector) Or(a, b *Vector) {
	a.sameLen(b)
	v.sameLen(a)
	for i := range v.words {
		v.words[i] = a.words[i] | b.words[i]
	}
}

// andNot sets v = a AND NOT b. v may alias a or b.
func (v *Vector) andNot(a, b *Vector) {
	a.sameLen(b)
	v.sameLen(a)
	for i := range v.words {
		v.words[i] = a.words[i] &^ b.words[i]
	}
}

// not sets v = NOT a (within the vector length). v may alias a.
func (v *Vector) not(a *Vector) {
	v.sameLen(a)
	for i := range v.words {
		v.words[i] = ^a.words[i]
	}
	v.trim()
}

// NextSet returns the index of the first set bit at or after from, or -1
// if none. A hardware priority encoder performs the same job in one cycle.
func (v *Vector) NextSet(from int) int {
	if from < 0 {
		from = 0
	}
	if from >= v.n {
		return -1
	}
	wi := from / wordBits
	w := v.words[wi] >> (uint(from) % wordBits)
	if w != 0 {
		return from + bits.TrailingZeros64(w)
	}
	for wi++; wi < len(v.words); wi++ {
		if v.words[wi] != 0 {
			return wi*wordBits + bits.TrailingZeros64(v.words[wi])
		}
	}
	return -1
}

// nextSetWrap returns the first set bit at or after from, wrapping to the
// start of the vector. It returns -1 if the vector is empty of set bits.
func (v *Vector) nextSetWrap(from int) int {
	if v.n == 0 {
		return -1
	}
	from %= v.n
	if from < 0 {
		from += v.n
	}
	if i := v.NextSet(from); i >= 0 {
		return i
	}
	return v.NextSet(0)
}

// NextClearWrap returns the first clear bit at or after from, wrapping to
// the start of the vector, or -1 if every bit is set.
func (v *Vector) NextClearWrap(from int) int {
	if v.n == 0 {
		return -1
	}
	from %= v.n
	if from < 0 {
		from += v.n
	}
	if i := v.nextClear(from); i >= 0 {
		return i
	}
	return v.nextClear(0)
}

// nextClear returns the first clear bit at or after from (< Len), or -1.
func (v *Vector) nextClear(from int) int {
	mask := ^uint64(0) << (uint(from) % wordBits) // bits below from, in its word, do not count
	for wi := from / wordBits; wi < len(v.words); wi++ {
		if w := ^v.words[wi] & mask; w != 0 {
			if i := wi*wordBits + bits.TrailingZeros64(w); i < v.n {
				return i
			}
			return -1 // only the unused high bits of the last word are clear
		}
		mask = ^uint64(0)
	}
	return -1
}

// ForEach calls fn with the index of every set bit, in ascending order.
// Returning false from fn stops the iteration early.
func (v *Vector) ForEach(fn func(i int) bool) {
	for wi, w := range v.words {
		for w != 0 {
			i := wi*wordBits + bits.TrailingZeros64(w)
			if !fn(i) {
				return
			}
			w &= w - 1 // clear lowest set bit
		}
	}
}

// AppendSet appends the indices of all set bits to dst and returns the
// extended slice. It is the allocation-free way to enumerate candidates.
func (v *Vector) AppendSet(dst []int) []int {
	v.ForEach(func(i int) bool {
		dst = append(dst, i)
		return true
	})
	return dst
}

// equal reports whether v and o have the same length and bits.
func (v *Vector) equal(o *Vector) bool {
	if v.n != o.n {
		return false
	}
	for i := range v.words {
		if v.words[i] != o.words[i] {
			return false
		}
	}
	return true
}

// String renders the vector as a 0/1 string, bit 0 first — handy in tests
// and debug traces.
func (v *Vector) String() string {
	var b strings.Builder
	b.Grow(v.n)
	for i := 0; i < v.n; i++ {
		if v.Test(i) {
			b.WriteByte('1')
		} else {
			b.WriteByte('0')
		}
	}
	return b.String()
}
