// Package checkpoint implements the on-disk format for fabric
// snapshots: a little-endian binary payload wrapped in a versioned,
// checksummed envelope, written atomically (temp file + rename) so a
// crash mid-write can never leave a torn checkpoint behind.
//
// The envelope carries a configuration hash so a checkpoint taken
// under one fabric geometry cannot be restored into an incompatible
// one; the hash deliberately excludes the execution-strategy knob (idle
// gating) because restores across it must be bit-identical. It also
// carries the format version, and a build opens only its own (Version):
// there is no migration path, so an older file is refused whole.
package checkpoint

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math"
	"os"
	"path/filepath"
)

// Version is the checkpoint format version, the only one this build reads
// or writes: a file of any other version is refused by Open before any
// state is touched. Bump it on any incompatible payload layout change.
// Version 6 walks a flit as the fields the model reads of it, a packet's
// routing bit among them, with no packet record, flit type, sequence
// number or port tags, and no connection or router sequence counter.
// Version 5 walks every field where it belongs — a connection's and an
// open retry's tenant with the rest of it, the quota table and the
// re-promotion generation as a section of their own — with no trailer and
// no retired per-VC bias word. Version 4 appended tenant owners, quotas
// and the re-promotion bookkeeping as a trailer; version 3 numbered
// jitter-tracker records per destination; version 2 added best-effort flow
// owner IDs.
const Version uint32 = 6

// magic identifies a checkpoint file. 8 bytes: "MMRCKPT" + NUL.
var magic = [8]byte{'M', 'M', 'R', 'C', 'K', 'P', 'T', 0}

// Encoder appends primitive values to a payload kept in chunks. All
// integers are little-endian and fixed-width so the format is
// platform-independent.
//
// A written byte never moves until Bytes: when the chunk being filled has
// no room for a value, it is set aside as it is and a new one started
// (sized like what has been written so far, at most ChunkSize), so a
// payload of unknown size costs its chunks plus one joined copy, not a
// growing buffer's series of copies.
type Encoder struct {
	buf  []byte   // the chunk being filled
	full [][]byte // the chunks set aside, in order
	n    int      // bytes in full
}

// ChunkSize is the largest chunk an Encoder starts on its own; Grow, or a
// byte string longer than that, may ask for a larger one.
const ChunkSize = 1 << 20

// NewEncoder returns an empty encoder.
func NewEncoder() *Encoder { return &Encoder{} }

// Grow makes room for n more bytes in one chunk, so a caller that knows
// roughly how large its payload will be pays for one allocation and Bytes
// for no copy.
func (e *Encoder) Grow(n int) {
	if cap(e.buf)-len(e.buf) < n {
		e.next(n)
	}
}

// next sets the current chunk aside and starts one with room for at
// least need bytes.
func (e *Encoder) next(need int) {
	if len(e.buf) > 0 {
		e.full = append(e.full, e.buf)
		e.n += len(e.buf)
	}
	e.buf = make([]byte, 0, max(need, min(max(e.n, 4096), ChunkSize)))
}

// raw appends b, filling the current chunk before starting the next.
func (e *Encoder) raw(b string) {
	for len(b) > 0 {
		if len(e.buf) == cap(e.buf) {
			e.next(len(b))
		}
		k := copy(e.buf[len(e.buf):cap(e.buf)], b)
		e.buf, b = e.buf[:len(e.buf)+k], b[k:]
	}
}

// Bytes returns the encoded payload: the one chunk, or every chunk joined
// once into a buffer that then stands for them all.
func (e *Encoder) Bytes() []byte {
	if len(e.full) > 0 {
		out := make([]byte, 0, e.Len())
		for _, c := range e.full {
			out = append(out, c...)
		}
		e.buf, e.full, e.n = append(out, e.buf...), nil, 0
	}
	return e.buf
}

// Len returns the encoded payload size.
func (e *Encoder) Len() int { return e.n + len(e.buf) }

// U8 appends one byte.
func (e *Encoder) U8(v uint8) {
	e.Grow(1)
	e.buf = append(e.buf, v)
}

// U16 appends a uint16.
func (e *Encoder) U16(v uint16) {
	e.Grow(2)
	e.buf = binary.LittleEndian.AppendUint16(e.buf, v)
}

// U32 appends a uint32.
func (e *Encoder) U32(v uint32) {
	e.Grow(4)
	e.buf = binary.LittleEndian.AppendUint32(e.buf, v)
}

// U64 appends a uint64.
func (e *Encoder) U64(v uint64) {
	e.Grow(8)
	e.buf = binary.LittleEndian.AppendUint64(e.buf, v)
}

// I64 appends an int64.
func (e *Encoder) I64(v int64) { e.U64(uint64(v)) }

// Int appends an int as int64.
func (e *Encoder) Int(v int) { e.I64(int64(v)) }

// F64 appends a float64 by bit pattern, preserving NaN payloads and
// signed zeros so restores are bit-exact.
func (e *Encoder) F64(v float64) { e.U64(math.Float64bits(v)) }

// Bool appends a bool as one byte.
func (e *Encoder) Bool(v bool) {
	if v {
		e.U8(1)
	} else {
		e.U8(0)
	}
}

// String appends a length-prefixed UTF-8 string.
func (e *Encoder) String(s string) {
	e.U32(uint32(len(s)))
	e.raw(s)
}

// Decoder reads primitive values back out of a payload. Errors are
// sticky: after the first short read every subsequent call returns the
// zero value, and Err reports the failure, so decode paths need only
// one error check at the end.
type Decoder struct {
	buf []byte
	off int
	err error
}

// NewDecoder returns a decoder over payload.
func NewDecoder(payload []byte) *Decoder { return &Decoder{buf: payload} }

// Err returns the first decoding error, or nil.
func (d *Decoder) Err() error { return d.err }

// Remaining returns the unread byte count.
func (d *Decoder) Remaining() int { return len(d.buf) - d.off }

// zeros is what a read past the payload's end yields.
var zeros [8]byte

// take consumes the next n bytes. Past the payload's end it records the
// error and returns zeros instead — as many as a fixed-width read takes —
// so every read after it yields its zero value.
func (d *Decoder) take(n int) []byte {
	if d.err == nil && d.off+n > len(d.buf) {
		d.err = fmt.Errorf("checkpoint: truncated payload (want %d bytes at offset %d of %d)", n, d.off, len(d.buf))
	}
	if d.err != nil {
		return zeros[:min(n, len(zeros))]
	}
	b := d.buf[d.off : d.off+n]
	d.off += n
	return b
}

// U8 reads one byte.
func (d *Decoder) U8() uint8 { return d.take(1)[0] }

// U16 reads a uint16.
func (d *Decoder) U16() uint16 { return binary.LittleEndian.Uint16(d.take(2)) }

// U32 reads a uint32.
func (d *Decoder) U32() uint32 { return binary.LittleEndian.Uint32(d.take(4)) }

// U64 reads a uint64.
func (d *Decoder) U64() uint64 { return binary.LittleEndian.Uint64(d.take(8)) }

// I64 reads an int64.
func (d *Decoder) I64() int64 { return int64(d.U64()) }

// Int reads an int encoded as int64.
func (d *Decoder) Int() int { return int(d.I64()) }

// F64 reads a float64 by bit pattern.
func (d *Decoder) F64() float64 { return math.Float64frombits(d.U64()) }

// Bool reads a bool.
func (d *Decoder) Bool() bool { return d.U8() != 0 }

// String reads a length-prefixed string.
func (d *Decoder) String() string {
	b := d.take(int(d.U32()))
	if d.err != nil {
		return ""
	}
	return string(b)
}

// Codec runs one description of a payload in either direction. Over an
// Encoder each leaf appends the value its argument points at; over a
// Decoder the same call reads that value back into it. A format written
// as a sequence of leaf calls therefore has one definition, and the
// writer and the reader cannot disagree about field order or width.
//
// Errors are sticky, as in Decoder: after a short read or a failed check
// every later leaf yields the zero value (Range one inside its bounds,
// so what it guards stays safe to index by) and Count yields 0, so a
// walk may run on to its end and test Err once.
type Codec struct {
	e   *Encoder
	d   *Decoder
	err error
}

// Writing returns a codec that appends to e.
func Writing(e *Encoder) *Codec { return &Codec{e: e} }

// Reading returns a codec that reads from d.
func Reading(d *Decoder) *Codec { return &Codec{d: d} }

// Decoding reports the direction: true when leaves read into their
// arguments.
func (c *Codec) Decoding() bool { return c.d != nil }

// Err returns the first error: a failed check, or the decoder's.
func (c *Codec) Err() error {
	if c.err == nil && c.d != nil {
		return c.d.err
	}
	return c.err
}

// Failf records a format violation unless an error is already set, and
// stops the decoder so that what follows reads as zeros.
func (c *Codec) Failf(format string, args ...any) {
	if c.Err() != nil {
		return
	}
	c.err = fmt.Errorf(format, args...)
	if c.d != nil {
		c.d.err = c.err
	}
}

// leaf is the one place the direction is decided: put appends *p, get
// reads it back.
func leaf[T any](c *Codec, p *T, put func(*Encoder, T), get func(*Decoder) T) {
	if c.d == nil {
		put(c.e, *p)
	} else {
		*p = get(c.d)
	}
}

// U8 walks one byte.
func (c *Codec) U8(p *uint8) { leaf(c, p, (*Encoder).U8, (*Decoder).U8) }

// U16 walks a uint16.
func (c *Codec) U16(p *uint16) { leaf(c, p, (*Encoder).U16, (*Decoder).U16) }

// U64 walks a uint64.
func (c *Codec) U64(p *uint64) { leaf(c, p, (*Encoder).U64, (*Decoder).U64) }

// I64 walks an int64.
func (c *Codec) I64(p *int64) { leaf(c, p, (*Encoder).I64, (*Decoder).I64) }

// Int walks an int as int64.
func (c *Codec) Int(p *int) { leaf(c, p, (*Encoder).Int, (*Decoder).Int) }

// F64 walks a float64 by bit pattern.
func (c *Codec) F64(p *float64) { leaf(c, p, (*Encoder).F64, (*Decoder).F64) }

// Bool walks a bool as one byte.
func (c *Codec) Bool(p *bool) { leaf(c, p, (*Encoder).Bool, (*Decoder).Bool) }

// String walks a length-prefixed string.
func (c *Codec) String(p *string) { leaf(c, p, (*Encoder).String, (*Decoder).String) }

// Count walks the length of a sequence and returns how many elements
// follow: n when encoding, the decoded count when decoding. A decoded
// count must be non-negative and no larger than the bytes that remain
// (every element takes at least one), so a damaged count can drive
// neither a giant loop nor a giant allocation.
func (c *Codec) Count(n int, what string) int { return c.CountOf(n, 1, what) }

// CountOf is Count for a sequence whose elements take width bytes each: a
// decoded count is bounded by the bytes that remain at that width, so a
// caller may allocate the whole sequence up front.
func (c *Codec) CountOf(n, width int, what string) int {
	c.Int(&n)
	if c.d == nil {
		return n
	}
	if n < 0 || n > c.d.Remaining()/width {
		c.Failf("checkpoint: %s count %d is implausible (%d bytes remain)", what, n, c.d.Remaining())
	}
	if c.d.err != nil {
		return 0
	}
	return n
}

// Range walks an int that something will index or size by: a decoded
// value outside [lo, hi) is a format violation and reads as lo.
func (c *Codec) Range(p *int, lo, hi int, what string) {
	c.Int(p)
	if c.d != nil && (*p < lo || *p >= hi) {
		c.Failf("checkpoint: %s %d outside [%d,%d)", what, *p, lo, hi)
		*p = lo
	}
}

// Fixed walks a count the build decides, such as a table's shape: a
// decoded count other than n is a format violation. It is not bounded by
// the bytes that remain, so a payload too short for the table reads as
// truncated.
func (c *Codec) Fixed(n int, what string) {
	k := n
	if c.Int(&k); c.Err() == nil && k != n {
		c.Failf("checkpoint: payload has %d %s, want %d", k, what, n)
	}
}

// I64s and F64s walk a table of the build's shape in place: its length
// (Fixed), then its elements.
func (c *Codec) I64s(xs []int64, what string) {
	c.Fixed(len(xs), what)
	for i := range xs {
		c.I64(&xs[i])
	}
}

func (c *Codec) F64s(xs []float64, what string) {
	c.Fixed(len(xs), what)
	for i := range xs {
		c.F64(&xs[i])
	}
}

// At returns the element a walk starts from: xs[i] when encoding, where xs
// lists a sequence as its owner keeps it, and the zero value when
// decoding, where the leaves fill it in before it is handed to the owner.
func At[T any](c *Codec, xs []T, i int) (x T) {
	if c.d == nil {
		x = xs[i]
	}
	return x
}

// Envelope layout:
//
//	[0:8)   magic "MMRCKPT\0"
//	[8:12)  format version (uint32 LE)
//	[12:20) configuration hash (uint64 LE)
//	[20:28) payload length (uint64 LE)
//	[28:32) CRC32 (IEEE) of payload (uint32 LE)
//	[32:..) payload
const headerLen = 32

// appendHeader appends the envelope's header for payload, at the current
// format version, to dst.
func appendHeader(dst []byte, configHash uint64, payload []byte) []byte {
	dst = append(dst, magic[:]...)
	dst = binary.LittleEndian.AppendUint32(dst, Version)
	dst = binary.LittleEndian.AppendUint64(dst, configHash)
	dst = binary.LittleEndian.AppendUint64(dst, uint64(len(payload)))
	return binary.LittleEndian.AppendUint32(dst, crc32.ChecksumIEEE(payload))
}

// Seal wraps payload in the checkpoint envelope at the current format
// version.
func Seal(configHash uint64, payload []byte) []byte {
	return append(appendHeader(make([]byte, 0, headerLen+len(payload)), configHash, payload), payload...)
}

// Open validates the envelope of data and returns the format version,
// configuration hash and payload. It rejects bad magic, any version but
// Version, truncated files and checksum mismatches.
func Open(data []byte) (version uint32, configHash uint64, payload []byte, err error) {
	if len(data) < headerLen {
		return 0, 0, nil, fmt.Errorf("checkpoint: file too short (%d bytes)", len(data))
	}
	var m [8]byte
	copy(m[:], data[:8])
	if m != magic {
		return 0, 0, nil, fmt.Errorf("checkpoint: bad magic %q", m[:])
	}
	ver := binary.LittleEndian.Uint32(data[8:12])
	if ver != Version {
		return 0, 0, nil, fmt.Errorf("checkpoint: unsupported format version %d (this build reads only version %d)", ver, Version)
	}
	configHash = binary.LittleEndian.Uint64(data[12:20])
	plen := binary.LittleEndian.Uint64(data[20:28])
	wantCRC := binary.LittleEndian.Uint32(data[28:32])
	if uint64(len(data)-headerLen) != plen {
		return 0, 0, nil, fmt.Errorf("checkpoint: payload length mismatch (header says %d, file has %d)", plen, len(data)-headerLen)
	}
	payload = data[headerLen:]
	if got := crc32.ChecksumIEEE(payload); got != wantCRC {
		return 0, 0, nil, fmt.Errorf("checkpoint: CRC mismatch (got %08x, want %08x)", got, wantCRC)
	}
	return ver, configHash, payload, nil
}

// WriteFile atomically writes a sealed checkpoint to path: the bytes
// land in a temp file in the same directory, are fsynced, and are
// renamed over path so concurrent readers see either the old or the
// new checkpoint, never a torn one. The file is Seal's bytes, written
// as the header and then the payload itself, so no sealed copy is built.
func WriteFile(path string, configHash uint64, payload []byte) error {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, ".ckpt-*")
	if err != nil {
		return fmt.Errorf("checkpoint: create temp: %w", err)
	}
	tmpName := tmp.Name()
	defer os.Remove(tmpName) // no-op after successful rename
	for _, b := range [][]byte{appendHeader(nil, configHash, payload), payload} {
		if _, err := tmp.Write(b); err != nil {
			tmp.Close()
			return fmt.Errorf("checkpoint: write temp: %w", err)
		}
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return fmt.Errorf("checkpoint: sync temp: %w", err)
	}
	if err := tmp.Close(); err != nil {
		return fmt.Errorf("checkpoint: close temp: %w", err)
	}
	if err := os.Rename(tmpName, path); err != nil {
		return fmt.Errorf("checkpoint: rename into place: %w", err)
	}
	return nil
}

// ReadFile reads and validates a checkpoint from path, checking the
// configuration hash against wantHash. It returns the payload and the
// format version it was written at.
func ReadFile(path string, wantHash uint64) ([]byte, uint32, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, 0, fmt.Errorf("checkpoint: read %s: %w", path, err)
	}
	ver, gotHash, payload, err := Open(data)
	if err != nil {
		return nil, 0, fmt.Errorf("checkpoint: %s: %w", path, err)
	}
	if gotHash != wantHash {
		return nil, 0, fmt.Errorf("checkpoint: %s was taken under a different fabric configuration (hash %016x, want %016x)", path, gotHash, wantHash)
	}
	return payload, ver, nil
}
