package checkpoint

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

func TestEncoderDecoderRoundTrip(t *testing.T) {
	e := NewEncoder()
	e.U8(0xab)
	e.U16(0xbeef)
	e.U32(0xdeadbeef)
	e.U64(0x0123456789abcdef)
	e.I64(-42)
	e.Int(-7)
	e.F64(3.14159)
	e.F64(math.Inf(-1))
	e.F64(math.Copysign(0, -1))
	e.Bool(true)
	e.Bool(false)
	e.String("hello, fabric")

	d := NewDecoder(e.Bytes())
	if got := d.U8(); got != 0xab {
		t.Errorf("U8 = %#x", got)
	}
	if got := d.U16(); got != 0xbeef {
		t.Errorf("U16 = %#x", got)
	}
	if got := d.U32(); got != 0xdeadbeef {
		t.Errorf("U32 = %#x", got)
	}
	if got := d.U64(); got != 0x0123456789abcdef {
		t.Errorf("U64 = %#x", got)
	}
	if got := d.I64(); got != -42 {
		t.Errorf("I64 = %d", got)
	}
	if got := d.Int(); got != -7 {
		t.Errorf("Int = %d", got)
	}
	if got := d.F64(); got != 3.14159 {
		t.Errorf("F64 = %v", got)
	}
	if got := d.F64(); !math.IsInf(got, -1) {
		t.Errorf("F64 inf = %v", got)
	}
	if got := d.F64(); math.Float64bits(got) != math.Float64bits(math.Copysign(0, -1)) {
		t.Errorf("F64 -0 bits = %v", got)
	}
	if got := d.Bool(); !got {
		t.Errorf("Bool = %v", got)
	}
	if got := d.Bool(); got {
		t.Errorf("Bool = %v", got)
	}
	if got := d.String(); got != "hello, fabric" {
		t.Errorf("String = %q", got)
	}
	if d.Err() != nil {
		t.Fatalf("decode error: %v", d.Err())
	}
	if d.Remaining() != 0 {
		t.Errorf("remaining = %d", d.Remaining())
	}
}

func TestDecoderStickyError(t *testing.T) {
	d := NewDecoder([]byte{1, 2})
	_ = d.U64() // short read
	if d.Err() == nil {
		t.Fatal("expected truncation error")
	}
	// Subsequent reads must return zeros and not panic.
	if got := d.U32(); got != 0 {
		t.Errorf("U32 after error = %d", got)
	}
	if got := d.String(); got != "" {
		t.Errorf("String after error = %q", got)
	}
}

func TestSealOpenRoundTrip(t *testing.T) {
	payload := []byte("fabric state goes here")
	data := Seal(0xfeedface, payload)
	ver, hash, got, err := Open(data)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	if ver != Version {
		t.Errorf("version = %d, want %d", ver, Version)
	}
	if hash != 0xfeedface {
		t.Errorf("hash = %#x", hash)
	}
	if string(got) != string(payload) {
		t.Errorf("payload = %q", got)
	}
}

func TestOpenRejectsCorruption(t *testing.T) {
	payload := []byte("some state")
	data := Seal(7, payload)

	// Truncated.
	if _, _, _, err := Open(data[:len(data)-3]); err == nil {
		t.Error("expected error for truncated file")
	}
	// Short header.
	if _, _, _, err := Open(data[:10]); err == nil {
		t.Error("expected error for short header")
	}
	// Flipped payload byte breaks the CRC.
	bad := append([]byte(nil), data...)
	bad[len(bad)-1] ^= 0xff
	if _, _, _, err := Open(bad); err == nil || !strings.Contains(err.Error(), "CRC") {
		t.Errorf("expected CRC error, got %v", err)
	}
	// Bad magic.
	bad = append([]byte(nil), data...)
	bad[0] = 'X'
	if _, _, _, err := Open(bad); err == nil || !strings.Contains(err.Error(), "magic") {
		t.Errorf("expected magic error, got %v", err)
	}
	// Unknown version.
	bad = append([]byte(nil), data...)
	bad[8] = 0xff
	if _, _, _, err := Open(bad); err == nil || !strings.Contains(err.Error(), "version") {
		t.Errorf("expected version error, got %v", err)
	}
	// The previous format version is refused too: nothing older than the
	// current version decodes.
	bad = append([]byte(nil), data...)
	bad[8] = byte(Version - 1)
	if _, _, _, err := Open(bad); err == nil || !strings.Contains(err.Error(), fmt.Sprintf("version %d", Version-1)) {
		t.Errorf("expected version error for a version-%d file, got %v", Version-1, err)
	}
}

func TestWriteFileAtomicAndReadBack(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "fabric.ckpt")
	payload := []byte("checkpoint one")
	if err := WriteFile(path, 99, payload); err != nil {
		t.Fatalf("WriteFile: %v", err)
	}
	got, ver, err := ReadFile(path, 99)
	if err != nil {
		t.Fatalf("ReadFile: %v", err)
	}
	if string(got) != string(payload) {
		t.Errorf("payload = %q", got)
	}
	if ver != Version {
		t.Errorf("version = %d, want %d", ver, Version)
	}
	// Overwrite with a second checkpoint; the rename must replace it.
	if err := WriteFile(path, 99, []byte("checkpoint two")); err != nil {
		t.Fatalf("WriteFile overwrite: %v", err)
	}
	got, _, err = ReadFile(path, 99)
	if err != nil {
		t.Fatalf("ReadFile after overwrite: %v", err)
	}
	if string(got) != "checkpoint two" {
		t.Errorf("payload = %q", got)
	}
	// No temp droppings left behind.
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		t.Errorf("directory has %d entries, want just the checkpoint", len(entries))
	}
	// Hash mismatch rejected.
	if _, _, err := ReadFile(path, 100); err == nil {
		t.Error("expected configuration-hash mismatch error")
	}
}

// record is a payload described once, for TestCodecBothDirections.
type record struct {
	a    int64
	b    int
	f    float64
	ok   bool
	s    string
	tag  uint8
	code uint16
	seed uint64
	idx  int
	xs   []int
}

func (r *record) walk(c *Codec) {
	c.I64(&r.a)
	c.Int(&r.b)
	c.F64(&r.f)
	c.Bool(&r.ok)
	c.String(&r.s)
	c.U8(&r.tag)
	c.U16(&r.code)
	c.U64(&r.seed)
	c.Range(&r.idx, -1, 8, "index")
	k := c.Count(len(r.xs), "xs")
	for i := 0; i < k; i++ {
		if c.Decoding() {
			r.xs = append(r.xs, 0)
		}
		c.Int(&r.xs[i])
	}
}

// TestCodecBothDirections: one description written through an Encoder
// reads back through a Decoder to the same values, the bytes are the
// Encoder's own, and a value or count outside its bounds is an error
// that leaves something safe behind, not a panic.
func TestCodecBothDirections(t *testing.T) {
	in := record{a: -7, b: 1 << 40, f: math.Copysign(0, -1), ok: true, s: "mmr", tag: 9, code: 515, seed: 1 << 63, idx: -1, xs: []int{3, 1, 4}}
	e := NewEncoder()
	in.walk(Writing(e))

	want := NewEncoder()
	want.I64(in.a)
	want.Int(in.b)
	want.F64(in.f)
	want.Bool(in.ok)
	want.String(in.s)
	want.U8(in.tag)
	want.U16(in.code)
	want.U64(in.seed)
	want.Int(in.idx)
	want.Int(len(in.xs))
	for _, x := range in.xs {
		want.Int(x)
	}
	if string(e.Bytes()) != string(want.Bytes()) {
		t.Fatalf("the codec wrote %d bytes that differ from the encoder's %d", e.Len(), want.Len())
	}

	var out record
	c := Reading(NewDecoder(e.Bytes()))
	out.walk(c)
	if err := c.Err(); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(in, out) || math.Signbit(out.f) != math.Signbit(in.f) {
		t.Fatalf("read back %+v, wrote %+v", out, in)
	}

	// An index outside its range, a count larger than the payload, and a
	// truncated payload: each is an error, reads as something in bounds,
	// and stops the walk's loops.
	for name, mutate := range map[string]func(r *record, b []byte) []byte{
		"index": func(r *record, b []byte) []byte { r.idx = 8; return nil },
		"count": func(r *record, b []byte) []byte { return append(b[:len(b)-32], 0xff, 0xff, 0xff, 0x7f, 0, 0, 0, 0) },
		"short": func(r *record, b []byte) []byte { return b[:20] },
	} {
		bad := in
		payload := mutate(&bad, append([]byte(nil), e.Bytes()...))
		if payload == nil {
			e2 := NewEncoder()
			bad.walk(Writing(e2))
			payload = e2.Bytes()
		}
		var got record
		c := Reading(NewDecoder(payload))
		got.walk(c)
		if c.Err() == nil {
			t.Errorf("%s: no error", name)
		}
		if got.idx < -1 || got.idx >= 8 || len(got.xs) > len(in.xs) {
			t.Errorf("%s: read idx %d and %d elements past the error", name, got.idx, len(got.xs))
		}
	}
}

// TestEncoderChunks: values that meet a chunk's end — every fixed-width
// leaf at each offset across the first chunk's edge, and byte strings longer
// than a whole chunk — encode to what one growing buffer would hold, and
// Bytes and Len say so however often they are called, writes between them
// included.
func TestEncoderChunks(t *testing.T) {
	long := strings.Repeat("mmr", ChunkSize) // longer than any chunk the encoder starts
	leaves := []struct {
		name string
		put  func(*Encoder)
		want func([]byte) []byte
	}{
		{"U8", func(e *Encoder) { e.U8(0xab) }, func(b []byte) []byte { return append(b, 0xab) }},
		{"U16", func(e *Encoder) { e.U16(0xbeef) }, func(b []byte) []byte { return binary.LittleEndian.AppendUint16(b, 0xbeef) }},
		{"U32", func(e *Encoder) { e.U32(0xdeadbeef) }, func(b []byte) []byte { return binary.LittleEndian.AppendUint32(b, 0xdeadbeef) }},
		{"U64", func(e *Encoder) { e.U64(0x0123456789abcdef) }, func(b []byte) []byte { return binary.LittleEndian.AppendUint64(b, 0x0123456789abcdef) }},
		{"F64", func(e *Encoder) { e.F64(math.Pi) }, func(b []byte) []byte { return binary.LittleEndian.AppendUint64(b, math.Float64bits(math.Pi)) }},
		{"String", func(e *Encoder) { e.String(long) }, func(b []byte) []byte { return append(binary.LittleEndian.AppendUint32(b, uint32(len(long))), long...) }},
	}
	const first = 16 // the first chunk, as a Grow hint sizes it
	for _, l := range leaves {
		for fill := 0; fill <= first; fill++ {
			e, want := NewEncoder(), []byte(nil)
			e.Grow(first)
			for i := 0; i < fill; i++ {
				e.U8(byte(i))
				want = append(want, byte(i))
			}
			l.put(e)
			want = l.want(want)
			for call := 0; call < 3; call++ {
				if call == 2 { // a write after Bytes lands after what it returned
					e.U32(7)
					want = binary.LittleEndian.AppendUint32(want, 7)
				}
				if e.Len() != len(want) {
					t.Fatalf("%s after %d bytes: Len %d, want %d", l.name, fill, e.Len(), len(want))
				}
				if got := e.Bytes(); !bytes.Equal(got, want) {
					t.Fatalf("%s after %d bytes: Bytes call %d differs from one growing buffer's (%d vs %d bytes)", l.name, fill, call+1, len(got), len(want))
				}
			}
		}
	}
}

// TestWriteFileMatchesSeal: WriteFile writes the header and then the
// payload, and the file is Seal's envelope byte for byte, which ReadFile
// opens back to the payload.
func TestWriteFileMatchesSeal(t *testing.T) {
	payload := make([]byte, 3*ChunkSize/2)
	for i := range payload {
		payload[i] = byte(i * 31)
	}
	for _, p := range [][]byte{payload, nil} {
		path := filepath.Join(t.TempDir(), "fabric.ckpt")
		if err := WriteFile(path, 0xfeedface, p); err != nil {
			t.Fatal(err)
		}
		file, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(file, Seal(0xfeedface, p)) {
			t.Fatalf("the %d-byte payload's file differs from its sealed envelope", len(p))
		}
		got, _, err := ReadFile(path, 0xfeedface)
		if err != nil || !bytes.Equal(got, p) {
			t.Fatalf("ReadFile returned %d bytes (%v), want the %d-byte payload", len(got), err, len(p))
		}
	}
}
