package network

import (
	"fmt"
	"runtime"
	"testing"

	"mmr/internal/checkpoint"
)

// allocated returns the bytes and the objects fn allocates.
func allocated(fn func()) (bytes, objects uint64) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc, after.Mallocs - before.Mallocs
}

// TestEncodeStateAllocs: a checkpoint of the loaded fat tree — the dense
// toy, and fabric_dense's FatTree(16) outside -short — costs about one
// payload. The first EncodeState, its size guessed low, fills chunks and
// joins them once: at most 2.25× the payload plus one chunk (a buffer grown
// by append took 5.3× on FatTree(16)). A second, sized by the first, is one
// allocation: at most 1.15×.
func TestEncodeStateAllocs(t *testing.T) {
	for _, k := range []int{4, 16} {
		t.Run(fmt.Sprintf("FatTree(%d)", k), func(t *testing.T) {
			if k > 4 && testing.Short() {
				t.Skip("FatTree(16) under load is slow under -short")
			}
			n := buildDense(t, k, false)
			n.Run(300)
			for i, ratio := range []float64{2.25, 1.15} {
				var payload []byte
				var err error
				b, _ := allocated(func() { payload, err = n.EncodeState() })
				if err != nil {
					t.Fatal(err)
				}
				limit := ratio * float64(len(payload))
				if i == 0 {
					limit += checkpoint.ChunkSize
				}
				t.Logf("EncodeState %d: %d-byte payload, %d bytes allocated (%.2f×)", i+1, len(payload), b, float64(b)/float64(len(payload)))
				if float64(b) > limit {
					t.Errorf("EncodeState %d allocated %d bytes for a %d-byte payload, more than %.0f", i+1, b, len(payload), limit)
				}
			}
		})
	}
}

// TestRestoreStateAllocs: a restored connection's record and route are
// carved from the fabric's arenas, as a new session's are, and an empty
// sequence costs its walk nothing, so a restore of the loaded fat tree
// allocates a few objects a connection — its source, its flits, its share
// of the port storage and tables. Measured 3.5 on the dense toy and 4.0 on
// FatTree(16), where a fresh record and element-by-element appends took
// 16.6 and 18.6.
func TestRestoreStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("a build with the race detector allocates about twice the objects here (8.0 a connection on FatTree(16)); the bound is for one without it")
	}
	const maxPerConn = 4.5
	for _, k := range []int{4, 16} {
		t.Run(fmt.Sprintf("FatTree(%d)", k), func(t *testing.T) {
			if k > 4 && testing.Short() {
				t.Skip("FatTree(16) under load is slow under -short")
			}
			src := buildDense(t, k, false)
			src.Run(300)
			payload, err := src.EncodeState()
			if err != nil {
				t.Fatal(err)
			}
			n, _, _, _ := fatTreeFabric(t, k, k, false)
			b, objects := allocated(func() { err = n.RestoreState(payload) })
			if err != nil {
				t.Fatal(err)
			}
			per := float64(objects) / float64(len(n.conns))
			t.Logf("%d connections restored from %d bytes: %d bytes, %d objects allocated (%.1f a connection)", len(n.conns), len(payload), b, objects, per)
			if per > maxPerConn {
				t.Errorf("restore allocated %.1f objects a connection, more than %g", per, maxPerConn)
			}
		})
	}
}
