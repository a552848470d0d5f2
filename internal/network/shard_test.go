package network

import (
	"bytes"
	"testing"

	"mmr/internal/topology"
)

// shardScenario runs the detScenario workload under an explicit
// workers × gating combination and returns the final encoded fabric
// state. Byte equality of that blob across combinations is the
// strongest equivalence check the engine offers: it covers VC state,
// queue contents, session tables, RNG cursors, and statistics.
func shardScenario(t *testing.T, workers int, noIdleSkip, withFaults bool) []byte {
	t.Helper()
	n := buildDetNetwork(t, workers, withFaults)
	defer n.Shutdown()
	n.cfg.NoIdleSkip = noIdleSkip
	n.Run(2200)
	blob, err := n.EncodeState()
	if err != nil {
		t.Fatal(err)
	}
	return blob
}

// TestShardMatrixEquivalence: the shard-resident executor is bit-exact
// for every workers × gating combination, clean and faulted. The
// reference is the serial gated run; every other combination must
// reproduce its encoded state byte for byte.
func TestShardMatrixEquivalence(t *testing.T) {
	for _, withFaults := range []bool{false, true} {
		name := "clean"
		if withFaults {
			name = "faults"
		}
		t.Run(name, func(t *testing.T) {
			ref := shardScenario(t, 1, false, withFaults)
			for _, workers := range []int{1, 2, 4} {
				for _, noIdleSkip := range []bool{false, true} {
					if workers == 1 && !noIdleSkip {
						continue // the reference itself
					}
					got := shardScenario(t, workers, noIdleSkip, withFaults)
					if !bytes.Equal(ref, got) {
						t.Errorf("w=%d noIdleSkip=%v: state diverged from serial reference (%d vs %d bytes)",
							workers, noIdleSkip, len(ref), len(got))
					}
				}
			}
		})
	}
}

// TestBoundaryEdgeClassifier cross-checks the partition-time
// interior/boundary classification against an independent walk of the
// static wiring, on a mesh and on both region-structured fabrics.
func TestBoundaryEdgeClassifier(t *testing.T) {
	fabrics := []struct {
		name string
		tp   func() (*topology.Topology, error)
	}{
		{"mesh", func() (*topology.Topology, error) { return topology.Mesh(4, 4, 4) }},
		{"fattree", func() (*topology.Topology, error) { return topology.FatTree(4) }},
		{"dragonfly", func() (*topology.Topology, error) { return topology.Dragonfly(4, 2, 3) }},
	}
	for _, f := range fabrics {
		t.Run(f.name, func(t *testing.T) {
			tp, err := f.tp()
			if err != nil {
				t.Fatal(err)
			}
			cfg := DefaultConfig(tp)
			cfg.VCs = 8
			n, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer n.Shutdown()
			for _, s := range []int{1, 2, 4} {
				n.SetWorkers(s)
				gotShards, gotInterior, gotBoundary := n.ShardLayout()
				if gotShards != s {
					t.Fatalf("SetWorkers(%d): ShardLayout reports %d shards", s, gotShards)
				}
				if gotInterior+gotBoundary != tp.Nodes {
					t.Fatalf("s=%d: interior %d + boundary %d != %d nodes",
						s, gotInterior, gotBoundary, tp.Nodes)
				}
				// Independent classification: a node is interior iff every
				// wired link (the wiring is symmetric, so scanning the
				// node's own ports covers both directions) stays inside
				// its shard.
				wantBoundary := 0
				for id := 0; id < tp.Nodes; id++ {
					boundary := false
					for p := 0; p < tp.Ports; p++ {
						nb := tp.Wired(id, p)
						if nb >= 0 && n.ShardOf(nb) != n.ShardOf(id) {
							boundary = true
							break
						}
					}
					if boundary {
						wantBoundary++
					}
				}
				if gotBoundary != wantBoundary {
					t.Fatalf("s=%d: ShardLayout boundary %d, wiring walk says %d",
						s, gotBoundary, wantBoundary)
				}
				if s == 1 && gotBoundary != 0 {
					t.Fatalf("single shard must have zero boundary nodes, got %d", gotBoundary)
				}
				for id := 0; id < tp.Nodes; id++ {
					if sh := n.ShardOf(id); sh < 0 || sh >= s {
						t.Fatalf("s=%d: ShardOf(%d) = %d out of range", s, id, sh)
					}
				}
			}
		})
	}
}
