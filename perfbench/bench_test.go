package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// Every workload runs at toy size in both modes: the harness must compile,
// verify its outputs and report exactly the declared metrics.
func TestWorkloadsToy(t *testing.T) {
	outDir = t.TempDir()
	for _, w := range workloads {
		for _, trace := range []bool{false, true} {
			w, trace := w, trace
			name := w.name + "/e2e"
			if trace {
				name = w.name + "/trace"
			}
			t.Run(name, func(t *testing.T) {
				res, err := runWorkload(&w, 3, 0.2, trace, &toySizes)
				if err != nil {
					t.Fatal(err)
				}
				if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
					t.Fatalf("correct=%v attempted=%d failed=%d: %v", res.Correct, res.Attempted, res.Failed, res.Failures)
				}
				for name, m := range res.Metrics {
					if m.Value != m.Value || m.Value > 1e300 || m.Value < -1e300 {
						t.Errorf("%s is not finite: %v", name, m.Value)
					}
				}
				if trace {
					if _, err := os.Stat(filepath.Join(outDir, "trace-"+w.name+".json")); err != nil {
						t.Error(err)
					}
				}
			})
		}
	}
}

// The simulated side of a run is a function of the seed alone: two runs agree
// on the fingerprint and every simulated statistic, whatever the host did, and
// another seed simulates something else.
func TestFingerprintRepeats(t *testing.T) {
	outDir = t.TempDir()
	for _, w := range workloads {
		w := w
		var runs [3]*result
		for i, seed := range []uint64{5, 5, 6} {
			r, err := runWorkload(&w, seed, 0.05, false, &toySizes)
			if err != nil {
				t.Fatal(err)
			}
			runs[i] = r
		}
		if runs[0].Fingerprint != runs[1].Fingerprint || !reflect.DeepEqual(runs[0].Sim, runs[1].Sim) {
			t.Errorf("%s: seed 5 gave %s %v, then %s %v", w.name, runs[0].Fingerprint, runs[0].Sim, runs[1].Fingerprint, runs[1].Sim)
		}
		if runs[2].Fingerprint == runs[0].Fingerprint {
			t.Errorf("%s: seeds 5 and 6 gave the same fingerprint %s", w.name, runs[0].Fingerprint)
		}
	}
}

// manifest is BENCHMARK.json's schema: exactly these keys.
type manifest struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func specManifest() manifest {
	m := manifest{Command: []string{"bash", "perfbench/run.sh"}, Paths: []string{"perfbench"}, RunSeconds: runSeconds, EndToEnd: endToEnd}
	for _, w := range workloads {
		m.Workloads = append(m.Workloads, struct {
			Name string `json:"name"`
			Why  string `json:"why"`
		}{w.name, w.why})
	}
	for _, d := range perLayer {
		m.PerLayer = append(m.PerLayer, struct {
			Name   string `json:"name"`
			Unit   string `json:"unit"`
			Better string `json:"better"`
		}{d.Name, d.Unit, d.Better})
	}
	return m
}

// BENCHMARK.json at the repository root must say what spec.go says. Run with
// PERFBENCH_WRITE_MANIFEST=1 to regenerate it from the code.
func TestManifestMatchesSpec(t *testing.T) {
	want, err := json.MarshalIndent(specManifest(), "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	want = append(want, '\n')
	path := filepath.Join("..", "BENCHMARK.json")
	if os.Getenv("PERFBENCH_WRITE_MANIFEST") != "" {
		if err := os.WriteFile(path, want, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("BENCHMARK.json differs from spec.go; regenerate with PERFBENCH_WRITE_MANIFEST=1 go test -run TestManifestMatchesSpec")
	}
	for _, w := range workloads {
		if len(w.why) > 200 {
			t.Errorf("%s: why is %d characters, over 200", w.name, len(w.why))
		}
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles([1, 2, 4, 8, 16, 32, 64, 128, 256, 512], n=4)
	q1, q2, q3 := quartiles([]float64{512, 1, 2, 4, 8, 16, 32, 64, 128, 256})
	if q1 != 3.5 || q2 != 24 || q3 != 160 {
		t.Errorf("quartiles = %v %v %v, want 3.5 24 160", q1, q2, q3)
	}
}

func TestCompare(t *testing.T) {
	write := func(dir string, seed uint64, cycles float64, fp string) {
		r := result{Workload: "paper_sweep", Seed: seed, Fingerprint: fp, Metrics: map[string]metric{}, Sim: map[string]float64{}}
		for _, d := range endToEnd {
			r.Metrics[d.Name] = metric{1, d.Unit}
		}
		r.Metrics["sim_cycles_per_s"] = metric{cycles, "cycles/s"}
		raw, _ := json.Marshal(r)
		if err := os.WriteFile(filepath.Join(dir, "result-paper_sweep-seed"+string(rune('0'+seed))+"-e2e.json"), raw, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	a, b, c := t.TempDir(), t.TempDir(), t.TempDir()
	for seed := uint64(1); seed <= 3; seed++ {
		write(a, seed, 1000, "aa")
		write(b, seed, 950, "aa") // 5 % slower: inside the bound
		write(c, seed, 600, "bb") // 40 % slower, and another simulation
	}
	var out bytes.Buffer
	if err := compareDirs([]string{a, b}, &out); err != nil {
		t.Errorf("a vs b: %v\n%s", err, out.String())
	}
	out.Reset()
	if err := compareDirs([]string{a, c}, &out); err == nil ||
		!bytes.Contains(out.Bytes(), []byte("REGRESSION")) || !bytes.Contains(out.Bytes(), []byte("simulated results differ")) {
		t.Errorf("a vs c should report a regression and differing simulations: %v\n%s", err, out.String())
	}
}
