package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
)

// quartiles returns the first quartile, median and third quartile the way
// Python's statistics.quantiles(values, n=4) does (the exclusive method), so
// the spreads printed here are the ones the driver computes.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n < 2 {
		if n == 1 {
			return s[0], s[0], s[0]
		}
		return 0, 0, 0
	}
	at := func(i int) float64 {
		m := float64(i) * float64(n+1) / 4
		j := int(m)
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		return s[j-1] + (s[j]-s[j-1])*(m-float64(j))
	}
	return at(1), at(2), at(3)
}

// resultSet is the results found in one directory, by workload and mode.
type resultSet map[string][]*result

func loadResults(dir string) (resultSet, error) {
	paths, err := filepath.Glob(filepath.Join(dir, "result-*.json"))
	if err != nil {
		return nil, err
	}
	if len(paths) == 0 {
		return nil, fmt.Errorf("no result-*.json files in %s", dir)
	}
	set := resultSet{}
	for _, p := range paths {
		raw, err := os.ReadFile(p)
		if err != nil {
			return nil, err
		}
		var r result
		if err := json.Unmarshal(raw, &r); err != nil {
			return nil, fmt.Errorf("%s: %w", p, err)
		}
		key := r.Workload + "/e2e"
		if r.Trace {
			key = r.Workload + "/trace"
		}
		set[key] = append(set[key], &r)
	}
	return set, nil
}

func values(rs []*result, name string) []float64 {
	var out []float64
	for _, r := range rs {
		if m, ok := r.Metrics[name]; ok {
			out = append(out, m.Value)
		}
	}
	return out
}

// compareDirs prints, per workload and metric, the median and the
// interquartile spread of each result directory; with two directories it adds
// how much worse the second median is than the first, against the metric's
// bound, and checks that the simulated results agree seed by seed.
func compareDirs(dirs []string, w io.Writer) error {
	if len(dirs) < 1 || len(dirs) > 2 {
		return fmt.Errorf("--compare takes one or two result directories")
	}
	var sets []resultSet
	for _, d := range dirs {
		s, err := loadResults(d)
		if err != nil {
			return err
		}
		sets = append(sets, s)
	}
	bad := 0
	for _, wl := range workloads {
		for _, mode := range []struct {
			key  string
			defs []metricDef
		}{{"/e2e", endToEnd}, {"/trace", perLayer}} {
			a := sets[0][wl.name+mode.key]
			if len(a) == 0 {
				continue
			}
			contended := 0
			for _, r := range a {
				if r.Contended {
					contended++
				}
			}
			fmt.Fprintf(w, "%s%s: %d runs, %d contended\n", wl.name, mode.key, len(a), contended)
			for _, d := range mode.defs {
				q1, med, q3 := quartiles(values(a, d.Name))
				spread := 0.0
				if med != 0 {
					spread = (q3 - q1) / med
				}
				line := fmt.Sprintf("  %-36s median %14.6g %-9s spread %.4f", d.Name, med, d.Unit, spread)
				if d.Bound > 0 {
					line += fmt.Sprintf("  bound %.2f", d.Bound)
					if d.Name != "setup_s" && spread > d.Bound/3 {
						line += "  SPREAD>BOUND/3"
					}
				}
				if len(sets) == 2 {
					b := sets[1][wl.name+mode.key]
					_, medB, _ := quartiles(values(b, d.Name))
					worse := 0.0
					if med != 0 {
						worse = (medB - med) / med
						if d.Better == "higher" {
							worse = -worse
						}
					}
					line += fmt.Sprintf("  second %14.6g  worse by %+.4f", medB, worse)
					if d.Bound > 0 && worse > d.Bound {
						line += "  REGRESSION"
						bad++
					}
				}
				fmt.Fprintln(w, line)
			}
			if len(sets) == 2 {
				bad += compareSimulated(wl.name+mode.key, a, sets[1][wl.name+mode.key], w)
			}
		}
	}
	if bad > 0 {
		return fmt.Errorf("%d disagreements", bad)
	}
	return nil
}

// compareSimulated checks that runs of the same workload and seed produced
// the same fingerprint and simulated statistics in both sets.
func compareSimulated(key string, a, b []*result, w io.Writer) int {
	bySeed := map[uint64]*result{}
	for _, r := range a {
		bySeed[r.Seed] = r
	}
	bad := 0
	for _, r := range b {
		o := bySeed[r.Seed]
		if o == nil {
			continue
		}
		same := o.Fingerprint == r.Fingerprint
		for k, v := range o.Sim {
			if r.Sim[k] != v {
				same = false
			}
		}
		if !same {
			fmt.Fprintf(w, "  %s seed %d: simulated results differ (%s vs %s)\n", key, r.Seed, o.Fingerprint, r.Fingerprint)
			bad++
		}
	}
	return bad
}
