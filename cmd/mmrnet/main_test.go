package main

import (
	"bufio"
	"io"
	"net/http"
	"strconv"
	"strings"
	"testing"

	"mmr/internal/network"
)

// TestMetricsEndpointMatchesStats is the observability acceptance test:
// run a seeded fault scenario with the HTTP endpoint enabled, scrape
// /metrics while the server is alive, and check the scraped counter
// totals against the end-of-run statistics snapshot.
func TestMetricsEndpointMatchesStats(t *testing.T) {
	o := defaultOpts()
	o.conns = 32
	o.warmup = 800
	o.cycles = 2500
	o.seed = 7
	o.faultLinks = 2
	o.metricsAddr = "127.0.0.1:0"

	var scraped map[string]float64
	var st *network.Stats
	o.afterRun = func(addr string, n *network.Network) {
		if addr == "" {
			t.Fatal("no metrics server address")
		}
		st = n.Stats()
		body := httpGet(t, "http://"+addr+"/metrics")
		scraped = parsePromTotals(t, body)

		// The companion endpoints answer too.
		if js := httpGet(t, "http://"+addr+"/metrics.json"); !strings.Contains(js, "mmr_net_flits_delivered_total") {
			t.Error("/metrics.json missing delivered counter")
		}
		if fl := httpGet(t, "http://"+addr+"/flight"); !strings.Contains(fl, "link-down") {
			t.Errorf("/flight has no link-down event:\n%.300s", fl)
		}
	}
	var out, diag strings.Builder
	if err := run(o, &out, &diag); err != nil {
		t.Fatal(err)
	}
	if st.FaultsInjected == 0 {
		t.Fatal("scenario injected no faults; the fault counters below are vacuous")
	}

	checks := []struct {
		family string
		want   int64
	}{
		{"mmr_net_flits_generated_total", st.FlitsGenerated},
		{"mmr_net_flits_delivered_total", st.FlitsDelivered},
		{"mmr_net_link_flits_total", st.LinkFlits},
		{"mmr_net_setup_attempts_total", st.SetupAttempts},
		{"mmr_net_setup_accepted_total", st.SetupAccepted},
		{"mmr_net_faults_injected_total", st.FaultsInjected},
		{"mmr_net_faults_repaired_total", st.FaultsRepaired},
		{"mmr_net_conns_broken_total", st.ConnsBroken},
		{"mmr_net_conns_restored_total", st.ConnsRestored},
	}
	for _, c := range checks {
		got, ok := scraped[c.family]
		if !ok {
			t.Errorf("scrape missing family %s", c.family)
			continue
		}
		if int64(got) != c.want {
			t.Errorf("scraped %s = %.0f, stats say %d", c.family, got, c.want)
		}
	}
	if scraped["mmr_net_cycles"] != float64(st.Cycles) {
		t.Errorf("scraped mmr_net_cycles = %v, want %d", scraped["mmr_net_cycles"], st.Cycles)
	}
	if !strings.Contains(out.String(), "faults") {
		t.Error("report missing fault summary")
	}
}

// TestRunPlainReport covers the no-endpoint path end to end, including
// the FormatAccumCell min/max cells on an idle accumulator: a run too
// short to deliver anything must print "-" rather than a fake 0.
func TestRunPlainReport(t *testing.T) {
	o := defaultOpts()
	o.conns = 0
	o.be = 0
	o.warmup = 0
	o.cycles = 5
	var out, diag strings.Builder
	if err := run(o, &out, &diag); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "(min -, max -)") {
		t.Errorf("empty latency accumulator should print '-' cells:\n%s", out.String())
	}
}

func httpGet(t *testing.T, url string) string {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: status %d", url, resp.StatusCode)
	}
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// parsePromTotals sums the samples of every plain (non-histogram-bucket)
// family in a Prometheus text page, collapsing per-node shard labels.
func parsePromTotals(t *testing.T, body string) map[string]float64 {
	t.Helper()
	totals := map[string]float64{}
	sc := bufio.NewScanner(strings.NewReader(body))
	for sc.Scan() {
		line := sc.Text()
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		name := line
		if i := strings.IndexAny(line, "{ "); i >= 0 {
			name = line[:i]
		}
		if strings.HasSuffix(name, "_bucket") {
			continue
		}
		fields := strings.Fields(line)
		v, err := strconv.ParseFloat(fields[len(fields)-1], 64)
		if err != nil {
			t.Fatalf("bad sample line %q: %v", line, err)
		}
		totals[name] += v
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return totals
}
