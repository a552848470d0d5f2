package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"mmr/internal/network"
	"mmr/internal/sim"
)

// startTestDaemon launches runDaemon on a free port and waits until the
// control API is reachable. Stop it by sending on sigc and draining done.
func startTestDaemon(t *testing.T, o simOpts) (addr string, sigc chan os.Signal, done chan error, out *bytes.Buffer) {
	t.Helper()
	o.serve = true
	o.serveAddr = "127.0.0.1:0"
	ready := make(chan string, 1)
	o.afterServe = func(a string) { ready <- a }
	sigc = make(chan os.Signal, 1)
	done = make(chan error, 1)
	out = &bytes.Buffer{}
	var diag bytes.Buffer
	go func() { done <- runDaemon(o, out, &diag, sigc) }()
	select {
	case addr = <-ready:
	case err := <-done:
		t.Fatalf("daemon exited before serving: %v\n%s", err, diag.String())
	case <-time.After(10 * time.Second):
		t.Fatal("daemon did not come up within 10s")
	}
	return addr, sigc, done, out
}

// stopDaemon sends SIGTERM and waits for a clean exit.
func stopDaemon(t *testing.T, sigc chan os.Signal, done chan error) {
	t.Helper()
	sigc <- syscall.SIGTERM
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("daemon drain failed: %v", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("daemon did not drain within 30s")
	}
}

func postJSON(t *testing.T, url string, body any, out any) (int, string) {
	t.Helper()
	b, _ := json.Marshal(body)
	resp, err := http.Post(url, "application/json", bytes.NewReader(b))
	if err != nil {
		t.Fatalf("POST %s: %v", url, err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	buf.ReadFrom(resp.Body)
	if resp.StatusCode == http.StatusOK && out != nil {
		if err := json.Unmarshal(buf.Bytes(), out); err != nil {
			t.Fatalf("POST %s: bad response %q: %v", url, buf.String(), err)
		}
	}
	return resp.StatusCode, buf.String()
}

func getJSON(t *testing.T, url string, out any) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: status %d", url, resp.StatusCode)
	}
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
}

// TestDaemonControlAPI drives the full request surface against a live
// daemon: open, status, query, modify, conns, close, the
// degrade-to-best-effort path for an inadmissible request, and a
// graceful SIGTERM drain that persists a final checkpoint.
func TestDaemonControlAPI(t *testing.T) {
	ckpt := filepath.Join(t.TempDir(), "fabric.ckpt")
	o := defaultOpts()
	o.seed = 5
	o.checkpoint = ckpt
	addr, sigc, done, out := startTestDaemon(t, o)
	base := "http://" + addr

	var opened openResponse
	if code, body := postJSON(t, base+"/api/open",
		openRequest{Src: 0, Dst: 5, Class: "cbr", RateMbps: 40}, &opened); code != http.StatusOK {
		t.Fatalf("open: status %d: %s", code, body)
	}
	if opened.Degraded || opened.Conn < 0 || len(opened.Nodes) < 2 {
		t.Fatalf("open: unexpected response %+v", opened)
	}

	var status map[string]any
	getJSON(t, base+"/api/status", &status)
	if got := status["conns_open"].(float64); got != 1 {
		t.Fatalf("status: conns_open = %v, want 1", got)
	}

	var query map[string]any
	getJSON(t, fmt.Sprintf("%s/api/query?node=%d&port=0", base, opened.Nodes[0]), &query)
	if query["free_vcs"].(float64) <= 0 {
		t.Fatalf("query: no free VCs reported: %v", query)
	}

	if code, body := postJSON(t, base+"/api/modify",
		modifyRequest{Conn: opened.Conn, RateMbps: 80}, nil); code != http.StatusOK {
		t.Fatalf("modify: status %d: %s", code, body)
	}
	if code, _ := postJSON(t, base+"/api/modify", modifyRequest{Conn: 9999, RateMbps: 10}, nil); code != http.StatusNotFound {
		t.Fatalf("modify unknown conn: status %d, want 404", code)
	}

	var conns struct {
		Conns []connInfo `json:"conns"`
	}
	getJSON(t, base+"/api/conns", &conns)
	if len(conns.Conns) != 1 || conns.Conns[0].Conn != opened.Conn || conns.Conns[0].RateMbps != 80 {
		t.Fatalf("conns: %+v", conns.Conns)
	}

	// An inadmissible rate exhausts the retry budget and then degrades
	// to a best-effort flow instead of being refused.
	var degraded openResponse
	if code, body := postJSON(t, base+"/api/open",
		openRequest{Src: 1, Dst: 6, Class: "cbr", RateMbps: 1e6}, &degraded); code != http.StatusOK {
		t.Fatalf("degraded open: status %d: %s", code, body)
	}
	if !degraded.Degraded || degraded.Conn != -1 {
		t.Fatalf("degraded open: %+v, want degraded best-effort fallback", degraded)
	}
	// With no_retry the same request is refused outright.
	if code, _ := postJSON(t, base+"/api/open",
		openRequest{Src: 1, Dst: 6, RateMbps: 1e6, NoRetry: true}, nil); code != http.StatusConflict {
		t.Fatalf("no_retry open: status %d, want 409", code)
	}

	if code, body := postJSON(t, base+"/api/close", closeRequest{Conn: opened.Conn}, nil); code != http.StatusOK {
		t.Fatalf("close: status %d: %s", code, body)
	}
	if code, _ := postJSON(t, base+"/api/close", closeRequest{Conn: opened.Conn}, nil); code == http.StatusOK {
		t.Fatal("double close succeeded")
	}

	stopDaemon(t, sigc, done)
	if _, err := os.Stat(ckpt); err != nil {
		t.Fatalf("final checkpoint missing: %v", err)
	}
	if !strings.Contains(out.String(), "drained at cycle") {
		t.Fatalf("drain report missing from output:\n%s", out.String())
	}
}

// TestDaemonRestartResume kills a daemon mid-session and restarts it
// from its checkpoint: the fabric resumes at the checkpointed cycle with
// the connection still open and traffic still flowing.
func TestDaemonRestartResume(t *testing.T) {
	ckpt := filepath.Join(t.TempDir(), "fabric.ckpt")
	o := defaultOpts()
	o.seed = 7
	o.checkpoint = ckpt
	o.checkpointInterval = 50_000

	addr, sigc, done, _ := startTestDaemon(t, o)
	base := "http://" + addr
	var opened openResponse
	if code, body := postJSON(t, base+"/api/open",
		openRequest{Src: 2, Dst: 9, Class: "vbr", RateMbps: 20}, &opened); code != http.StatusOK {
		t.Fatalf("open: status %d: %s", code, body)
	}
	stopDaemon(t, sigc, done)

	o.restore = true
	addr, sigc, done, _ = startTestDaemon(t, o)
	base = "http://" + addr
	var status map[string]any
	getJSON(t, base+"/api/status", &status)
	if cycle := status["cycle"].(float64); cycle <= 0 {
		t.Fatalf("restored fabric restarted from cycle %v, want the checkpointed clock", cycle)
	}
	if got := status["conns_open"].(float64); got != 1 {
		t.Fatalf("restored fabric lost the connection: conns_open = %v", got)
	}
	before := status["flits_delivered"].(float64)

	// The restored connection keeps delivering.
	deadline := time.Now().Add(15 * time.Second)
	for {
		getJSON(t, base+"/api/status", &status)
		if status["flits_delivered"].(float64) > before {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("restored fabric delivered nothing new (stuck at %v flits)", before)
		}
		time.Sleep(50 * time.Millisecond)
	}
	stopDaemon(t, sigc, done)
}

// TestValidateOpts exercises the flag cross-checks: nonsense values and
// contradictory mode combinations are rejected with specific errors.
func TestValidateOpts(t *testing.T) {
	cases := []struct {
		name string
		mut  func(o *simOpts)
		set  []string
		want string // substring of the error; "" = must pass
	}{
		{"defaults", func(o *simOpts) {}, nil, ""},
		{"zero vcs", func(o *simOpts) { o.vcs = 0 }, nil, "-vcs"},
		{"negative cycles", func(o *simOpts) { o.cycles = -1 }, nil, "-cycles"},
		{"vbr fraction", func(o *simOpts) { o.vbr = 1.5 }, nil, "-vbr"},
		{"drop probability", func(o *simOpts) { o.faultDrop = 2 }, nil, "fault-drop"},
		{"serve with batch flags", func(o *simOpts) { o.serve = true; o.conns = 10 }, []string{"conns"}, "contradicts -serve"},
		{"serve with fault plan", func(o *simOpts) { o.serve = true; o.faultMTBF = 100 }, []string{"fault-mtbf"}, "contradicts -serve"},
		{"serve with metrics addr", func(o *simOpts) { o.serve = true; o.metricsAddr = ":9090" }, []string{"metrics-addr"}, "contradicts -serve"},
		{"restore without checkpoint", func(o *simOpts) { o.serve = true; o.restore = true }, []string{"restore"}, "-restore needs -checkpoint"},
		{"interval without checkpoint", func(o *simOpts) { o.serve = true; o.checkpointInterval = 100 }, []string{"checkpoint-interval"}, "-checkpoint-interval needs -checkpoint"},
		{"checkpoint without serve", func(o *simOpts) { o.checkpoint = "x.ckpt" }, []string{"checkpoint"}, "daemon mode"},
		{"serve ok", func(o *simOpts) {
			o.serve = true
			o.checkpoint = "x.ckpt"
			o.checkpointInterval = 100
			o.restore = true
		}, []string{"serve", "checkpoint", "checkpoint-interval", "restore"}, ""},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			o := defaultOpts()
			tc.mut(&o)
			set := map[string]bool{}
			for _, f := range tc.set {
				set[f] = true
			}
			err := validateOpts(o, set)
			if tc.want == "" {
				if err != nil {
					t.Fatalf("unexpected error: %v", err)
				}
				return
			}
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("got %v, want error containing %q", err, tc.want)
			}
		})
	}
}

// TestDaemonFatTreeStatus runs the daemon on a generated fat tree and
// checks that /api/status reports the fabric's shape, that sessions
// establish across pods, and that periodic checkpoints land while the
// fabric is live.
func TestDaemonFatTreeStatus(t *testing.T) {
	ckpt := filepath.Join(t.TempDir(), "fabric.ckpt")
	o := defaultOpts()
	o.topo = "fattree"
	o.ftK = 4
	o.seed = 11
	o.checkpoint = ckpt
	o.checkpointInterval = 10_000
	addr, sigc, done, _ := startTestDaemon(t, o)
	base := "http://" + addr

	// Cross-pod session between two edge routers: edge(0,0) -> edge(1,1).
	var opened openResponse
	if code, body := postJSON(t, base+"/api/open",
		openRequest{Src: 0, Dst: 5, Class: "cbr", RateMbps: 20}, &opened); code != http.StatusOK {
		t.Fatalf("open: status %d: %s", code, body)
	}

	var status map[string]any
	getJSON(t, base+"/api/status", &status)
	topo, ok := status["topology"].(map[string]any)
	if !ok {
		t.Fatalf("status has no topology object: %v", status)
	}
	if topo["kind"] != "fattree" || topo["nodes"].(float64) != 20 || topo["regions"].(float64) != 5 {
		t.Fatalf("topology status = %v, want fattree with 20 nodes in 5 regions", topo)
	}
	if params := topo["params"].(map[string]any); params["k"].(float64) != 4 {
		t.Fatalf("topology params = %v, want k=4", params)
	}

	// A periodic snapshot lands while sessions are live.
	deadline := time.Now().Add(20 * time.Second)
	for {
		getJSON(t, base+"/api/status", &status)
		if status["last_checkpoint_cycle"].(float64) > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("no periodic checkpoint within 20s")
		}
		time.Sleep(50 * time.Millisecond)
	}
	if _, err := os.Stat(ckpt); err != nil {
		t.Fatalf("periodic checkpoint missing: %v", err)
	}
	stopDaemon(t, sigc, done)
}

// TestDaemonHostileRequests sends every POST endpoint bodies a careless or
// hostile client might: truncated JSON, wrong types, out-of-range nodes, a
// rate of 1e300 Mbps, an unknown class, a body over 64 KiB, the wrong
// method, and close/modify of IDs that name nothing. Each is answered with
// a 4xx and a message, except that an open allowed to retry may degrade to
// best-effort, as any refused open does; no guaranteed session is granted
// at 1e300 Mbps. Then opens, closes and modifies race the SIGTERM drain:
// the daemon must exit cleanly, and its final checkpoint restore into a
// fabric that passes the resource audit.
func TestDaemonHostileRequests(t *testing.T) {
	ckpt := filepath.Join(t.TempDir(), "fabric.ckpt")
	o := defaultOpts()
	o.seed = 9
	o.checkpoint = ckpt
	addr, sigc, done, _ := startTestDaemon(t, o)
	base := "http://" + addr

	var opened openResponse
	if code, body := postJSON(t, base+"/api/open", openRequest{Src: 0, Dst: 5, RateMbps: 20}, &opened); code != http.StatusOK {
		t.Fatalf("open: status %d: %s", code, body)
	}
	huge := strings.Repeat("x", 70<<10)
	cases := []struct {
		path, method, body string
		mayDegrade         bool
	}{
		{"/api/open", "POST", `{"src":0,"dst":`, false},
		{"/api/open", "POST", `{"src":"zero","dst":5,"rate_mbps":10}`, false},
		{"/api/open", "POST", `{"src":0,"dst":5,"rate_mbps":"fast"}`, false},
		{"/api/open", "POST", `{"src":-1,"dst":5,"rate_mbps":10,"no_retry":true}`, false},
		{"/api/open", "POST", `{"src":0,"dst":99999,"rate_mbps":10}`, false},
		{"/api/open", "POST", `{"src":0,"dst":5,"rate_mbps":1e300,"no_retry":true}`, false},
		{"/api/open", "POST", `{"src":0,"dst":5,"rate_mbps":1e300}`, true},
		{"/api/open", "POST", `{"src":0,"dst":5,"class":"vbr","rate_mbps":10,"peak_mbps":1e300,"no_retry":true}`, false},
		{"/api/open", "POST", `{"src":0,"dst":5,"class":"vbr","rate_mbps":1e300,"no_retry":true}`, false},
		{"/api/open", "POST", `{"src":0,"dst":5,"class":"abr","rate_mbps":10}`, false},
		{"/api/open", "POST", `{"src":0,"dst":5,"rate_mbps":-3}`, false},
		{"/api/open", "POST", `{"tenant":"` + huge + `"}`, false},
		{"/api/open", "GET", "", false},
		{"/api/close", "POST", `{"conn":`, false},
		{"/api/close", "POST", `{"conn":"first"}`, false},
		{"/api/close", "POST", `{"conn":424242}`, false},
		{"/api/close", "POST", `{"conn":-7}`, false},
		{"/api/close", "POST", `{"flow":9999}`, false},
		{"/api/close", "POST", `{"conn":0,"pad":"` + huge + `"}`, false},
		{"/api/close", "GET", "", false},
		{"/api/modify", "POST", `{"conn":0,"rate_mbps":`, false},
		{"/api/modify", "POST", `{"conn":0,"rate_mbps":true}`, false},
		{"/api/modify", "POST", `{"conn":424242,"rate_mbps":10}`, false},
		{"/api/modify", "POST", fmt.Sprintf(`{"conn":%d,"rate_mbps":1e300}`, opened.Conn), false},
		{"/api/modify", "POST", fmt.Sprintf(`{"conn":%d,"rate_mbps":-1}`, opened.Conn), false},
		{"/api/modify", "POST", `{"conn":0,"pad":"` + huge + `"}`, false},
		{"/api/modify", "GET", "", false},
		{"/api/tenant", "POST", `{"tenant":"t","max_sessions":`, false},
		{"/api/tenant", "POST", `{"tenant":7}`, false},
		{"/api/tenant", "POST", `{"tenant":"t","max_guaranteed_mbps":1e300}`, false},
		{"/api/tenant", "POST", `{"tenant":"t","max_sessions":-1}`, false},
		{"/api/tenant", "POST", `{"tenant":"` + huge + `"}`, false},
		{"/api/tenant", "GET", "", false},
	}
	for _, tc := range cases {
		name := tc.method + " " + tc.path + " " + tc.body[:min(len(tc.body), 80)]
		req, err := http.NewRequest(tc.method, base+tc.path, strings.NewReader(tc.body))
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		var body bytes.Buffer
		body.ReadFrom(resp.Body)
		resp.Body.Close()
		if tc.mayDegrade && resp.StatusCode == http.StatusOK {
			var got openResponse
			if err := json.Unmarshal(body.Bytes(), &got); err != nil || !got.Degraded || got.Conn != -1 {
				t.Errorf("%s: 200 %q, want a refusal or a best-effort fallback", name, body.String())
			}
			continue
		}
		if resp.StatusCode < 400 || resp.StatusCode >= 500 || strings.TrimSpace(body.String()) == "" {
			t.Errorf("%s: status %d %q, want a 4xx with a message", name, resp.StatusCode, body.String())
		}
	}
	var conns struct {
		Conns []connInfo `json:"conns"`
	}
	getJSON(t, base+"/api/conns", &conns)
	for _, c := range conns.Conns {
		if c.RateMbps != 20 {
			t.Errorf("connection %d holds a guaranteed %v Mbps", c.Conn, c.RateMbps)
		}
	}

	// Control traffic racing the drain. A request the closing listener
	// cuts off is no reply; any reply must be well-formed.
	stopRace := raceControl(t, base)
	time.Sleep(300 * time.Millisecond)
	stopDaemon(t, sigc, done)
	stopRace()
	restoreAudited(t, o, ckpt, "the final checkpoint")
}

// raceControl starts four clients posting opens, modifies and closes to the
// daemon at base as fast as it answers, and returns the call that stops
// them. A request the closing listener cuts off is no reply; any reply must
// be well-formed.
func raceControl(t *testing.T, base string) (stop func()) {
	quit := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			client := &http.Client{Timeout: 5 * time.Second}
			for i := 0; ; i++ {
				select {
				case <-quit:
					return
				default:
				}
				var path, body string
				switch i % 3 {
				case 0:
					path, body = "/api/open", fmt.Sprintf(`{"src":%d,"dst":%d,"rate_mbps":%d,"no_retry":%v}`, (w+i)%16, (w+2*i+1)%16, 5+i%40, i%2 == 0)
				case 1:
					path, body = "/api/modify", fmt.Sprintf(`{"conn":%d,"rate_mbps":%d}`, i%8, 5+i%30)
				default:
					path, body = "/api/close", fmt.Sprintf(`{"conn":%d,"limit":200}`, (i/3)%8)
				}
				resp, err := client.Post(base+path, "application/json", strings.NewReader(body))
				if err != nil {
					continue
				}
				resp.Body.Close()
				if resp.StatusCode >= 500 && resp.StatusCode != http.StatusServiceUnavailable && resp.StatusCode != http.StatusGatewayTimeout {
					t.Errorf("%s %s: status %d", path, body, resp.StatusCode)
				}
			}
		}(w)
	}
	return func() {
		close(quit)
		wg.Wait()
	}
}

// restoreAudited restores the checkpoint at path into a fresh fabric of the
// daemon o describes and audits it.
func restoreAudited(t *testing.T, o simOpts, path, what string) {
	t.Helper()
	tp, err := buildTopology(o, sim.NewRNG(o.seed))
	if err != nil {
		t.Fatal(err)
	}
	n, err := network.RestoreCheckpoint(buildConfig(o, tp), path)
	if err != nil {
		t.Fatalf("restore %s: %v", what, err)
	}
	if err := n.CheckInvariants(); err != nil {
		t.Fatalf("%s restores into a fabric that fails the audit: %v", what, err)
	}
}

// TestDaemonPeriodicCheckpointsRace is TestDaemonHostileRequests' race with
// periodic checkpoints landing in it: the daemon snapshots every 2,048
// cycles while opens, modifies and closes race each other and the drain.
// Every version of the file seen while it ran, and the final one, must
// restore into a fabric that passes the audit.
func TestDaemonPeriodicCheckpointsRace(t *testing.T) {
	dir := t.TempDir()
	ckpt := filepath.Join(dir, "fabric.ckpt")
	o := defaultOpts()
	o.seed = 9
	o.checkpoint = ckpt
	o.checkpointInterval = 2048
	addr, sigc, done, _ := startTestDaemon(t, o)

	// Copy the file each time it changes; the daemon renames a finished
	// snapshot into place, so a read sees one whole version.
	var copies []string
	quit, copied := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(copied)
		var last []byte
		for {
			select {
			case <-quit:
				return
			case <-time.After(time.Millisecond):
			}
			b, err := os.ReadFile(ckpt)
			if err != nil || bytes.Equal(b, last) {
				continue
			}
			last = b
			path := filepath.Join(dir, fmt.Sprintf("copy-%03d.ckpt", len(copies)))
			if err := os.WriteFile(path, b, 0o644); err != nil {
				t.Error(err)
				return
			}
			copies = append(copies, path)
		}
	}()

	stopRace := raceControl(t, "http://"+addr)
	time.Sleep(300 * time.Millisecond)
	close(quit)
	<-copied
	stopDaemon(t, sigc, done)
	stopRace()

	if len(copies) < 3 {
		t.Fatalf("%d periodic checkpoints landed while requests raced; want at least 3", len(copies))
	}
	for _, c := range copies {
		restoreAudited(t, o, c, "periodic checkpoint "+filepath.Base(c))
	}
	restoreAudited(t, o, ckpt, "the final checkpoint")
	t.Logf("%d periodic checkpoints restored", len(copies))
}
