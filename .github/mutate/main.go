// Command mutate runs the committed mutation table: each mutant is one
// exact edit to one source file and the tests that must kill it. For every
// mutant it checks that the old string occurs exactly once in the file, that
// the named tests pass on the unmutated tree, and that every one of them
// fails once the edit is applied: a named test that passes, skips or never
// reports on the mutated tree (say, because an earlier test panicked the
// binary) lets the mutant survive. The edit never touches the tree: the
// mutated file is written under $TMPDIR and swapped in for one build by
// `go test -overlay`. It prints a kill table and exits 1 unless every
// mutant is killed.
//
// Run it from the repository root:
//
//	go run ./.github/mutate
//
// A table entry in .github/mutants.json:
//
//	{"name": "...", "why": "what it breaks", "file": "internal/sched/arbiter.go",
//	 "old": "exact text", "new": "replacement", "run": "TestA|TestB",
//	 "pkg": "./internal/router"}
//
// The package tested is the file's directory, or "pkg" when given (a
// space-separated list tests several). Each |-separated alternative
// of run must name at least one top-level test that ran, so a renamed test
// cannot drop out unseen.
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"time"
)

// table is the committed mutation table, relative to the repository root.
const table = ".github/mutants.json"

type mutant struct {
	Name string `json:"name"`
	Why  string `json:"why"` // what the edit breaks, in the model's terms
	File string `json:"file"`
	Old  string `json:"old"`
	New  string `json:"new"`
	Run  string `json:"run"`
	Pkg  string `json:"pkg"` // the packages tested, when not the file's own
}

// pkg returns the packages m's tests run in, space-separated.
func (m mutant) pkg() string {
	if m.Pkg != "" {
		return m.Pkg
	}
	return "./" + filepath.Dir(m.File)
}

// outcome is what one go test run reported for its top-level tests.
type outcome struct {
	passed, failed []string
	output         string // go test's text, for a run that built nothing
}

func main() {
	raw, err := os.ReadFile(table)
	if err != nil {
		fatal(err)
	}
	var ms []mutant
	if err := json.Unmarshal(raw, &ms); err != nil {
		fatal(fmt.Errorf("%s: %v", table, err))
	}
	tmp, err := os.MkdirTemp("", "mutate")
	if err != nil {
		fatal(err)
	}

	w := bufio.NewWriter(os.Stdout)
	fmt.Fprintf(w, "%-28s %-22s %-8s %s\n", "mutant", "package", "verdict", "tests (mutated: failed/ran)")
	w.Flush()
	bad := 0
	start := time.Now()
	for i, m := range ms {
		verdict, detail := run(m, filepath.Join(tmp, fmt.Sprint(i)))
		if verdict != "KILLED" {
			bad++
		}
		fmt.Fprintf(w, "%-28s %-22s %-8s %s\n", m.Name, m.pkg(), verdict, detail)
		w.Flush()
	}
	fmt.Fprintf(w, "%d mutants, %d not killed, %.0fs\n", len(ms), bad, time.Since(start).Seconds())
	w.Flush()
	os.RemoveAll(tmp) // before os.Exit, which runs no deferred call
	if bad > 0 {
		os.Exit(1)
	}
}

// run checks one mutant and returns its verdict and the line that explains it.
func run(m mutant, dir string) (verdict, detail string) {
	src, err := os.ReadFile(m.File)
	if err != nil {
		return "ERROR", err.Error()
	}
	if n := bytes.Count(src, []byte(m.Old)); n != 1 {
		return "ERROR", fmt.Sprintf("old string occurs %d times in %s, want 1", n, m.File)
	}
	alts := strings.Split(m.Run, "|")
	clean, err := goTest(m, "")
	if err != nil {
		return "ERROR", err.Error()
	}
	if len(clean.failed) > 0 || len(clean.passed) == 0 {
		return "ERROR", fmt.Sprintf("on the clean tree: passed %v, failed %v %s", clean.passed, clean.failed, clean.output)
	}
	for _, alt := range alts {
		if !anyMatch(alt, clean.passed) {
			return "ERROR", fmt.Sprintf("no test matching %q ran", alt)
		}
	}

	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "ERROR", err.Error()
	}
	abs, err := filepath.Abs(m.File)
	if err != nil {
		return "ERROR", err.Error()
	}
	mutated := filepath.Join(dir, filepath.Base(m.File))
	if err := os.WriteFile(mutated, bytes.Replace(src, []byte(m.Old), []byte(m.New), 1), 0o644); err != nil {
		return "ERROR", err.Error()
	}
	// A map of strings always marshals.
	overlay, _ := json.Marshal(map[string]map[string]string{"Replace": {abs: mutated}})
	ov := filepath.Join(dir, "overlay.json")
	if err := os.WriteFile(ov, overlay, 0o644); err != nil {
		return "ERROR", err.Error()
	}
	mut, err := goTest(m, ov)
	if err != nil {
		return "ERROR", err.Error()
	}
	ran := len(mut.passed) + len(mut.failed)
	if ran == 0 {
		return "ERROR", "the mutated tree ran no test (does it build?) " + mut.output
	}
	detail = fmt.Sprintf("%d/%d %s", len(mut.failed), ran, strings.Join(mut.failed, " "))
	var alive []string // named tests that passed, skipped or never reported
	for _, t := range clean.passed {
		if !contains(mut.failed, t) {
			alive = append(alive, t)
		}
	}
	if len(alive) > 0 {
		return "SURVIVED", detail + "; not failed: " + strings.Join(alive, " ")
	}
	return "KILLED", detail
}

// goTest runs m's tests in m's package, through overlay when it is not "".
// A mutated run is never answered from the test cache.
func goTest(m mutant, overlay string) (outcome, error) {
	args := []string{"test", "-json", "-run", "^(" + m.Run + ")$"}
	if overlay != "" {
		args = append(args, "-count=1", "-overlay", overlay)
	}
	args = append(args, strings.Fields(m.pkg())...)
	var out bytes.Buffer
	cmd := exec.Command("go", args...)
	cmd.Stdout, cmd.Stderr = &out, &out
	// A failing test exits non-zero: the verdict is read from the events,
	// so only a go command that could not run at all is an error here.
	err := cmd.Run()
	if _, exit := err.(*exec.ExitError); err != nil && !exit {
		return outcome{}, err
	}
	var o outcome
	var text strings.Builder
	raw := out.String()
	dec := json.NewDecoder(strings.NewReader(raw))
	for dec.More() {
		var ev struct{ Action, Test, Output string }
		if dec.Decode(&ev) != nil {
			break
		}
		switch {
		case ev.Test == "" || strings.Contains(ev.Test, "/"):
			if ev.Action == "output" || ev.Action == "build-output" {
				text.WriteString(ev.Output)
			}
		case ev.Action == "pass":
			o.passed = append(o.passed, ev.Test)
		case ev.Action == "fail":
			o.failed = append(o.failed, ev.Test)
		}
	}
	sort.Strings(o.passed)
	sort.Strings(o.failed)
	if len(o.passed)+len(o.failed) == 0 {
		o.output = strings.TrimSpace(text.String())
		if o.output == "" {
			o.output = strings.TrimSpace(raw)
		}
	}
	return o, nil
}

func contains(names []string, name string) bool {
	i := sort.SearchStrings(names, name)
	return i < len(names) && names[i] == name
}

func anyMatch(alt string, names []string) bool {
	re, err := regexp.Compile("^(" + alt + ")$")
	if err != nil {
		return false
	}
	for _, n := range names {
		if re.MatchString(n) {
			return true
		}
	}
	return false
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "mutate:", err)
	os.Exit(2)
}
