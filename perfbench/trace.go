package main

import (
	"bufio"
	"fmt"
	"os"
	"sort"
	"time"
)

// A span is one timed call into a module's public function, recorded from
// the benchmark's side of the boundary. Spans nest: parent is the index of
// the enclosing span, -1 at top level.
type span struct {
	name       uint16
	parent     int32
	start, end int64 // ns since the tracer's origin
}

// tracer keeps spans in memory and writes them out when the run ends. A
// disabled tracer records nothing, so the untraced run pays one branch per
// boundary. The benchmark drives every workload from one goroutine, so the
// open-span stack needs no lock; the two-worker reruns trace only the
// enclosing call.
type tracer struct {
	on     bool
	origin time.Time
	names  []string
	ids    map[string]uint16
	spans  []span
	stack  []int32
}

func newTracer(on bool) *tracer {
	t := &tracer{on: on, origin: time.Now(), ids: map[string]uint16{}}
	if on {
		t.spans = make([]span, 0, 1<<17)
		t.stack = make([]int32, 0, 16)
	}
	return t
}

// begin opens a span named module.Function and returns its handle for end.
func (t *tracer) begin(name string) int32 {
	if !t.on {
		return -1
	}
	id, ok := t.ids[name]
	if !ok {
		id = uint16(len(t.names))
		t.names = append(t.names, name)
		t.ids[name] = id
	}
	parent := int32(-1)
	if len(t.stack) > 0 {
		parent = t.stack[len(t.stack)-1]
	}
	i := int32(len(t.spans))
	t.spans = append(t.spans, span{name: id, parent: parent, start: int64(time.Since(t.origin))})
	t.stack = append(t.stack, i)
	return i
}

func (t *tracer) end(i int32) {
	if i < 0 {
		return
	}
	t.spans[i].end = int64(time.Since(t.origin))
	t.stack = t.stack[:len(t.stack)-1]
}

// spanStat aggregates the spans of one name.
type spanStat struct {
	count int
	total float64 // ns, whole duration
	self  float64 // ns, duration minus direct children
	durs  []float64
}

// stats aggregates spans by name over the spans nested (at any depth)
// inside root; root < 0 means every span. A span's self time is its
// duration minus its direct children's durations.
func (t *tracer) stats(root int32) map[string]*spanStat {
	child := make([]float64, len(t.spans))
	for _, s := range t.spans {
		if s.parent >= 0 {
			child[s.parent] += float64(s.end - s.start)
		}
	}
	inside := make([]bool, len(t.spans))
	out := map[string]*spanStat{}
	for i, s := range t.spans {
		// Parents precede children, so one forward pass settles membership.
		inside[i] = root < 0 || s.parent == root || (s.parent >= 0 && inside[s.parent])
		if !inside[i] {
			continue
		}
		st := out[t.names[s.name]]
		if st == nil {
			st = &spanStat{}
			out[t.names[s.name]] = st
		}
		d := float64(s.end - s.start)
		st.count++
		st.total += d
		st.self += d - child[i]
		st.durs = append(st.durs, d)
	}
	return out
}

// dur returns a span's duration in ns.
func (t *tracer) dur(i int32) float64 {
	if i < 0 {
		return 0
	}
	return float64(t.spans[i].end - t.spans[i].start)
}

// coverage is the share of span root's duration covered by its direct
// children: what the per-call table accounts for, the rest being the
// harness's own loop.
func (t *tracer) coverage(root int32) float64 {
	if root < 0 || t.dur(root) == 0 {
		return 0
	}
	covered := 0.0
	for _, s := range t.spans {
		if s.parent == root {
			covered += float64(s.end - s.start)
		}
	}
	return covered / t.dur(root)
}

// writeChrome writes the spans in Chrome trace-event form (complete "X"
// events, microsecond timestamps); args carry the span's index and parent
// and runID ties the spans of one workload run together.
func (t *tracer) writeChrome(path, runID string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintf(w, "{\"otherData\":{\"run_id\":%q},\"traceEvents\":[\n", runID)
	for i, s := range t.spans {
		sep := ","
		if i == len(t.spans)-1 {
			sep = ""
		}
		fmt.Fprintf(w, "{\"name\":%q,\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"run\":%q,\"id\":%d,\"parent\":%d}}%s\n",
			t.names[s.name], float64(s.start)/1e3, float64(s.end-s.start)/1e3, runID, i, s.parent, sep)
	}
	fmt.Fprint(w, "]}\n")
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// quantile returns the q-quantile of xs by nearest rank; xs is sorted in
// place. It returns 0 for an empty sample.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	i := int(q * float64(len(xs)))
	if i >= len(xs) {
		i = len(xs) - 1
	}
	return xs[i]
}

func median(xs []float64) float64 { return quantile(append([]float64(nil), xs...), 0.5) }
