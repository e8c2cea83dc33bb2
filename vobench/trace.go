package main

import (
	"encoding/json"
	"os"
	"runtime"
	"sort"
	"time"
)

// The traced run records spans from the benchmark's own code: around
// each handler call, around each EvalContext (through the engine
// wrapper), and around the public layer functions it calls on the same
// inputs before and after a request. Spans stay in memory and are
// written out at the end; per-layer metrics are computed from them.

type span struct {
	Name   string  `json:"name"`
	Start  int64   `json:"start_ns"`
	End    int64   `json:"end_ns"`
	Parent int     `json:"parent"` // index into the span list, -1 for a root
	Req    int     `json:"req"`
	Class  string  `json:"class,omitempty"`
	N      float64 `json:"n,omitempty"`     // a count the span carries (rows, candidates, bytes)
	Alloc  uint64  `json:"alloc,omitempty"` // heap bytes allocated inside (eval spans)
	Self   int64   `json:"self_ns"`
}

type tracer struct {
	on    bool // record the current operation (alternate ops run bare)
	t0    time.Time
	spans []span
	open  []int
	req   int
	class string
	// bare holds the wall time of the untraced operations per class,
	// the baseline of the tracing overhead.
	bare map[string][]float64
	nOps map[string]int
}

func newTracer() *tracer {
	return &tracer{t0: time.Now(), bare: map[string][]float64{}, nOps: map[string]int{}}
}

// nextOp starts the next operation, of class; every other operation of
// each class is traced, the rest run bare as the overhead baseline.
func (t *tracer) nextOp(class string) { t.nextOpOf(class, class) }

// nextOpOf is nextOp alternating within kind, a finer grouping than the
// class (an export's result format), so traced and bare operations do
// the same mix of work.
func (t *tracer) nextOpOf(class, kind string) {
	if t == nil {
		return
	}
	t.req++
	t.class = class
	t.nOps[kind]++
	t.on = t.nOps[kind]%2 == 1
	// Every operation starts on a freshly collected heap, so the garbage
	// a traced operation's probes leave behind is not collected on the
	// time of the bare one after it.
	runtime.GC()
}

func (t *tracer) now() int64 { return int64(time.Since(t.t0)) }

// begin opens a span under the innermost open span and returns its index.
func (t *tracer) begin(name string) int {
	parent := -1
	if len(t.open) > 0 {
		parent = t.open[len(t.open)-1]
	}
	t.spans = append(t.spans, span{Name: name, Start: t.now(), Parent: parent, Req: t.req, Class: t.class})
	i := len(t.spans) - 1
	t.open = append(t.open, i)
	return i
}

func (t *tracer) end(i int) {
	t.spans[i].End = t.now()
	t.open = t.open[:len(t.open)-1]
}

// probe times fn as a span of its own; fn returns the count the span
// carries. Outside a traced operation it does nothing.
func (t *tracer) probe(name string, fn func() float64) {
	if t == nil || !t.on {
		return
	}
	i := t.begin(name)
	n := fn()
	t.end(i)
	t.spans[i].N = n
}

// step runs fn, which is part of the operation itself, and times it as
// a span when the operation is traced.
func (t *tracer) step(name string, fn func()) {
	if t == nil || !t.on {
		fn()
		return
	}
	i := t.begin(name)
	fn()
	t.end(i)
}

// requestBegin brackets one handler call.
func (t *tracer) requestBegin() func() {
	if t == nil {
		return func() {}
	}
	if !t.on {
		start := time.Now()
		return func() { t.bare[t.class] = append(t.bare[t.class], float64(time.Since(start))/1e6) }
	}
	i := t.begin("request")
	return func() { t.end(i) }
}

// evalBegin brackets one EvalContext and measures its allocations. The
// heap reads stop the world, so each gets a span of its own, which the
// handler's overhead leaves out.
func (t *tracer) evalBegin() func() {
	if t == nil || !t.on {
		return func() {}
	}
	var ms runtime.MemStats
	readHeap := func() uint64 {
		i := t.begin("memstats")
		runtime.ReadMemStats(&ms)
		t.end(i)
		return ms.TotalAlloc
	}
	before := readHeap()
	i := t.begin("eval")
	return func() {
		t.end(i)
		t.spans[i].Alloc = readHeap() - before
	}
}

// finish computes every span's self time (its duration minus its
// children's).
func (t *tracer) finish() {
	child := make([]int64, len(t.spans))
	for _, s := range t.spans {
		if s.Parent >= 0 {
			child[s.Parent] += s.End - s.Start
		}
	}
	for i := range t.spans {
		t.spans[i].Self = t.spans[i].End - t.spans[i].Start - child[i]
	}
}

func (t *tracer) write(path string) error {
	data, err := json.Marshal(t.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// durations lists the durations (ms) of the spans of one name, of one
// class or of all ("").
func (t *tracer) durations(name, class string) []float64 {
	var out []float64
	for _, s := range t.spans {
		if s.Name == name && (class == "" || s.Class == class) {
			out = append(out, float64(s.End-s.Start)/1e6)
		}
	}
	return out
}

func (t *tracer) sumN(name, class string) float64 {
	var n float64
	for _, s := range t.spans {
		if s.Name == name && (class == "" || s.Class == class) {
			n += s.N
		}
	}
	return n
}

// overheads returns, per traced request of class, the handler wall time
// minus the time inside EvalContext (and the tracer's heap reads), in ms.
func (t *tracer) overheads(class string) []float64 {
	evalIn := map[int]int64{}
	for _, s := range t.spans {
		if (s.Name == "eval" || s.Name == "memstats") && s.Parent >= 0 {
			evalIn[s.Parent] += s.End - s.Start
		}
	}
	var out []float64
	for i, s := range t.spans {
		if s.Name == "request" && s.Class == class {
			out = append(out, float64(s.End-s.Start-evalIn[i])/1e6)
		}
	}
	return out
}

// allocMB is the median heap allocation per EvalContext of class.
func (t *tracer) allocMB(class string) float64 {
	var v []float64
	for _, s := range t.spans {
		if s.Name == "eval" && s.Class == class {
			v = append(v, float64(s.Alloc)/(1<<20))
		}
	}
	return median(v)
}

// opCost is each traced operation's handler time plus the snapshot
// rebuild its probe took over from it, per class (ms); the traced side
// of the overhead comparison.
func (t *tracer) opCost(class string) []float64 {
	cost := map[int]float64{}
	for _, s := range t.spans {
		if s.Class == class && (s.Name == "request" || s.Name == "snapshot") && s.Parent < 0 {
			cost[s.Req] += float64(s.End-s.Start) / 1e6
		}
	}
	keys := make([]int, 0, len(cost))
	for k := range cost {
		keys = append(keys, k)
	}
	sort.Ints(keys)
	out := make([]float64, len(keys))
	for i, k := range keys {
		out[i] = cost[k]
	}
	return out
}
