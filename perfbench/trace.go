package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/geom"
)

// span is one timed public call. Aggregated spans (Calls > 0) stand for
// many short calls of one leaf function (a record parse, a refine
// predicate) made inside their parent; their duration is the sum of the
// calls and they are drawn from the parent's start on a separate track.
type span struct {
	ID, Parent int
	Name       string
	Rank       int // -1 for the harness goroutines
	Start, End time.Duration
	Calls      int64
	Req        int64 // request id, -1 when the span is not a request
}

// tracer keeps spans in memory; a nil tracer records nothing, so the
// untraced runs pay one nil check per call site.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) begin(name string, rank, parent int) int { return t.beginReq(name, rank, parent, -1) }

func (t *tracer) beginReq(name string, rank, parent int, req int64) int {
	if t == nil {
		return 0
	}
	now := time.Since(t.t0)
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name, Rank: rank, Start: now, End: now, Req: req})
	return id
}

func (t *tracer) end(id int) {
	if t == nil || id == 0 {
		return
	}
	now := time.Since(t.t0)
	t.mu.Lock()
	t.spans[id-1].End = now
	t.mu.Unlock()
}

// dur returns a finished span's duration in seconds.
func (t *tracer) dur(id int) float64 {
	if t == nil || id == 0 {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	s := t.spans[id-1]
	return (s.End - s.Start).Seconds()
}

// leaf records the calls accumulated in acc as one aggregated child of
// parent, then resets acc.
func (t *tracer) leaf(name string, parent int, acc *leafAcc) {
	if t == nil || parent == 0 {
		return
	}
	ns, calls := acc.ns.Swap(0), acc.calls.Swap(0)
	if calls == 0 {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	p := t.spans[parent-1]
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Name: name, Rank: p.Rank,
		Start: p.Start, End: p.Start + time.Duration(ns), Calls: calls, Req: -1})
}

// leafAcc accumulates the time, count, bytes and hits of one short leaf
// function called from any goroutine.
type leafAcc struct {
	ns, calls, bytes, hits atomic.Int64
	totalNs, totalCalls    atomic.Int64 // not reset by tracer.leaf
}

func (a *leafAcc) add(d time.Duration, n int) {
	a.ns.Add(int64(d))
	a.calls.Add(1)
	a.bytes.Add(int64(n))
	a.totalNs.Add(int64(d))
	a.totalCalls.Add(1)
}

// pred is a timing and counting geom.Intersects, passed as
// JoinOptions.Predicate or SessionConfig.Predicate.
func (a *leafAcc) pred(x, y geom.Geometry) bool {
	t := time.Now()
	hit := geom.Intersects(x, y)
	a.add(time.Since(t), 0)
	if hit {
		a.hits.Add(1)
	}
	return hit
}

// timedParser wraps a core.Parser with a timer and byte counter. It keeps
// the ParserCloner contract, so the reader's parallel parse path would
// give each worker a timed clone sharing the accumulator.
type timedParser struct {
	p   core.Parser
	acc *leafAcc
}

func (tp *timedParser) Parse(rec []byte) (geom.Geometry, error) {
	t := time.Now()
	g, err := tp.p.Parse(rec)
	tp.acc.add(time.Since(t), len(rec))
	return g, err
}

func (tp *timedParser) CloneParser() core.Parser {
	p := tp.p
	if pc, ok := p.(core.ParserCloner); ok {
		p = pc.CloneParser()
	}
	return &timedParser{p: p, acc: tp.acc}
}

// layerRow is one line of the self-time table.
type layerRow struct {
	name         string
	spans, calls int64
	total, self  float64
}

// selfTimes groups the spans under the roots by name: total time, and self
// time — total minus the time its direct children cover.
func (t *tracer) selfTimes(roots ...int) []layerRow {
	t.mu.Lock()
	defer t.mu.Unlock()
	under := make(map[int]bool)
	for _, r := range roots {
		under[r] = true
	}
	// Spans are appended in begin order, so a parent precedes its children.
	childTime := make(map[int]time.Duration)
	for _, s := range t.spans {
		if under[s.Parent] {
			under[s.ID] = true
			childTime[s.Parent] += s.End - s.Start
		}
	}
	rows := make(map[string]*layerRow)
	var order []string
	for _, s := range t.spans {
		if !under[s.ID] || isRoot(s.ID, roots) {
			continue
		}
		r := rows[s.Name]
		if r == nil {
			r = &layerRow{name: s.Name}
			rows[s.Name] = r
			order = append(order, s.Name)
		}
		d := s.End - s.Start
		r.spans++
		r.calls += max(s.Calls, 1)
		r.total += d.Seconds()
		r.self += (d - childTime[s.ID]).Seconds()
	}
	out := make([]layerRow, 0, len(order))
	for _, n := range order {
		out = append(out, *rows[n])
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].self > out[j].self })
	return out
}

func isRoot(id int, roots []int) bool {
	for _, r := range roots {
		if r == id {
			return true
		}
	}
	return false
}

// printSelfTimes writes the self-time table for the spans under roots.
func (t *tracer) printSelfTimes(w io.Writer, title string, roots ...int) {
	rows := t.selfTimes(roots...)
	var all float64
	for _, r := range rows {
		all += r.self
	}
	fmt.Fprintf(w, "%s — self time by layer (summed over ranks)\n", title)
	fmt.Fprintf(w, "  %-30s %8s %10s %10s %10s %7s\n", "span", "spans", "calls", "total_s", "self_s", "self%")
	for _, r := range rows {
		fmt.Fprintf(w, "  %-30s %8d %10d %10.4f %10.4f %6.1f%%\n", r.name, r.spans, r.calls, r.total, r.self, 100*r.self/all)
	}
}

// writeChrome writes every span as Chrome trace-event JSON ("X" complete
// events, microseconds), which Perfetto and chrome://tracing open. Each
// rank is a thread; aggregated leaf spans get their own thread per rank so
// they never break the nesting of the real calls.
func (t *tracer) writeChrome(path string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	type event struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		Args map[string]any `json:"args"`
	}
	type meta struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		Args map[string]any `json:"args"`
	}
	var events []any
	named := make(map[int]bool)
	for _, s := range t.spans {
		tid := s.Rank + 1
		label := fmt.Sprintf("rank %d", s.Rank)
		if s.Rank < 0 {
			label = "harness"
		}
		if s.Calls > 0 {
			tid += 100
			label += " (aggregated leaf calls)"
		}
		if !named[tid] {
			named[tid] = true
			events = append(events, meta{Name: "thread_name", Ph: "M", Pid: 1, Tid: tid, Args: map[string]any{"name": label}})
		}
		args := map[string]any{"id": s.ID, "parent": s.Parent}
		if s.Calls > 0 {
			args["calls"] = s.Calls
		}
		if s.Req >= 0 {
			args["req"] = s.Req
		}
		events = append(events, event{Name: s.Name, Ph: "X", Ts: float64(s.Start) / 1e3,
			Dur: float64(s.End-s.Start) / 1e3, Pid: 1, Tid: tid, Args: args})
	}
	data, err := json.Marshal(map[string]any{"traceEvents": events, "displayTimeUnit": "ms"})
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
