package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// The traced pass records one span around every call the harness makes
// into a layer's public functions. Spans live in memory and are written
// out when the workload ends. A nil *tracer (the untraced pass) records
// nothing, so end-to-end numbers never pay for the recording.

// span is one timed call. Op groups the spans of one operation (0 for
// set-up and probes); Parent is the span that caused it (0 for a root).
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Op     int    `json:"op"`
	Name   string `json:"name"`
	// Start and End are microseconds since the trace began.
	Start  int64 `json:"start_us"`
	End    int64 `json:"end_us"`
	SelfUS int64 `json:"self_us"`
}

type tracer struct {
	t0 time.Time

	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// handle is an open span. The zero handle (from a nil tracer) is inert.
type handle struct {
	tr *tracer
	id int
	op int
}

// begin opens a root span of operation op.
func (t *tracer) begin(op int, name string) handle {
	return t.open(0, op, name)
}

// child opens a span caused by h.
func (h handle) child(name string) handle {
	return h.tr.open(h.id, h.op, name)
}

func (t *tracer) open(parent, op int, name string) handle {
	if t == nil {
		return handle{}
	}
	now := time.Since(t.t0).Microseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Op: op, Name: name, Start: now, End: -1})
	return handle{tr: t, id: id, op: op}
}

func (h handle) end() {
	if h.tr == nil {
		return
	}
	now := time.Since(h.tr.t0).Microseconds()
	h.tr.mu.Lock()
	h.tr.spans[h.id-1].End = now
	h.tr.mu.Unlock()
}

// finished returns the closed spans with self times filled in.
func (t *tracer) finished() []span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []span
	for _, s := range t.spans {
		if s.End >= s.Start {
			out = append(out, s)
		}
	}
	fillSelf(out)
	return out
}

// fillSelf sets each span's self time: its duration minus the part of its
// interval that its child spans cover. Children may overlap each other
// (concurrent calls), so the covered part is the union of their intervals,
// clipped to the parent.
func fillSelf(spans []span) {
	children := map[int][]span{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	for i := range spans {
		p := &spans[i]
		kids := children[p.ID]
		sort.Slice(kids, func(a, b int) bool { return kids[a].Start < kids[b].Start })
		covered, upTo := int64(0), p.Start
		for _, k := range kids {
			lo, hi := k.Start, k.End
			if lo < upTo {
				lo = upTo
			}
			if hi > p.End {
				hi = p.End
			}
			if hi > lo {
				covered += hi - lo
				upTo = hi
			}
		}
		p.SelfUS = p.End - p.Start - covered
	}
}

// durationsMS lists the durations, in milliseconds, of the spans called name.
func durationsMS(spans []span, name string) []float64 {
	var out []float64
	for _, s := range spans {
		if s.Name == name {
			out = append(out, float64(s.End-s.Start)/1e3)
		}
	}
	return out
}

// spanSummary is one row of the per-name roll-up printed and written with
// the trace.
type spanSummary struct {
	Name    string  `json:"name"`
	Count   int     `json:"count"`
	TotalMS float64 `json:"total_ms"`
	SelfMS  float64 `json:"self_ms"`
}

func summarize(spans []span) []spanSummary {
	byName := map[string]*spanSummary{}
	var names []string
	for _, s := range spans {
		r := byName[s.Name]
		if r == nil {
			r = &spanSummary{Name: s.Name}
			byName[s.Name] = r
			names = append(names, s.Name)
		}
		r.Count++
		r.TotalMS += float64(s.End-s.Start) / 1e3
		r.SelfMS += float64(s.SelfUS) / 1e3
	}
	sort.Strings(names)
	out := make([]spanSummary, 0, len(names))
	for _, n := range names {
		out = append(out, *byName[n])
	}
	return out
}

// traceFile is what trace-<workload>.json holds.
type traceFile struct {
	Workload string        `json:"workload"`
	Seed     int64         `json:"seed"`
	Host     hostInfo      `json:"host"`
	Summary  []spanSummary `json:"summary"`
	Spans    []span        `json:"spans"`
}

func writeTrace(path string, tf traceFile) error {
	b, err := json.Marshal(tf)
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
