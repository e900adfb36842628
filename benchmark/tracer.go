package main

import (
	"encoding/json"
	"os"
	"sort"
	"strings"
	"sync"
	"time"
)

// span is one timed call into a layer. Parent 0 marks a root: the
// benchmark's own set-up, unit or probe span. Times are nanoseconds since
// the tracer started.
type span struct {
	Name   string `json:"name"`
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// layer is the module a span's name belongs to: the text before the
// first dot ("core.Analyze" -> "core").
func (s span) layer() string {
	l, _, _ := strings.Cut(s.Name, ".")
	return l
}

// tracer keeps spans in memory. It is safe for concurrent use: runner
// workers open spans from their own goroutines. While off, begin returns
// id 0 and end ignores it, so untraced work pays one branch per call.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	on    bool
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span under parent and returns its id (0 when off).
func (t *tracer) begin(name string, parent int) int {
	if t == nil {
		return 0
	}
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	defer t.mu.Unlock()
	if !t.on {
		return 0
	}
	t.spans = append(t.spans, span{Name: name, ID: len(t.spans) + 1, Parent: parent, Start: now})
	return len(t.spans)
}

// end closes the span id; id 0 is a no-op.
func (t *tracer) end(id int) {
	if t == nil || id == 0 {
		return
	}
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	t.spans[id-1].End = now
	t.mu.Unlock()
}

// setOn switches recording on or off.
func (t *tracer) setOn(on bool) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.on = on
	t.mu.Unlock()
}

// snapshot returns a copy of the recorded spans.
func (t *tracer) snapshot() []span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// write saves the spans as JSON.
func (t *tracer) write(path string) error {
	raw, err := json.Marshal(t.snapshot())
	if err != nil {
		return err
	}
	return os.WriteFile(path, raw, 0o644)
}

// spanTree indexes spans for queries by root and name.
type spanTree struct {
	spans    []span
	children map[int][]int // parent id -> child ids
}

func newSpanTree(spans []span) *spanTree {
	t := &spanTree{spans: spans, children: make(map[int][]int)}
	for _, s := range spans {
		t.children[s.Parent] = append(t.children[s.Parent], s.ID)
	}
	return t
}

func (t *spanTree) get(id int) span { return t.spans[id-1] }

// roots returns the root spans with the given name.
func (t *spanTree) roots(name string) []span {
	var out []span
	for _, id := range t.children[0] {
		if s := t.get(id); s.Name == name {
			out = append(out, s)
		}
	}
	return out
}

// under returns every descendant of id named name.
func (t *spanTree) under(id int, name string) []span {
	var out []span
	for _, c := range t.children[id] {
		s := t.get(c)
		if s.Name == name {
			out = append(out, s)
		}
		out = append(out, t.under(c, name)...)
	}
	return out
}

// selfTime is a span's duration minus the part of its interval that its
// children cover. Children of one span may run concurrently (runner
// workers), so their intervals are merged before subtracting.
func (t *spanTree) selfTime(s span) time.Duration {
	type iv struct{ a, b int64 }
	var ivs []iv
	for _, c := range t.children[s.ID] {
		cs := t.get(c)
		a, b := max(cs.Start, s.Start), min(cs.End, s.End)
		if b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	var covered, hi int64
	hi = s.Start
	for _, v := range ivs {
		if v.b <= hi {
			continue
		}
		covered += v.b - max(v.a, hi)
		hi = v.b
	}
	return s.dur() - time.Duration(covered)
}

// coveredTime is the union of the intervals of the spans named name
// under root (children of one parent may overlap).
func (t *spanTree) coveredTime(root span, name string) time.Duration {
	ss := t.under(root.ID, name)
	sort.Slice(ss, func(i, j int) bool { return ss[i].Start < ss[j].Start })
	var covered, hi int64
	for _, s := range ss {
		if s.End <= hi {
			continue
		}
		covered += s.End - max(s.Start, hi)
		hi = s.End
	}
	return time.Duration(covered)
}

// selfByLayer sums self time per layer over every span; the benchmark's
// own root spans count as layer "bench" (time no layer call covers).
func (t *spanTree) selfByLayer() map[string]time.Duration {
	out := make(map[string]time.Duration)
	for _, s := range t.spans {
		out[s.layer()] += t.selfTime(s)
	}
	return out
}

// rootTime sums the durations of all root spans: the traced wall time.
func (t *spanTree) rootTime() time.Duration {
	var d time.Duration
	for _, id := range t.children[0] {
		d += t.get(id).dur()
	}
	return d
}
