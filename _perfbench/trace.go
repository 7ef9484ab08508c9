package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded from the benchmark's own
// files. Spans of one operation share Op; Parent is the index of the span
// that caused it (-1 for an operation's root). Rank is the virtual
// processor that made the call, or -1 outside a world run.
type span struct {
	Name       string
	Start, End time.Duration // since the tracer's epoch
	Parent     int
	Op         int
	Rank       int
}

// tracer keeps spans in memory until the run ends. A nil *tracer records
// nothing, so untraced runs take the same code path at the cost of a nil
// check per call.
type tracer struct {
	mu    sync.Mutex
	epoch time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// begin opens a span and returns its id for end and for children.
func (t *tracer) begin(name string, parent, op, rank int) int {
	if t == nil {
		return -1
	}
	now := time.Since(t.epoch)
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Name: name, Start: now, End: -1, Parent: parent, Op: op, Rank: rank})
	return len(t.spans) - 1
}

func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	now := time.Since(t.epoch)
	t.mu.Lock()
	t.spans[id].End = now
	t.mu.Unlock()
}

// record adds a span whose start and end were taken by the caller.
func (t *tracer) record(name string, parent, op, rank int, start, end time.Time) int {
	if t == nil {
		return -1
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Name: name, Start: start.Sub(t.epoch), End: end.Sub(t.epoch),
		Parent: parent, Op: op, Rank: rank})
	return len(t.spans) - 1
}

// do runs f inside a span.
func (t *tracer) do(name string, parent, op, rank int, f func()) {
	id := t.begin(name, parent, op, rank)
	f()
	t.end(id)
}

// snapshot returns the spans recorded so far.
func (t *tracer) snapshot() []span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// covered returns how much of [lo, hi) the given child intervals cover,
// counting overlapping children once.
func covered(lo, hi time.Duration, kids []span) time.Duration {
	sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
	var total time.Duration
	cur := lo
	for _, k := range kids {
		s, e := max(k.Start, cur), min(k.End, hi)
		if e > s {
			total += e - s
			cur = e
		}
	}
	return total
}

// children indexes spans by parent.
func children(spans []span) map[int][]span {
	kids := make(map[int][]span)
	for _, s := range spans {
		if s.Parent >= 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	return kids
}

// selfTime is a span's duration minus the part its children cover.
func selfTime(id int, spans []span, kids map[int][]span) time.Duration {
	s := spans[id]
	return s.End - s.Start - covered(s.Start, s.End, kids[id])
}

// writeChrome writes the spans as Chrome trace-event JSON (complete "X"
// events, one thread per rank) for chrome://tracing or Perfetto.
func writeChrome(path string, spans []span) error {
	type event struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		Args map[string]int `json:"args"`
	}
	events := make([]event, 0, len(spans))
	for i, s := range spans {
		if s.End < 0 {
			continue
		}
		events = append(events, event{
			Name: s.Name, Ph: "X",
			Ts:  float64(s.Start) / float64(time.Microsecond),
			Dur: float64(s.End-s.Start) / float64(time.Microsecond),
			Pid: s.Op, Tid: s.Rank + 1,
			Args: map[string]int{"id": i, "parent": s.Parent, "op": s.Op, "rank": s.Rank},
		})
	}
	buf, err := json.Marshal(map[string]any{"traceEvents": events})
	if err != nil {
		return err
	}
	return os.WriteFile(path, buf, 0o644)
}
