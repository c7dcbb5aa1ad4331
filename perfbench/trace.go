package main

import (
	"encoding/json"
	"os"
	"sort"
	"strings"
	"sync"
	"time"
)

// A span is one call the benchmark made into a layer. The layer is the
// name's prefix up to the first dot ("store.append" is in "store").
// Spans of one request share ReqID; Parent is 0 for a root span.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent,omitempty"`
	ReqID  int64  `json:"req"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the tracer's epoch
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. A nil *tracer is
// valid and records nothing, which is how untraced code paths run.
type tracer struct {
	epoch time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// begin opens a span and returns its id; end closes it. Spans may be
// opened from several goroutines.
func (t *tracer) begin(name string, parent int, req int64) int {
	if t == nil {
		return 0
	}
	now := time.Since(t.epoch).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, ReqID: req, Name: name, Start: now})
	return len(t.spans)
}

func (t *tracer) end(id int) {
	if t == nil || id == 0 {
		return
	}
	now := time.Since(t.epoch).Nanoseconds()
	t.mu.Lock()
	t.spans[id-1].End = now
	t.mu.Unlock()
}

// do runs fn inside a span and returns the span's duration.
func (t *tracer) do(name string, parent int, req int64, fn func(id int)) time.Duration {
	start := time.Now()
	id := t.begin(name, parent, req)
	fn(id)
	t.end(id)
	return time.Since(start)
}

func layerOf(name string) string {
	if i := strings.IndexByte(name, '.'); i >= 0 {
		return name[:i]
	}
	return name
}

// selfTimes sums, per layer, each span's duration minus the part of it
// that its child spans cover, in milliseconds.
func (t *tracer) selfTimes() map[string]float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	child := make(map[int][]span)
	for _, s := range t.spans {
		if s.Parent != 0 {
			child[s.Parent] = append(child[s.Parent], s)
		}
	}
	out := make(map[string]float64)
	for _, s := range t.spans {
		self := s.End - s.Start - covered(s, child[s.ID])
		out[layerOf(s.Name)] += float64(self) / 1e6
	}
	return out
}

// covered is the length of the union of the children's intervals,
// clipped to the parent's.
func covered(parent span, kids []span) int64 {
	if len(kids) == 0 {
		return 0
	}
	sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
	var total int64
	curStart, curEnd := int64(-1), int64(-1)
	for _, k := range kids {
		s, e := max(k.Start, parent.Start), min(k.End, parent.End)
		if e <= s {
			continue
		}
		if s > curEnd {
			total += curEnd - curStart
			curStart, curEnd = s, e
			continue
		}
		curEnd = max(curEnd, e)
	}
	return total + curEnd - curStart
}

func (t *tracer) count() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.spans)
}

// write dumps every span as one JSON document.
func (t *tracer) write(path string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	b, err := json.Marshal(struct {
		Epoch string `json:"epoch"`
		Spans []span `json:"spans"`
	}{t.epoch.UTC().Format(time.RFC3339Nano), t.spans})
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
