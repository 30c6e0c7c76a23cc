package main

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"sync"
	"time"
)

// span is one timed call at a layer boundary.  Spans of one request share
// its identifier; Parent names the span (or ladder rung) that caused it.
// Times are nanoseconds since the tracer was created.
type span struct {
	Name    string `json:"name"`
	Parent  string `json:"parent,omitempty"`
	Request int    `json:"request"`
	Start   int64  `json:"start_ns"`
	End     int64  `json:"end_ns"`
}

// tracer keeps spans in memory and writes them out when the run ends.  A nil
// tracer records nothing, which is how the untraced run pays nothing.
type tracer struct {
	t0 time.Time
	mu sync.Mutex
	sp []span
}

func newTracer() *tracer { return &tracer{t0: time.Now(), sp: make([]span, 0, 1<<14)} }

func (t *tracer) add(name, parent string, request int, start, end time.Time) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.sp = append(t.sp, span{Name: name, Parent: parent, Request: request,
		Start: start.Sub(t.t0).Nanoseconds(), End: end.Sub(t.t0).Nanoseconds()})
	t.mu.Unlock()
}

// write stores the spans as JSON lines in dir/<workload>.trace.jsonl.
func (t *tracer) write(dir, workload string) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, workload+".trace.jsonl")
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	defer t.mu.Unlock()
	for i := range t.sp {
		if err := enc.Encode(&t.sp[i]); err != nil {
			f.Close()
			return "", err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return "", err
	}
	return path, f.Close()
}
