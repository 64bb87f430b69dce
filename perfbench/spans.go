package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"
)

// span is one client-side interval around a call into the program: a
// simulation's construction or run, or one stage of a service job. Spans of
// one operation share their root's id through parent links.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent,omitempty"`
	Name   string `json:"name"`
	// StartNS and EndNS are nanoseconds since the recorder was created.
	StartNS int64 `json:"start_ns"`
	EndNS   int64 `json:"end_ns"`
}

// spanRecorder keeps spans in memory until the benchmark ends. A nil
// recorder records nothing, so untraced phases pay only a nil check.
type spanRecorder struct {
	origin time.Time
	mu     sync.Mutex
	spans  []span
}

func newSpanRecorder() *spanRecorder { return &spanRecorder{origin: time.Now()} }

// add records [start, end] under parent (0 for a root) and returns its id.
func (r *spanRecorder) add(parent int, name string, start, end time.Time) int {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	id := len(r.spans) + 1
	r.spans = append(r.spans, span{
		ID: id, Parent: parent, Name: name,
		StartNS: start.Sub(r.origin).Nanoseconds(),
		EndNS:   end.Sub(r.origin).Nanoseconds(),
	})
	return id
}

// write stores the spans as JSON Lines at path.
func (r *spanRecorder) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, s := range r.spans {
		if err := enc.Encode(s); err != nil {
			return fmt.Errorf("encode span: %w", err)
		}
	}
	if err := w.Flush(); err != nil {
		return err
	}
	return f.Close()
}
