package main

import (
	"bufio"
	"compress/gzip"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"
)

// span is one timed call into a layer. Spans of one operation share Op
// across layers; Parent names the layer whose call caused this one.
type span struct {
	Name   string `json:"name"`
	Op     int64  `json:"op"`
	Parent string `json:"parent,omitempty"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory; write dumps them when the run ends. A
// nil *tracer records nothing.
type tracer struct {
	base  time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{base: time.Now()} }

func (t *tracer) add(name string, op int64, parent string, start, end time.Time) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.spans = append(t.spans, span{name, op, parent, int64(start.Sub(t.base)), int64(end.Sub(t.base))})
	t.mu.Unlock()
}

func (t *tracer) count() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.spans)
}

// write stores the spans as gzip-compressed JSON lines under dir.
func (t *tracer) write(dir, name string) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, name)
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	defer f.Close()
	zw, err := gzip.NewWriterLevel(f, gzip.BestSpeed)
	if err != nil {
		return "", err
	}
	w := bufio.NewWriter(zw)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	defer t.mu.Unlock()
	for i := range t.spans {
		if err := enc.Encode(&t.spans[i]); err != nil {
			return "", fmt.Errorf("write trace: %w", err)
		}
	}
	if err := w.Flush(); err != nil {
		return "", fmt.Errorf("write trace: %w", err)
	}
	if err := zw.Close(); err != nil {
		return "", fmt.Errorf("write trace: %w", err)
	}
	return path, f.Close()
}
