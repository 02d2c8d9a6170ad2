package main

// trace.go records spans from outside the program: the traced run wraps
// each call into a layer's public function, on the same inputs the
// measured run used, in a span. Spans stay in memory until the run ends
// and are then written to one JSON-lines file.

import (
	"bufio"
	"encoding/json"
	"os"
	"time"
)

// span is one timed call. Parent is the id of the span whose work this
// call stands for (0 = none); where the parent ran behind HTTP the child
// is the directly timed call on the same input, so a span's self time is
// its duration minus its children's durations, not minus their overlap.
type span struct {
	ID      int                `json:"id"`
	Parent  int                `json:"parent"`
	Op      int                `json:"op"`
	Name    string             `json:"name"`
	StartNs int64              `json:"start_ns"`
	EndNs   int64              `json:"end_ns"`
	Counts  map[string]float64 `json:"counts,omitempty"`
}

type tracer struct {
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// start opens a span and returns its id.
func (t *tracer) start(name string, parent, op int) int {
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Op: op, Name: name})
	s := &t.spans[len(t.spans)-1]
	s.StartNs = int64(time.Since(t.t0))
	return s.ID
}

// end closes the span and returns its duration.
func (t *tracer) end(id int) time.Duration {
	s := &t.spans[id-1]
	s.EndNs = int64(time.Since(t.t0))
	return time.Duration(s.EndNs - s.StartNs)
}

// count attaches a count taken at the span's boundary.
func (t *tracer) count(id int, key string, v float64) {
	s := &t.spans[id-1]
	if s.Counts == nil {
		s.Counts = map[string]float64{}
	}
	s.Counts[key] = v
}

// durations lists, in ms, every span of the given name.
func (t *tracer) durations(name string) []float64 {
	var out []float64
	for _, s := range t.spans {
		if s.Name == name {
			out = append(out, float64(s.EndNs-s.StartNs)/1e6)
		}
	}
	return out
}

// selfTimes lists, in ms, the duration of every span of the given name
// minus the durations of its direct children.
func (t *tracer) selfTimes(name string) []float64 {
	child := make(map[int]int64)
	for _, s := range t.spans {
		if s.Parent != 0 {
			child[s.Parent] += s.EndNs - s.StartNs
		}
	}
	var out []float64
	for _, s := range t.spans {
		if s.Name == name {
			out = append(out, float64(s.EndNs-s.StartNs-child[s.ID])/1e6)
		}
	}
	return out
}

// counts lists the named count of every span of the given name.
func (t *tracer) counts(name, key string) []float64 {
	var out []float64
	for _, s := range t.spans {
		if v, ok := s.Counts[key]; ok && s.Name == name {
			out = append(out, v)
		}
	}
	return out
}

func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range t.spans {
		if err := enc.Encode(&t.spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
