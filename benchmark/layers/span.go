//go:build benchlayers

package main

import (
	"encoding/json"
	"os"
	"time"
)

// span is one timed call into a layer. Spans live in memory until
// the probe ends; nothing is written while anything is being timed.
type span struct {
	ID       int    `json:"id"`
	Parent   int    `json:"parent"` // 0 for the root
	Name     string `json:"name"`
	Workload string `json:"workload"`
	StartNs  int64  `json:"start_ns"`
	EndNs    int64  `json:"end_ns"`
	// SelfNs is the span's duration minus what its children cover.
	SelfNs int64 `json:"self_ns"`
}

// recorder is the benchmark's own span recorder: a stack of open
// spans on one goroutine.
type recorder struct {
	workload string
	origin   time.Time
	spans    []span
	open     []int // indexes into spans
}

func newRecorder(workload string) *recorder {
	return &recorder{workload: workload, origin: time.Now()}
}

// time runs fn inside a span named name, a child of whatever span is
// open, and returns how long fn took.
func (r *recorder) time(name string, fn func() error) (time.Duration, error) {
	parent := 0
	if n := len(r.open); n > 0 {
		parent = r.spans[r.open[n-1]].ID
	}
	idx := len(r.spans)
	r.spans = append(r.spans, span{ID: idx + 1, Parent: parent, Name: name, Workload: r.workload})
	r.open = append(r.open, idx)
	start := time.Now()
	err := fn()
	end := time.Now()
	r.open = r.open[:len(r.open)-1]
	s := &r.spans[idx]
	s.StartNs, s.EndNs = start.Sub(r.origin).Nanoseconds(), end.Sub(r.origin).Nanoseconds()
	return end.Sub(start), err
}

// write computes self times and stores every span as JSON.
func (r *recorder) write(path string) error {
	for i := range r.spans {
		r.spans[i].SelfNs = r.spans[i].EndNs - r.spans[i].StartNs
	}
	for _, s := range r.spans {
		if s.Parent > 0 {
			r.spans[s.Parent-1].SelfNs -= s.EndNs - s.StartNs
		}
	}
	b, err := json.MarshalIndent(r.spans, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
