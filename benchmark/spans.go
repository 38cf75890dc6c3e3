package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"time"
)

// span is one timed call into a layer, recorded from outside the
// program. Spans of one batch share Batch; Parent is the ID of the span
// that caused this one (-1 for a root). Times are nanoseconds since the
// recorder was made.
type span struct {
	ID      int    `json:"id"`
	Parent  int    `json:"parent"`
	Batch   int    `json:"batch"`
	Name    string `json:"name"`
	StartNs int64  `json:"start_ns"`
	EndNs   int64  `json:"end_ns"`
}

// recorder keeps spans in memory until the run ends. It is used from
// one goroutine at a time.
type recorder struct {
	t0    time.Time
	spans []span
}

func newRecorder() *recorder { return &recorder{t0: time.Now()} }

// start opens a span and returns its ID.
func (r *recorder) start(name string, parent, batch int) int {
	id := len(r.spans)
	r.spans = append(r.spans, span{ID: id, Parent: parent, Batch: batch, Name: name, StartNs: int64(time.Since(r.t0))})
	return id
}

// end closes the span and returns its duration.
func (r *recorder) end(id int) time.Duration {
	s := &r.spans[id]
	s.EndNs = int64(time.Since(r.t0))
	return time.Duration(s.EndNs - s.StartNs)
}

// write stores the spans as one JSON document.
func (r *recorder) write(path string, workload string, seed int64) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	data, err := json.Marshal(struct {
		Workload string `json:"workload"`
		Seed     int64  `json:"seed"`
		Spans    []span `json:"spans"`
	}{workload, seed, r.spans})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
