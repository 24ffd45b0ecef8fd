package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sync"
	"time"
)

// span is one recorded interval at a benchmark call boundary. Parent 0
// is the root.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Name   string `json:"name"`
	// StartNS/EndNS are nanoseconds since the recorder was created.
	StartNS int64 `json:"start_ns"`
	EndNS   int64 `json:"end_ns"`
}

// recorder keeps spans in memory until the run ends. A nil recorder
// records nothing, which is how untraced runs stay untraced.
type recorder struct {
	epoch time.Time
	mu    sync.Mutex
	spans []span
}

func newRecorder() *recorder { return &recorder{epoch: time.Now()} }

// add records a finished span and returns its ID (0 on a nil recorder).
func (r *recorder) add(parent int64, name string, start, end time.Time) int64 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	id := int64(len(r.spans) + 1)
	r.spans = append(r.spans, span{ID: id, Parent: parent, Name: name,
		StartNS: int64(start.Sub(r.epoch)), EndNS: int64(end.Sub(r.epoch))})
	return id
}

// reserve allocates an ID for a span whose end is not known yet, so its
// children can name it; close fills it in.
func (r *recorder) reserve(parent int64, name string) int64 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	id := int64(len(r.spans) + 1)
	r.spans = append(r.spans, span{ID: id, Parent: parent, Name: name})
	return id
}

func (r *recorder) close(id int64, start, end time.Time) {
	if r == nil || id == 0 {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	s := &r.spans[id-1]
	s.StartNS, s.EndNS = int64(start.Sub(r.epoch)), int64(end.Sub(r.epoch))
}

// selfTotals sums each span name's self time: its duration minus the
// part its children cover (children never overlap one another here).
func (r *recorder) selfTotals() map[string]time.Duration {
	r.mu.Lock()
	defer r.mu.Unlock()
	child := make(map[int64]int64)
	for _, s := range r.spans {
		if s.Parent != 0 {
			child[s.Parent] += s.EndNS - s.StartNS
		}
	}
	out := make(map[string]time.Duration)
	for _, s := range r.spans {
		out[s.Name] += time.Duration(s.EndNS - s.StartNS - child[s.ID])
	}
	return out
}

// write dumps the spans as JSON.
func (r *recorder) write(dir, name string) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	blob, err := json.Marshal(r.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, name), blob, 0o644)
}
