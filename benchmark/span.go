package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// Span is one timed interval at a layer boundary. Times are nanoseconds
// since the recorder's epoch; Parent is the causing span's ID (-1 for a
// root), so the spans of one request or one repeat form a tree.
type Span struct {
	ID     int
	Parent int
	Name   string
	Track  int // Perfetto tid: one lane per client / server / collector
	Start  int64
	End    int64
}

// Recorder keeps spans in memory until the run ends. A nil *Recorder is
// tracing off: every method is a no-op, so call sites stay unconditional and
// the untraced pass pays one nil check.
type Recorder struct {
	epoch time.Time
	mu    sync.Mutex
	spans []Span
}

// newRecorder starts a recorder whose clock reads 0 at epoch.
func newRecorder(epoch time.Time) *Recorder { return &Recorder{epoch: epoch} }

// now returns nanoseconds since the epoch (0 on nil).
func (r *Recorder) now() int64 {
	if r == nil {
		return 0
	}
	return time.Since(r.epoch).Nanoseconds()
}

// at converts a wall-clock instant to recorder time.
func (r *Recorder) at(t time.Time) int64 {
	if r == nil {
		return 0
	}
	return t.Sub(r.epoch).Nanoseconds()
}

// add records a finished span and returns its ID (-1 on nil).
func (r *Recorder) add(name string, parent, track int, start, end int64) int {
	if r == nil {
		return -1
	}
	r.mu.Lock()
	id := len(r.spans)
	r.spans = append(r.spans, Span{ID: id, Parent: parent, Name: name, Track: track, Start: start, End: end})
	r.mu.Unlock()
	return id
}

// reserve allocates an ID for a span whose end is not known yet, so children
// (a server.handle under a client.request) can name it as their parent.
func (r *Recorder) reserve(name string, parent, track int) int {
	return r.add(name, parent, track, r.now(), 0)
}

// finish closes a reserved span.
func (r *Recorder) finish(id int) {
	if r == nil || id < 0 {
		return
	}
	end := r.now()
	r.mu.Lock()
	r.spans[id].End = end
	r.mu.Unlock()
}

// snapshot returns a copy of the recorded spans.
func (r *Recorder) snapshot() []Span {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]Span(nil), r.spans...)
}

// selfTimes returns, per span ID, the span's duration minus the part of its
// interval that its children cover. Children may overlap each other (a
// vm.pause and the gc phases inside it) and may stick out of the parent
// (clock placement from durations); coverage is the union, clipped to the
// parent.
func selfTimes(spans []Span) []int64 {
	children := make(map[int][]int, len(spans))
	for _, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], s.ID)
		}
	}
	self := make([]int64, len(spans))
	for _, s := range spans {
		dur := s.End - s.Start
		kids := children[s.ID]
		if len(kids) == 0 {
			self[s.ID] = dur
			continue
		}
		sort.Slice(kids, func(i, j int) bool { return spans[kids[i]].Start < spans[kids[j]].Start })
		var covered int64
		cursor := s.Start
		for _, k := range kids {
			lo, hi := spans[k].Start, spans[k].End
			if lo < cursor {
				lo = cursor
			}
			if hi > s.End {
				hi = s.End
			}
			if hi > lo {
				covered += hi - lo
				cursor = hi
			}
		}
		self[s.ID] = dur - covered
	}
	return self
}

// writePerfetto writes spans as a Chrome trace-event JSON array, the format
// ui.perfetto.dev and chrome://tracing load directly.
func writePerfetto(path string, spans []Span) error {
	type event struct {
		Name string         `json:"name"`
		Cat  string         `json:"cat"`
		Ph   string         `json:"ph"`
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		TS   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		Args map[string]int `json:"args"`
	}
	events := make([]event, 0, len(spans))
	for _, s := range spans {
		events = append(events, event{
			Name: s.Name, Cat: layerOf(s.Name), Ph: "X", Pid: 1, Tid: s.Track,
			TS: float64(s.Start) / 1e3, Dur: float64(s.End-s.Start) / 1e3,
			Args: map[string]int{"id": s.ID, "parent": s.Parent},
		})
	}
	data, err := json.Marshal(events)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// layerOf returns the layer prefix of a dotted span or metric name.
func layerOf(name string) string {
	for i := 0; i < len(name); i++ {
		if name[i] == '.' {
			return name[:i]
		}
	}
	return name
}
