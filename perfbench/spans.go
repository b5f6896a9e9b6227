package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// span is one layer boundary crossing seen from the benchmark. A span
// that stands for many fine-grained calls (every lsq.Model call of one
// run, say) aggregates them: Calls counts them and BusyNs sums their
// durations, while Start and End bound the parent interval they fell
// in. For a single call BusyNs is End-Start.
type span struct {
	Run    int64  `json:"run"` // the request every span of one run or read shares
	ID     int64  `json:"id"`
	Parent int64  `json:"parent,omitempty"`
	Name   string `json:"name"`
	Attr   string `json:"attr,omitempty"`
	Start  int64  `json:"start_ns"` // since the recorder started
	End    int64  `json:"end_ns"`
	Calls  int64  `json:"calls"`
	BusyNs int64  `json:"busy_ns"`
}

// recorder keeps spans in memory until the benchmark ends.
type recorder struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
	runs  int64
}

func newRecorder() *recorder { return &recorder{t0: time.Now()} }

func (r *recorder) at(t time.Time) int64 { return int64(t.Sub(r.t0)) }

// newRun returns a fresh request identifier.
func (r *recorder) newRun() int64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.runs++
	return r.runs
}

// add stores s, assigns its ID and returns it.
func (r *recorder) add(s span) int64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	s.ID = int64(len(r.spans)) + 1
	r.spans = append(r.spans, s)
	return s.ID
}

// begin opens a single-call span and returns its ID.
func (r *recorder) begin(run, parent int64, name, attr string) int64 {
	return r.add(span{Run: run, Parent: parent, Name: name, Attr: attr, Start: r.at(time.Now()), Calls: 1})
}

// end closes a span begin opened.
func (r *recorder) end(id int64) {
	now := r.at(time.Now())
	r.mu.Lock()
	defer r.mu.Unlock()
	s := &r.spans[id-1]
	s.End, s.BusyNs = now, now-s.Start
}

// interval records a single-call span from start to end.
func (r *recorder) interval(run, parent int64, name, attr string, start, end time.Time) int64 {
	return r.add(span{Run: run, Parent: parent, Name: name, Attr: attr,
		Start: r.at(start), End: r.at(end), Calls: 1, BusyNs: int64(end.Sub(start))})
}

// layerTime is a layer's calls and self time summed over its spans.
type layerTime struct{ calls, selfNs int64 }

// selfTimes returns each span name's self time: its busy time minus
// the part its child spans cover. Single-call children cover the union
// of their intervals, since concurrent ones overlap; an aggregated
// child covers its busy time.
func (r *recorder) selfTimes() map[string]layerTime {
	r.mu.Lock()
	defer r.mu.Unlock()
	type iv struct{ start, end int64 }
	children := map[int64][]iv{}
	aggBusy := map[int64]int64{}
	for _, s := range r.spans {
		switch {
		case s.Parent == 0:
		case s.Calls == 1:
			children[s.Parent] = append(children[s.Parent], iv{s.Start, s.End})
		default:
			aggBusy[s.Parent] += s.BusyNs
		}
	}
	out := map[string]layerTime{}
	for _, s := range r.spans {
		covered := aggBusy[s.ID]
		ivs := children[s.ID]
		sort.Slice(ivs, func(i, j int) bool { return ivs[i].start < ivs[j].start })
		var reach int64 = math.MinInt64
		for _, c := range ivs {
			lo := max(c.start, reach)
			if c.end > lo {
				covered += c.end - lo
			}
			reach = max(reach, c.end)
		}
		lt := out[s.Name]
		lt.calls += s.Calls
		lt.selfNs += s.BusyNs - covered
		out[s.Name] = lt
	}
	return out
}

// write saves every span as JSON under dir.
func (r *recorder) write(dir, name string) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("writing spans: %w", err)
	}
	data, err := json.Marshal(struct {
		Start time.Time `json:"start"`
		Spans []span    `json:"spans"`
	}{r.t0, r.spans})
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, name), data, 0o644)
}
