package main

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"time"
)

// recorder keeps the benchmark's own spans in memory: one per call into
// a public entry point, grouped by run. A nil recorder records nothing,
// which is how the untraced phases run.
type recorder struct {
	origin time.Time
	spans  []span
	open   []int // indices of spans not yet ended, innermost last
}

type span struct {
	Name   string `json:"name"`
	Run    int    `json:"run"`    // run index within the pass; -1 for set-up
	Parent int    `json:"parent"` // index into the span list; -1 for none
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func newRecorder() *recorder { return &recorder{origin: time.Now()} }

// begin opens a span and returns the function that closes it. Spans nest
// by call order: a span begun while another is open is its child.
func (r *recorder) begin(run int, name string) func() {
	if r == nil {
		return func() {}
	}
	parent := -1
	if n := len(r.open); n > 0 {
		parent = r.open[n-1]
	}
	idx := len(r.spans)
	r.spans = append(r.spans, span{Name: name, Run: run, Parent: parent, Start: int64(time.Since(r.origin))})
	r.open = append(r.open, idx)
	return func() {
		r.spans[idx].End = int64(time.Since(r.origin))
		r.open = r.open[:len(r.open)-1]
	}
}

// spanStat is the per-name reduction of the span list.
type spanStat struct {
	Name  string
	Count int
	Total time.Duration
	Self  time.Duration // total minus the time child spans cover
}

// stats reduces spans by name. Children of one span never overlap (the
// benchmark is serial), so self time is duration minus children's sum.
func (r *recorder) stats() []spanStat {
	if r == nil {
		return nil
	}
	child := make([]int64, len(r.spans))
	for _, s := range r.spans {
		if s.Parent >= 0 {
			child[s.Parent] += s.End - s.Start
		}
	}
	byName := map[string]*spanStat{}
	for i, s := range r.spans {
		st := byName[s.Name]
		if st == nil {
			st = &spanStat{Name: s.Name}
			byName[s.Name] = st
		}
		st.Count++
		st.Total += time.Duration(s.End - s.Start)
		st.Self += time.Duration(s.End - s.Start - child[i])
	}
	out := make([]spanStat, 0, len(byName))
	for _, st := range byName {
		out = append(out, *st)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// writeChrome writes the spans as Chrome trace-event JSON, which Perfetto
// and chrome://tracing open directly.
func (r *recorder) writeChrome(w io.Writer) error {
	type event struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		Args map[string]int `json:"args"`
	}
	events := make([]event, 0, len(r.spans))
	for _, s := range r.spans {
		events = append(events, event{
			Name: s.Name, Ph: "X", Pid: 1, Tid: 1,
			Ts: float64(s.Start) / 1e3, Dur: float64(s.End-s.Start) / 1e3,
			Args: map[string]int{"run": s.Run},
		})
	}
	if err := json.NewEncoder(w).Encode(map[string]any{"traceEvents": events}); err != nil {
		return fmt.Errorf("writing spans: %w", err)
	}
	return nil
}
