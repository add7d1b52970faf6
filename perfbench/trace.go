package main

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed call across a layer boundary. ID is the span's
// 1-based position in the recorder; Parent is the ID of the span that
// caused it (0 for a root); Req groups the spans of one request, pass
// or transfer. Start and End are offsets from the recorder's epoch.
type span struct {
	ID, Parent, Req int
	Name            string
	Start, End      time.Duration
}

// recorder keeps spans in memory for the traced run; they are written
// out only when the run ends. A nil *recorder is the untraced run:
// begin returns 0 and end does nothing, so the workloads share one
// code path whether tracing is on or off.
type recorder struct {
	mu    sync.Mutex
	epoch time.Time
	spans []span
}

func newRecorder(capacity int) *recorder {
	return &recorder{epoch: time.Now(), spans: make([]span, 0, capacity)}
}

// begin opens a span and returns its ID.
func (r *recorder) begin(name string, parent, req int) int {
	if r == nil {
		return 0
	}
	now := time.Since(r.epoch)
	r.mu.Lock()
	r.spans = append(r.spans, span{ID: len(r.spans) + 1, Parent: parent, Req: req, Name: name, Start: now})
	id := len(r.spans)
	r.mu.Unlock()
	return id
}

// end closes the span begin returned.
func (r *recorder) end(id int) {
	if r == nil || id == 0 {
		return
	}
	now := time.Since(r.epoch)
	r.mu.Lock()
	r.spans[id-1].End = now
	r.mu.Unlock()
}

// snapshot returns the recorded spans.
func (r *recorder) snapshot() []span {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]span(nil), r.spans...)
}

// spanStat aggregates the spans of one name.
type spanStat struct {
	Name        string
	Count       int
	Total, Self time.Duration
}

// selfTimes aggregates spans by name. A span's self time is its
// duration minus the part of its interval covered by its children
// (overlapping children count once; a child running past its parent's
// end is clipped to it). The result is sorted by self time, largest
// first.
func selfTimes(spans []span) []spanStat {
	children := make(map[int][]span)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	byName := make(map[string]*spanStat)
	var names []string
	for _, s := range spans {
		st := byName[s.Name]
		if st == nil {
			st = &spanStat{Name: s.Name}
			byName[s.Name] = st
			names = append(names, s.Name)
		}
		dur := s.End - s.Start
		st.Count++
		st.Total += dur
		st.Self += dur - covered(s.Start, s.End, children[s.ID])
	}
	out := make([]spanStat, 0, len(names))
	for _, n := range names {
		out = append(out, *byName[n])
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].Self > out[j].Self })
	return out
}

// covered returns the length of [start, end) covered by the union of
// the intervals of kids.
func covered(start, end time.Duration, kids []span) time.Duration {
	iv := make([][2]time.Duration, 0, len(kids))
	for _, k := range kids {
		a, b := max(k.Start, start), min(k.End, end)
		if b > a {
			iv = append(iv, [2]time.Duration{a, b})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total time.Duration
	curA, curB := time.Duration(-1), time.Duration(-1)
	for _, x := range iv {
		if x[0] > curB {
			total += curB - curA
			curA, curB = x[0], x[1]
		} else if x[1] > curB {
			curB = x[1]
		}
	}
	return total + curB - curA
}

// writeSpans writes every span as one tab-separated line (times in
// nanoseconds from the recorder epoch) under a header line.
func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintln(w, "id\tparent\treq\tname\tstart_ns\tend_ns")
	for _, s := range spans {
		fmt.Fprintf(w, "%d\t%d\t%d\t%s\t%d\t%d\n", s.ID, s.Parent, s.Req, s.Name, s.Start, s.End)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// writeSelfTimes renders the per-name aggregate as an aligned table.
func writeSelfTimes(w io.Writer, stats []spanStat) {
	fmt.Fprintf(w, "%-34s %9s %12s %12s %12s\n", "span", "count", "total_ms", "self_ms", "self_us/span")
	for _, s := range stats {
		fmt.Fprintf(w, "%-34s %9d %12.3f %12.3f %12.3f\n", s.Name, s.Count,
			ms(s.Total), ms(s.Self), float64(s.Self.Nanoseconds())/1e3/float64(s.Count))
	}
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }
