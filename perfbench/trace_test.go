package main

import (
	"math"
	"testing"
	"time"
)

func TestSelfTimes(t *testing.T) {
	us := time.Microsecond
	spans := []span{
		{ID: 1, Name: "pass", Start: 0, End: 100 * us},
		// Overlapping children count once: [10, 50).
		{ID: 2, Parent: 1, Name: "run", Start: 10 * us, End: 30 * us},
		{ID: 3, Parent: 1, Name: "run", Start: 20 * us, End: 50 * us},
		// A child running past its parent is clipped: [90, 100).
		{ID: 4, Parent: 1, Name: "check", Start: 90 * us, End: 120 * us},
		// A grandchild counts against its parent only.
		{ID: 5, Parent: 3, Name: "leaf", Start: 25 * us, End: 45 * us},
	}
	want := map[string]spanStat{
		"pass":  {Count: 1, Total: 100 * us, Self: 50 * us},
		"run":   {Count: 2, Total: 50 * us, Self: 30 * us},
		"check": {Count: 1, Total: 30 * us, Self: 30 * us},
		"leaf":  {Count: 1, Total: 20 * us, Self: 20 * us},
	}
	got := selfTimes(spans)
	if len(got) != len(want) {
		t.Fatalf("got %d span names, want %d", len(got), len(want))
	}
	for i, g := range got {
		w := want[g.Name]
		if g.Count != w.Count || g.Total != w.Total || g.Self != w.Self {
			t.Errorf("%s: got count %d total %v self %v, want %d %v %v",
				g.Name, g.Count, g.Total, g.Self, w.Count, w.Total, w.Self)
		}
		if i > 0 && got[i-1].Self < g.Self {
			t.Errorf("not sorted by self time: %s before %s", got[i-1].Name, g.Name)
		}
	}
}

func TestRecorder(t *testing.T) {
	var off *recorder
	if id := off.begin("x", 0, 0); id != 0 {
		t.Fatalf("untraced begin returned %d", id)
	}
	off.end(0)

	r := newRecorder(1)
	parent := r.begin("parent", 0, 7)
	child := r.begin("child", parent, 7)
	r.end(child)
	r.end(parent)
	s := r.snapshot()
	if len(s) != 2 || s[1].Parent != s[0].ID || s[0].Req != 7 || s[1].Req != 7 {
		t.Fatalf("spans %+v", s)
	}
	for _, sp := range s {
		if sp.End < sp.Start {
			t.Errorf("%s ends before it starts", sp.Name)
		}
	}
}

func TestQuantile(t *testing.T) {
	xs := []float64{4, 1, 3, 2, 5}
	if q := quantile(append([]float64(nil), xs...), 0.5); q != 3 {
		t.Errorf("median %v", q)
	}
	if q := quantile(append([]float64(nil), xs...), 0.99); q < 4.9 || q > 5 {
		t.Errorf("p99 %v", q)
	}
	if m := median([]float64{2, 1}); m != 1.5 {
		t.Errorf("median of two %v", m)
	}
}

func TestFastestEndToEnd(t *testing.T) {
	f := make(fastest, 3)
	for _, d := range []time.Duration{5, 1, 4} {
		f.add(0, d*time.Millisecond)
	}
	f.add(1, 3*time.Millisecond)
	f.add(2, 2*time.Millisecond)
	f.add(2, 7*time.Millisecond)
	if f[0] != time.Millisecond || f[2] != 2*time.Millisecond || f.sum() != 6*time.Millisecond {
		t.Fatalf("fastest %v, sum %v", f, f.sum())
	}
	p := &phase{setup: []time.Duration{3, 1, 2}, passes: 3, items: 12, best: f, peaks: []float64{1, 2, 1}}
	m, err := endToEnd(p)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]float64{"setup_s": 2e-9, "wall_s": 0.006, "throughput_per_s": 2000, "latency_p50_us": 2000, "peak_rss_mb": 1}
	for name, v := range want {
		if got := m[name].Value; math.Abs(got-v) > 1e-9*math.Max(1, v) {
			t.Errorf("%s = %v, want %v", name, got, v)
		}
	}
	p.best = make(fastest, 2)
	p.best.add(0, time.Millisecond)
	if _, err := endToEnd(p); err == nil {
		t.Error("an operation that never ran was not reported")
	}
}

// TestMemGaugeAllocFree pins that sampling memory allocates nothing:
// serve-http samples during its measured loop, and serve.allocs_per_query
// counts every allocation of the process.
func TestMemGaugeAllocFree(t *testing.T) {
	var g memGauge
	g.sample()
	if n := testing.AllocsPerRun(100, g.sample); n != 0 {
		t.Errorf("memGauge.sample allocates %v times per call", n)
	}
	if mb := g.endPass(); mb <= 0 {
		t.Errorf("pass peak %v MiB", mb)
	}
}
