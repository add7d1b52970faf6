package main

import (
	"strings"
	"testing"
)

func TestCompare(t *testing.T) {
	res := func(name string, ns float64, allocs int64) Result {
		return Result{Name: name, NsPerOp: ns, AllocsOp: allocs}
	}
	defined := []string{"a", "b"}
	cases := []struct {
		name   string
		base   []Result
		cur    []Result
		gateNs bool
		want   []string // substrings, one per expected regression line
	}{
		{
			name:   "within bounds",
			base:   []Result{res("a", 100, 1000), res("b", 100, 0)},
			cur:    []Result{res("a", 114, 1002), res("b", 90, 0)},
			gateNs: true,
		},
		{
			name: "allocs above tolerance",
			base: []Result{res("a", 100, 1000), res("b", 100, 0)},
			cur:  []Result{res("a", 100, 1003), res("b", 100, 1)},
			want: []string{"a: allocs/op 1000 -> 1003", "b: allocs/op 0 -> 1"},
		},
		{
			name:   "ns/op gated only on matching hardware",
			base:   []Result{res("a", 100, 0), res("b", 100, 0)},
			cur:    []Result{res("a", 200, 0), res("b", 100, 0)},
			gateNs: true,
			want:   []string{"a: ns/op 100 -> 200"},
		},
		{
			name: "ns/op ignored across hardware",
			base: []Result{res("a", 100, 0), res("b", 100, 0)},
			cur:  []Result{res("a", 200, 0), res("b", 100, 0)},
		},
		{
			name: "missing baseline entry",
			base: []Result{res("a", 100, 0)},
			cur:  []Result{res("a", 100, 0), res("b", 100, 0)},
			want: []string{"b: no baseline entry"},
		},
		{
			name: "orphaned baseline entry",
			base: []Result{res("a", 100, 0), res("b", 100, 0), res("gone", 100, 0)},
			cur:  []Result{res("a", 100, 0), res("b", 100, 0)},
			want: []string{"gone: baseline entry matches no benchmark"},
		},
		{
			name: "filtered run is not an orphan",
			base: []Result{res("a", 100, 0), res("b", 100, 0)},
			cur:  []Result{res("a", 100, 0)},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got := compare(tc.base, tc.cur, defined, 1.15, tc.gateNs)
			if len(got) != len(tc.want) {
				t.Fatalf("got %d regressions %q, want %d", len(got), got, len(tc.want))
			}
			for i, w := range tc.want {
				if !strings.Contains(got[i], w) {
					t.Errorf("regression %d = %q, want it to contain %q", i, got[i], w)
				}
			}
		})
	}
}
