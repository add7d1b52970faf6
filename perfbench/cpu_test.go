package main

import "testing"

func TestModuleOf(t *testing.T) {
	for fn, want := range map[string]string{
		"multinet/internal/tcp.(*Conn).pipe":                    "tcp",
		"multinet/internal/experiments/engine.Sweep[...].func1": "experiments",
		"multinet/internal/apps.(*Player).step":                 "other",
		"main.runBulk":                                          "perfbench",
		"runtime.mallocgc":                                      "go_runtime",
		"internal/runtime/maps.(*Map).getWithKeySmall":          "go_runtime",
		"math.Exp":               "stdlib",
		"net/http.(*conn).serve": "stdlib",
		"slices.SortFunc[go.shape.struct { multinet/internal/x.y }]": "stdlib",
		"golang.org/x/net/http2.(*Framer).ReadFrame":                 "other",
	} {
		if got := moduleOf(fn); got != want {
			t.Errorf("moduleOf(%q) = %q, want %q", fn, got, want)
		}
	}
}

func TestParsePprofTop(t *testing.T) {
	out := []byte(`File: perfbench
Type: cpu
Showing nodes accounting for 300ms, 100% of 300ms total
      flat  flat%   sum%        cum   cum%
     150ms 50.00% 50.00%      200ms 66.67%  multinet/internal/tcp.(*Conn).pipe
     100ms 33.33% 83.33%      100ms 33.33%  runtime.mallocgc
      50ms 16.67%   100%       50ms 16.67%  main.(*recorder).begin
`)
	flat, err := parsePprofTop(out)
	if err != nil {
		t.Fatal(err)
	}
	if flat["multinet/internal/tcp.(*Conn).pipe"] != 150 || flat["runtime.mallocgc"] != 100 || len(flat) != 3 {
		t.Fatalf("parsed %v", flat)
	}
	if _, err := parsePprofTop([]byte("no table")); err == nil {
		t.Fatal("output without a table accepted")
	}
}
