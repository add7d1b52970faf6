package main

import (
	"reflect"
	"testing"
	"time"

	"multinet/internal/selector"
	"multinet/internal/serve"
)

func TestBulkInputsFromSeed(t *testing.T) {
	a, b := bulkInputs(11), bulkInputs(11)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("the same seed generated different bulk inputs")
	}
	c := bulkInputs(12)
	if reflect.DeepEqual(a, c) {
		t.Fatal("different seeds generated the same bulk inputs")
	}
	// Every seed runs each (location, config, direction) exactly once.
	type key struct{ loc, cfg, dir int }
	for _, in := range [][]transfer{a, c} {
		seen := make(map[key]bool)
		for _, tr := range in {
			k := key{tr.Loc, tr.Cfg, int(tr.Dir)}
			if seen[k] || tr.Size != bulkSize(tr.Loc) {
				t.Fatalf("transfer %+v repeated or resized", tr)
			}
			seen[k] = true
		}
		if len(seen) != 160 {
			t.Fatalf("%d distinct transfers, want 160", len(seen))
		}
	}
}

func TestServeInputsFromSeed(t *testing.T) {
	a, b := genServeInputs(5), genServeInputs(5)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("the same seed generated different serve inputs")
	}
	if reflect.DeepEqual(a.seq, genServeInputs(6).seq) {
		t.Fatal("different seeds generated the same request sequence")
	}
	if len(a.seq) != serveSeqLen {
		t.Fatalf("sequence length %d", len(a.seq))
	}
	for g := 0; g < len(a.seq); g += 8 {
		tel := 0
		for _, r := range a.seq[g : g+8] {
			if !r.decide {
				tel++
			}
		}
		if tel != 1 {
			t.Fatalf("group at %d holds %d telemetry requests, want 1", g, tel)
		}
	}
	for _, s := range a.sites {
		rates := append([]float64(nil), s.mbps...)
		for i := range rates {
			for j := range rates {
				if i != j && rates[i] > rates[j] && rates[i] < 2.5*rates[j] {
					t.Fatalf("site %s: rates %v closer than 2.5x", s.name, rates)
				}
			}
		}
	}
}

// TestServeExpectedOrder feeds the generated traffic straight into the
// service cores and checks that every decide matches the order the
// inputs predict, so the benchmark's output check is sound.
func TestServeExpectedOrder(t *testing.T) {
	in := genServeInputs(3)
	now := time.Duration(0)
	srv := serve.New(serve.Config{Store: selector.NewStore(selector.StoreConfig{}),
		Now: func() time.Duration { now += time.Millisecond; return now }})
	sc := srv.GetScratch()
	defer srv.PutScratch(sc)
	for _, r := range append(append([]serveReq(nil), in.seed...), in.seq...) {
		body := append([]byte(nil), r.body...)
		var status int
		var out []byte
		if r.decide {
			status, out = srv.DecideBytes(body, sc), sc.Out
		} else {
			status = srv.TelemetryBytes(body, sc)
		}
		if msg := checkResponse(in, &r, status, out); msg != "" {
			t.Fatal(msg)
		}
	}
}

func TestCheckResponse(t *testing.T) {
	in := genServeInputs(1)
	var r *serveReq
	for i := range in.seq {
		if in.seq[i].decide {
			r = &in.seq[i]
			break
		}
	}
	s := in.sites[r.site]
	good := []byte(`{"site":"` + s.name + `","paths":[` + string(s.want) + `],"use_mptcp":false}`)
	if msg := checkResponse(in, r, 200, good); msg != "" {
		t.Fatalf("right decision rejected: %s", msg)
	}
	reversed := []byte(`{"site":"` + s.name + `","paths":["nope"],"use_mptcp":false}`)
	for _, tc := range []struct {
		status int
		body   []byte
	}{{200, reversed}, {404, good}, {200, []byte(`{}`)}} {
		if msg := checkResponse(in, r, tc.status, tc.body); msg == "" {
			t.Errorf("status %d body %s accepted", tc.status, tc.body)
		}
	}
	tel := &serveReq{}
	if checkResponse(in, tel, 204, nil) != "" || checkResponse(in, tel, 200, nil) == "" {
		t.Error("telemetry check wrong")
	}
}
