package serve

import (
	"bytes"
	"encoding/json"
	"math"
	"net/http"
	"strconv"
	"testing"
	"time"

	"multinet/internal/selector"
)

// FuzzServeJSON is a differential target for the hand-rolled request
// scanner and response renderer in json.go, with encoding/json as the
// reference:
//
//   - arbitrary bytes never panic DecideBytes or TelemetryBytes;
//   - every body the scanner accepts is valid JSON whose site, path,
//     mbps, rtt_ms and flow_bytes fields decode to the values the
//     scanner produced;
//   - every rendered decision is valid JSON that decodes back to the
//     request's site, and a decide request rendered for an accepted
//     site scans back to that same site.
func FuzzServeJSON(f *testing.F) {
	for _, seed := range []string{
		`{"site":"cdn","path":"wifi","mbps":12.5,"rtt_ms":25}`,
		`{"site":"cdn","path":"lte","mbps":10,"rtt_ms":45}`,
		`{"site":"cdn","flow_bytes":5242880}`,
		`{"site":"cdn","flow_bytes":1024}`,
		`{"site":"a\"b","path":"wifi","mbps":5,"rtt_ms":20}`,
		`{"site":"abb","flow_bytes":1}`,
		`{"site":"s","flow_bytes":1,"x":{"y":1}}`,
		`{"site":"s","flow_bytes":1.5}`,
		`{"site":"s","path":"wifi","mbps":-1,"rtt_ms":25}`,
		`{"site":"s","path":"w","mbps":1e3,"rtt_ms":2.5E-1,"extra":true}`,
		` { "site" : "s\/t" , "flow_bytes" : 0 , "n" : null } `,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		store := selector.NewStore(selector.StoreConfig{})
		s := New(Config{Store: store, Now: func() time.Duration { return time.Second }})
		sc := s.GetScratch()

		// Telemetry: scanner vs encoding/json, then the live handler.
		site, path, mbps, rtt, ok := parseTelemetry(clone(data))
		if ok {
			ref := decodeReference(t, data)
			wantString(t, ref, "site", string(site))
			wantString(t, ref, "path", string(path))
			wantFloat(t, ref, "mbps", mbps)
			wantFloat(t, ref, "rtt_ms", rtt)
		}
		status := s.TelemetryBytes(clone(data), sc)
		if ok != (status == http.StatusNoContent) {
			t.Fatalf("TelemetryBytes status %d, scanner ok=%v", status, ok)
		}
		if ok {
			// A decide request rendered for the accepted site must scan
			// back to it and be answered from the sample just stored.
			req := appendJSONString(append([]byte(nil), `{"site":`...), string(site))
			req = append(req, `,"flow_bytes":1048576}`...)
			if got, _, rok := parseDecide(clone(req)); !rok || !bytes.Equal(got, site) {
				t.Fatalf("rendered request %q scanned to site %q (ok=%v), want %q", req, got, rok, site)
			}
			if st := s.DecideBytes(req, sc); st != http.StatusOK {
				t.Fatalf("decide for a site with telemetry: status %d", st)
			}
			checkDecision(t, sc.Out, string(site))
		}

		// Decide: scanner vs encoding/json, then the live handler.
		dsite, flowBytes, dok := parseDecide(clone(data))
		if dok {
			ref := decodeReference(t, data)
			wantString(t, ref, "site", string(dsite))
			n, isNum := ref["flow_bytes"].(json.Number)
			if !isNum {
				t.Fatalf("scanner accepted flow_bytes %d, encoding/json has %#v", flowBytes, ref["flow_bytes"])
			}
			if v, err := strconv.ParseInt(string(n), 10, 64); err != nil || int(v) != flowBytes {
				t.Fatalf("flow_bytes: scanner %d, encoding/json %q", flowBytes, n)
			}
		}
		status = s.DecideBytes(clone(data), sc)
		switch {
		case !dok && status != http.StatusBadRequest:
			t.Fatalf("DecideBytes accepted a body the scanner rejects: status %d", status)
		case status == http.StatusOK:
			checkDecision(t, sc.Out, string(dsite))
		case !json.Valid(sc.Out):
			t.Fatalf("error body is not valid JSON: %q", sc.Out)
		}
	})
}

func clone(b []byte) []byte { return append([]byte(nil), b...) }

// decodeReference decodes body with encoding/json, failing the test if
// the reference rejects what the scanner accepted. Numbers stay
// json.Number so integer and float fields compare exactly.
func decodeReference(t *testing.T, body []byte) map[string]any {
	t.Helper()
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.UseNumber()
	var ref map[string]any
	if err := dec.Decode(&ref); err != nil {
		t.Fatalf("scanner accepted %q, encoding/json rejects it: %v", body, err)
	}
	if _, err := dec.Token(); err == nil {
		t.Fatalf("scanner accepted %q, encoding/json sees trailing data", body)
	}
	return ref
}

func wantString(t *testing.T, ref map[string]any, key, got string) {
	t.Helper()
	if want, ok := ref[key].(string); !ok || want != got {
		t.Fatalf("%s: scanner %q, encoding/json %#v", key, got, ref[key])
	}
}

// wantFloat compares the scanner's float with strconv's correctly
// rounded parse. The scanner accumulates the mantissa in float64, so it
// may differ in the last bits; values below 1e-300 may flush to zero.
func wantFloat(t *testing.T, ref map[string]any, key string, got float64) {
	t.Helper()
	n, ok := ref[key].(json.Number)
	if !ok {
		t.Fatalf("%s: scanner %v, encoding/json %#v", key, got, ref[key])
	}
	want, err := strconv.ParseFloat(string(n), 64)
	if err != nil {
		t.Fatalf("%s: scanner accepted %q (%v), strconv rejects it: %v", key, n, got, err)
	}
	if d := math.Abs(got - want); d > 1e-9*math.Abs(want)+1e-300 {
		t.Fatalf("%s: scanner %v, strconv %v", key, got, want)
	}
}

// checkDecision asserts a rendered decision is valid JSON that decodes
// back to the requested site with a non-empty path list.
func checkDecision(t *testing.T, out []byte, site string) {
	t.Helper()
	var d struct {
		Site      string   `json:"site"`
		Paths     []string `json:"paths"`
		UseMPTCP  bool     `json:"use_mptcp"`
		Disparity *float64 `json:"disparity"`
		Rationale string   `json:"rationale"`
	}
	if err := json.Unmarshal(out, &d); err != nil {
		t.Fatalf("rendered decision %q is not valid JSON: %v", out, err)
	}
	if d.Site != site || len(d.Paths) == 0 || d.Rationale == "" {
		t.Fatalf("rendered decision %q does not round-trip site %q", out, site)
	}
}
