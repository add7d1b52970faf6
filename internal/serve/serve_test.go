package serve

import (
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"multinet/internal/selector"
)

// fakeClock is the injected monotonic time source for decay tests.
type fakeClock struct{ at time.Duration }

func (c *fakeClock) now() time.Duration { return c.at }

func newTestServer(cfg selector.StoreConfig) (*Server, *fakeClock) {
	clk := &fakeClock{at: time.Second}
	s := New(Config{Store: selector.NewStore(cfg), Now: clk.now})
	return s, clk
}

func post(t *testing.T, h http.Handler, path, body string) *httptest.ResponseRecorder {
	t.Helper()
	req := httptest.NewRequest(http.MethodPost, path, strings.NewReader(body))
	w := httptest.NewRecorder()
	h.ServeHTTP(w, req)
	return w
}

func get(t *testing.T, h http.Handler, path string) *httptest.ResponseRecorder {
	t.Helper()
	req := httptest.NewRequest(http.MethodGet, path, nil)
	w := httptest.NewRecorder()
	h.ServeHTTP(w, req)
	return w
}

func TestServeRoundTrip(t *testing.T) {
	s, _ := newTestServer(selector.StoreConfig{})
	h := s.Handler()

	if w := post(t, h, "/v1/telemetry", `{"site":"cdn","path":"wifi","mbps":12.5,"rtt_ms":25}`); w.Code != http.StatusNoContent {
		t.Fatalf("telemetry status = %d, body %q", w.Code, w.Body.String())
	}
	if w := post(t, h, "/v1/telemetry", `{"site":"cdn","path":"lte","mbps":10,"rtt_ms":45}`); w.Code != http.StatusNoContent {
		t.Fatalf("telemetry status = %d", w.Code)
	}

	w := post(t, h, "/v1/decide", `{"site":"cdn","flow_bytes":5242880}`)
	if w.Code != http.StatusOK {
		t.Fatalf("decide status = %d, body %q", w.Code, w.Body.String())
	}
	if ct := w.Header().Get("Content-Type"); ct != "application/json" {
		t.Fatalf("content-type = %q", ct)
	}
	body := w.Body.String()
	for _, want := range []string{
		`"site":"cdn"`,
		`"paths":["wifi","lte"]`,
		`"use_mptcp":true`,
		`"cc":"decoupled"`,
		`"scheduler":"minsrtt"`,
		`"rationale":"aggregate"`,
	} {
		if !strings.Contains(body, want) {
			t.Fatalf("decide body %q missing %q", body, want)
		}
	}

	// A short flow at the same site stays single-path.
	w = post(t, h, "/v1/decide", `{"site":"cdn","flow_bytes":1024}`)
	if !strings.Contains(w.Body.String(), `"use_mptcp":false`) ||
		!strings.Contains(w.Body.String(), `"rationale":"short-flow"`) {
		t.Fatalf("short-flow body = %q", w.Body.String())
	}
}

func TestServeUnknownSiteAndBadRequests(t *testing.T) {
	s, _ := newTestServer(selector.StoreConfig{})
	h := s.Handler()

	if w := post(t, h, "/v1/decide", `{"site":"ghost","flow_bytes":1}`); w.Code != http.StatusNotFound {
		t.Fatalf("unknown site status = %d", w.Code)
	}
	for _, body := range []string{
		``,
		`not json`,
		`{"flow_bytes":1}`,              // missing site
		`{"site":"s"}`,                  // missing flow_bytes
		`{"site":"s","flow_bytes":-1}`,  // negative
		`{"site":"s","flow_bytes":1.5}`, // fractional
		`{"site":"s","flow_bytes":1,"x":{"y":1}}`, // nested value
	} {
		if w := post(t, h, "/v1/decide", body); w.Code != http.StatusBadRequest {
			t.Fatalf("decide(%q) status = %d, want 400", body, w.Code)
		}
	}
	for _, body := range []string{
		`{"site":"s","path":"wifi","mbps":-1,"rtt_ms":25}`,
		`{"site":"s","path":"wifi","rtt_ms":25}`,
		`{"site":"s","mbps":5,"rtt_ms":25}`,
	} {
		if w := post(t, h, "/v1/telemetry", body); w.Code != http.StatusBadRequest {
			t.Fatalf("telemetry(%q) status = %d, want 400", body, w.Code)
		}
	}
	// Method mismatches 405 via the Go 1.22 mux patterns.
	if w := get(t, h, "/v1/decide"); w.Code != http.StatusMethodNotAllowed {
		t.Fatalf("GET /v1/decide status = %d", w.Code)
	}

	st := s.StatsSnapshot()
	if st.UnknownSite != 1 || st.BadRequests != 10 {
		t.Fatalf("stats = %+v", st)
	}
}

// TestServeDecayUnderInjectedClock drives the service clock by hand:
// a path whose telemetry goes silent decays until the disparity gate
// flips the site from MPTCP to single-path on the fresh path.
func TestServeDecayUnderInjectedClock(t *testing.T) {
	s, clk := newTestServer(selector.StoreConfig{HalfLife: 10 * time.Second})
	h := s.Handler()

	post(t, h, "/v1/telemetry", `{"site":"cdn","path":"wifi","mbps":8,"rtt_ms":20}`)
	post(t, h, "/v1/telemetry", `{"site":"cdn","path":"lte","mbps":8,"rtt_ms":40}`)

	w := post(t, h, "/v1/decide", `{"site":"cdn","flow_bytes":5242880}`)
	if !strings.Contains(w.Body.String(), `"use_mptcp":true`) {
		t.Fatalf("fresh pair should use MPTCP: %q", w.Body.String())
	}

	// WiFi goes silent; LTE keeps reporting for 40 virtual seconds.
	for i := 0; i < 40; i++ {
		clk.at += time.Second
		post(t, h, "/v1/telemetry", `{"site":"cdn","path":"lte","mbps":8,"rtt_ms":40}`)
	}
	w = post(t, h, "/v1/decide", `{"site":"cdn","flow_bytes":5242880}`)
	body := w.Body.String()
	if !strings.Contains(body, `"use_mptcp":false`) || !strings.Contains(body, `"paths":["lte","wifi"]`) {
		t.Fatalf("stale wifi should fall back to single-path lte: %q", body)
	}
	if !strings.Contains(body, `"rationale":"disparity"`) {
		t.Fatalf("rationale missing: %q", body)
	}
}

// TestServeShardIndependence holds one shard's lock and proves traffic
// for a site on another shard still completes through the HTTP layer.
func TestServeShardIndependence(t *testing.T) {
	s, _ := newTestServer(selector.StoreConfig{Shards: 4})
	h := s.Handler()

	post(t, h, "/v1/telemetry", `{"site":"site-a","path":"wifi","mbps":5,"rtt_ms":20}`)
	post(t, h, "/v1/telemetry", `{"site":"site-b","path":"wifi","mbps":5,"rtt_ms":20}`)

	unlock, cross := s.store.LockSiteShard([]byte("site-a"), []byte("site-b"))
	if !cross {
		t.Skip("site-a and site-b hash to the same shard in this build")
	}
	done := make(chan *httptest.ResponseRecorder, 1)
	go func() {
		done <- post(t, h, "/v1/decide", `{"site":"site-b","flow_bytes":1048576}`)
	}()
	select {
	case w := <-done:
		if w.Code != http.StatusOK {
			t.Errorf("cross-shard decide status = %d", w.Code)
		}
	case <-time.After(5 * time.Second):
		t.Error("decide on an unrelated shard blocked by a held lock")
	}
	unlock()
}

func TestServeStatsAndHealth(t *testing.T) {
	s, _ := newTestServer(selector.StoreConfig{Shards: 8})
	h := s.Handler()
	post(t, h, "/v1/telemetry", `{"site":"cdn","path":"wifi","mbps":5,"rtt_ms":20}`)
	post(t, h, "/v1/decide", `{"site":"cdn","flow_bytes":1048576}`)

	w := get(t, h, "/v1/healthz")
	if w.Code != http.StatusOK || w.Body.String() != `{"ok":true}`+"\n" {
		t.Fatalf("healthz = %d %q", w.Code, w.Body.String())
	}
	w = get(t, h, "/v1/stats")
	body := w.Body.String()
	for _, want := range []string{`"decides":1`, `"telemetry":1`, `"sites":1`, `"shards":8`} {
		if !strings.Contains(body, want) {
			t.Fatalf("stats %q missing %q", body, want)
		}
	}
}

func TestServeDrainingHealth(t *testing.T) {
	// Graceful degradation: once shutdown begins, the health check
	// flips to 503/draining so balancers stop routing here, while the
	// data endpoints keep answering in-flight traffic.
	s, _ := newTestServer(selector.StoreConfig{Shards: 8})
	h := s.Handler()
	s.SetDraining(true)
	w := get(t, h, "/v1/healthz")
	if w.Code != http.StatusServiceUnavailable || !strings.Contains(w.Body.String(), `"draining":true`) {
		t.Fatalf("draining healthz = %d %q", w.Code, w.Body.String())
	}
	post(t, h, "/v1/telemetry", `{"site":"cdn","path":"wifi","mbps":5,"rtt_ms":20}`)
	w = post(t, h, "/v1/decide", `{"site":"cdn","flow_bytes":1048576}`)
	if w.Code != http.StatusOK {
		t.Fatalf("decide while draining = %d, want 200", w.Code)
	}
	s.SetDraining(false)
	if w := get(t, h, "/v1/healthz"); w.Code != http.StatusOK {
		t.Fatalf("healthz after drain cleared = %d", w.Code)
	}
}

func TestServeEscapedStrings(t *testing.T) {
	s, _ := newTestServer(selector.StoreConfig{})
	h := s.Handler()
	post(t, h, "/v1/telemetry", `{"site":"a\"b","path":"wifi","mbps":5,"rtt_ms":20}`)
	w := post(t, h, "/v1/decide", `{"site":"a\"b","flow_bytes":1048576}`)
	if w.Code != http.StatusOK {
		t.Fatalf("escaped site name round-trip failed: %d %q", w.Code, w.Body.String())
	}
	if !strings.Contains(w.Body.String(), `"site":"a\"b"`) {
		t.Fatalf("response did not re-escape the site name: %q", w.Body.String())
	}
	// \uXXXX escapes are outside the accepted subset.
	if w := post(t, h, "/v1/decide", `{"site":"a\u0062b","flow_bytes":1}`); w.Code != http.StatusBadRequest {
		t.Fatalf("unicode escape accepted: %d", w.Code)
	}
}

// TestDecideBytesZeroAlloc pins the whole decide hot path — parse,
// store lookup with decay, policy, JSON render — at zero allocations
// in the steady state. This is the contract the serve/* bench gate
// holds in CI.
func TestDecideBytesZeroAlloc(t *testing.T) {
	s, _ := newTestServer(selector.StoreConfig{})
	sc := s.GetScratch()
	defer s.PutScratch(sc)

	tsc := s.GetScratch()
	s.TelemetryBytes(append(tsc.In[:0], `{"site":"cdn","path":"wifi","mbps":12.5,"rtt_ms":25}`...), tsc)
	s.TelemetryBytes(append(tsc.In[:0], `{"site":"cdn","path":"lte","mbps":10,"rtt_ms":45}`...), tsc)
	s.PutScratch(tsc)

	req := []byte(`{"site":"cdn","flow_bytes":5242880}`)
	body := make([]byte, len(req))
	if s.DecideBytes(append(body[:0], req...), sc) != http.StatusOK { // warm
		t.Fatalf("warmup decide failed: %q", sc.Out)
	}
	if n := testing.AllocsPerRun(500, func() {
		copy(body, req) // str() unescapes in place; restore the request
		if s.DecideBytes(body, sc) != http.StatusOK {
			t.Fatal("decide failed mid-measurement")
		}
	}); n != 0 {
		t.Fatalf("steady-state DecideBytes allocates %v/op, want 0", n)
	}
}

func TestTelemetryBytesZeroAllocSteadyState(t *testing.T) {
	s, _ := newTestServer(selector.StoreConfig{})
	sc := s.GetScratch()
	defer s.PutScratch(sc)
	req := []byte(`{"site":"cdn","path":"wifi","mbps":12.5,"rtt_ms":25}`)
	body := make([]byte, len(req))
	copy(body, req)
	if s.TelemetryBytes(body, sc) != http.StatusNoContent { // warm: interns site+path
		t.Fatal("warmup telemetry failed")
	}
	if n := testing.AllocsPerRun(500, func() {
		copy(body, req)
		if s.TelemetryBytes(body, sc) != http.StatusNoContent {
			t.Fatal("telemetry failed mid-measurement")
		}
	}); n != 0 {
		t.Fatalf("steady-state TelemetryBytes allocates %v/op, want 0", n)
	}
}

// TestScannerRejectsNonJSON pins the scanner to a subset of JSON: each
// body is a well-formed telemetry sample except for one defect that
// encoding/json would reject (or, for 1e400, cannot represent).
func TestScannerRejectsNonJSON(t *testing.T) {
	s, _ := newTestServer(selector.StoreConfig{})
	sc := s.GetScratch()
	defer s.PutScratch(sc)
	for _, tc := range []struct{ name, body string }{
		{"missing comma", `{"site":"a" "path":"w","mbps":1,"rtt_ms":1}`},
		{"leading comma", `{,"site":"a","path":"w","mbps":1,"rtt_ms":1}`},
		{"trailing comma", `{"site":"a","path":"w","mbps":1,"rtt_ms":1,}`},
		{"trailing bytes", `{"site":"a","path":"w","mbps":1,"rtt_ms":1}xyz`},
		{"bare word", `{"site":"a","path":"w","mbps":1,"rtt_ms":1,"x":tru}`},
		{"leading zero", `{"site":"a","path":"w","mbps":01,"rtt_ms":1}`},
		{"control character", "{\"site\":\"a\x01\",\"path\":\"w\",\"mbps\":1,\"rtt_ms\":1}"},
		{"invalid UTF-8", "{\"site\":\"a\xff\",\"path\":\"w\",\"mbps\":1,\"rtt_ms\":1}"},
		{"non-finite number", `{"site":"a","path":"w","mbps":1e400,"rtt_ms":1}`},
	} {
		if got := s.TelemetryBytes([]byte(tc.body), sc); got != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400 for %q", tc.name, got, tc.body)
		}
	}
	ok := `{"site":"a","path":"w","mbps":1,"rtt_ms":1,"x":true,"y":null,"z":0.5e-1} `
	if got := s.TelemetryBytes([]byte(ok), sc); got != http.StatusNoContent {
		t.Fatalf("valid body: status %d, want 204", got)
	}
}
