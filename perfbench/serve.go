package main

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"math/rand"
	"net"
	"net/http"
	"runtime"
	"sort"
	"strconv"
	"sync/atomic"
	"time"

	"multinet/internal/selector"
	"multinet/internal/serve"
)

const (
	serveSites  = 256  // site population
	serveSeqLen = 8192 // request sequence length; the load cycles through it
	serveSetups = 9    // set-up repetitions per run
	serveWarmup = 2048 // warm-up requests per set-up
	directBatch = 1024 // calls per direct-call span
	directSpans = 48   // direct-call spans per entry point
)

// servePathNames is the pool a site's paths are drawn from.
var servePathNames = []string{"wifi", "lte", "wifi2", "lte2"}

// serveSite is one site of the population. Paths are listed in
// telemetry insertion order; their rates are spaced at least 2.5x
// apart, so telemetry jittered by ±10% can never reorder them and the
// expected decision order is known from the inputs alone.
type serveSite struct {
	name  string
	paths []string
	mbps  []float64
	rttMs []float64
	// want is the body a decision for this site must carry between
	// `"paths":[` and `]`: the paths best first.
	want []byte
}

// serveReq is one request of the sequence.
type serveReq struct {
	decide bool
	site   int
	path   int     // telemetry: index into the site's paths
	mbps   float64 // telemetry sample
	rtt    time.Duration
	flow   int    // decide: flow size in bytes
	body   []byte // JSON body
	raw    []byte // the full HTTP/1.1 request
}

// serveInputs is everything serve-http sends, generated from the seed.
type serveInputs struct {
	sites []serveSite
	seed  []serveReq // one telemetry sample per (site, path), in insertion order
	seq   []serveReq // decides and telemetry at 7:1
}

// genServeInputs builds the site population, the seeding telemetry and
// the request sequence from the seed alone. Every group of eight
// requests holds one telemetry sample at a seeded position; telemetry
// walks a seeded permutation of all (site, path) pairs, so every path
// is refreshed at a steady cadence; decides pick a seeded site and
// flow size.
func genServeInputs(seed int64) *serveInputs {
	rng := rand.New(rand.NewSource(seed))
	in := &serveInputs{sites: make([]serveSite, serveSites)}
	type pair struct{ site, path int }
	var pairs []pair
	for i := range in.sites {
		s := &in.sites[i]
		s.name = fmt.Sprintf("site-%04d-%06x", i, rng.Intn(1<<24))
		k := 2 + rng.Intn(len(servePathNames)-1)
		for _, j := range rng.Perm(len(servePathNames))[:k] {
			s.paths = append(s.paths, servePathNames[j])
		}
		rates := make([]float64, k)
		rates[0] = 5 + 45*rng.Float64()
		for j := 1; j < k; j++ {
			rates[j] = rates[j-1] / (2.5 + 1.5*rng.Float64())
		}
		s.mbps = make([]float64, k)
		s.rttMs = make([]float64, k)
		for j, r := range rng.Perm(k) {
			s.mbps[j] = rates[r]
			s.rttMs[j] = 15 + 100*rng.Float64()
		}
		best := make([]int, k)
		for j := range best {
			best[j] = j
		}
		sort.Slice(best, func(a, b int) bool { return s.mbps[best[a]] > s.mbps[best[b]] })
		for j, b := range best {
			if j > 0 {
				s.want = append(s.want, ',')
			}
			s.want = strconv.AppendQuote(s.want, s.paths[b])
		}
		for j := range s.paths {
			pairs = append(pairs, pair{i, j})
			in.seed = append(in.seed, telemetryReq(in, i, j, s.mbps[j], s.rttMs[j]))
		}
	}
	rng.Shuffle(len(pairs), func(a, b int) { pairs[a], pairs[b] = pairs[b], pairs[a] })
	flows := []int{64 << 10, 1 << 20, 16 << 20}
	next := 0
	for len(in.seq) < serveSeqLen {
		tpos := rng.Intn(8)
		for j := 0; j < 8; j++ {
			if j != tpos {
				site := rng.Intn(serveSites)
				in.seq = append(in.seq, decideReq(in, site, flows[rng.Intn(len(flows))]))
				continue
			}
			pr := pairs[next%len(pairs)]
			next++
			s := &in.sites[pr.site]
			in.seq = append(in.seq, telemetryReq(in, pr.site, pr.path,
				s.mbps[pr.path]*(0.9+0.2*rng.Float64()), s.rttMs[pr.path]*(0.9+0.2*rng.Float64())))
		}
	}
	return in
}

func telemetryReq(in *serveInputs, site, path int, mbps, rttMs float64) serveReq {
	s := &in.sites[site]
	body := fmt.Sprintf(`{"site":%q,"path":%q,"mbps":%.3f,"rtt_ms":%.3f}`, s.name, s.paths[path], mbps, rttMs)
	// The service sees the rounded values; keep the same ones for the
	// direct Observe calls.
	mbps, _ = strconv.ParseFloat(strconv.FormatFloat(mbps, 'f', 3, 64), 64)
	rttMs, _ = strconv.ParseFloat(strconv.FormatFloat(rttMs, 'f', 3, 64), 64)
	return serveReq{site: site, path: path, mbps: mbps, rtt: time.Duration(rttMs * float64(time.Millisecond)),
		body: []byte(body), raw: httpRequest("/v1/telemetry", body)}
}

func decideReq(in *serveInputs, site, flow int) serveReq {
	body := fmt.Sprintf(`{"site":%q,"flow_bytes":%d}`, in.sites[site].name, flow)
	return serveReq{decide: true, site: site, flow: flow, body: []byte(body), raw: httpRequest("/v1/decide", body)}
}

func httpRequest(path, body string) []byte {
	return []byte(fmt.Sprintf("POST %s HTTP/1.1\r\nHost: perfbench\r\nContent-Type: application/json\r\nContent-Length: %d\r\n\r\n%s",
		path, len(body), body))
}

// checkResponse reports what is wrong with a response, or "" when it is
// right: telemetry answers 204 with no body; a decide answers 200 for
// the requested site with its paths in the expected order. It does not
// allocate when the response is right.
func checkResponse(in *serveInputs, r *serveReq, status int, body []byte) string {
	if !r.decide {
		if status != http.StatusNoContent || len(body) != 0 {
			return fmt.Sprintf("telemetry: status %d, body %q", status, body)
		}
		return ""
	}
	s := &in.sites[r.site]
	if status != http.StatusOK {
		return fmt.Sprintf("decide %s: status %d, body %q", s.name, status, body)
	}
	site, ok1 := jsonField(body, `"site":"`, '"')
	paths, ok2 := jsonField(body, `"paths":[`, ']')
	if !ok1 || !ok2 || string(site) != s.name || !bytes.Equal(paths, s.want) {
		return fmt.Sprintf("decide %s: want paths [%s], got %q", s.name, s.want, body)
	}
	return ""
}

// jsonField returns the bytes between key and the next stop byte.
func jsonField(body []byte, key string, stop byte) ([]byte, bool) {
	i := bytes.Index(body, []byte(key))
	if i < 0 {
		return nil, false
	}
	rest := body[i+len(key):]
	j := bytes.IndexByte(rest, stop)
	if j < 0 {
		return nil, false
	}
	return rest[:j], true
}

// serveInstance is one running service: the store, the cmd/serve
// handler under net/http on a loopback listener, and the load
// generator's connection.
type serveInstance struct {
	store  *selector.Store
	srv    *serve.Server
	hs     *http.Server
	ln     net.Listener
	done   chan error
	client *httpClient
	now    func() time.Duration
	// curSpan and curReq name the client request in flight, so the
	// traced handler can parent its span (the loop is closed: one
	// request at a time).
	curSpan, curReq atomic.Int64
}

func startServe(rec *recorder) (*serveInstance, error) {
	start := time.Now()
	si := &serveInstance{now: func() time.Duration { return time.Since(start) }, done: make(chan error, 1)}
	si.store = selector.NewStore(selector.StoreConfig{})
	si.srv = serve.New(serve.Config{Store: si.store, Now: si.now})
	var h http.Handler = si.srv.Handler()
	if rec != nil {
		h = &tracedHandler{next: h, rec: rec, si: si}
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	si.ln = ln
	si.hs = &http.Server{Handler: h, ReadHeaderTimeout: 10 * time.Second}
	go func() { si.done <- si.hs.Serve(ln) }()
	if si.client, err = dialHTTP(ln.Addr().String()); err != nil {
		si.close()
		return nil, err
	}
	return si, nil
}

// close stops the client and the server and waits for the server's
// accept loop and connections to finish.
func (si *serveInstance) close() {
	if si.client != nil {
		si.client.close()
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := si.hs.Shutdown(ctx); err != nil {
		si.hs.Close()
	}
	<-si.done
}

// tracedHandler wraps the service handler with a span per request,
// parented to the client's span for that request.
type tracedHandler struct {
	next http.Handler
	rec  *recorder
	si   *serveInstance
}

func (h *tracedHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	id := h.rec.begin("serve.handler", int(h.si.curSpan.Load()), int(h.si.curReq.Load()))
	h.next.ServeHTTP(w, r)
	h.rec.end(id)
}

// runServe measures the service end to end. Set-up (server start,
// seeding one telemetry sample per path, warm-up) repeats serveSetups
// times and the last instance is measured: a closed loop over one
// keep-alive connection cycling through the request sequence until
// e.seconds have elapsed. An operation is one request of the sequence,
// by its index there; a pass is the whole sequence, and the throughput
// items are requests. The traced run then times the store and service
// entry points directly.
func runServe(e *env) (*phase, error) {
	in := genServeInputs(e.seed)
	p := &phase{layers: make(map[string]float64)}
	if err := checkClientAllocs(in, p); err != nil {
		return nil, err
	}
	var si *serveInstance
	for k := 0; k < serveSetups; k++ {
		if si != nil {
			si.close()
		}
		t0 := time.Now()
		var err error
		if si, err = startServe(e.rec); err != nil {
			return nil, err
		}
		for i := range in.seed {
			if err := si.request(in, &in.seed[i]); err != nil {
				si.close()
				return nil, err
			}
		}
		for i := 0; i < serveWarmup; i++ {
			if err := si.request(in, &in.seq[i%len(in.seq)]); err != nil {
				si.close()
				return nil, err
			}
		}
		p.setup = append(p.setup, time.Since(t0))
	}
	defer si.close()

	p.best = make(fastest, len(in.seq))
	lat := make([]float64, 0, len(in.seq))
	st0 := si.srv.StatsSnapshot()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	start := time.Now()
	next := serveWarmup
	for pass := 0; pass < 2 || time.Since(start) < e.seconds; pass++ {
		ps := e.rec.begin("serve.pass", 0, pass)
		for range in.seq {
			k := next % len(in.seq)
			r := &in.seq[k]
			next++
			id := e.rec.begin("client.request", ps, next)
			if e.rec != nil {
				si.curSpan.Store(int64(id))
				si.curReq.Store(int64(next))
			}
			t := time.Now()
			status, body, err := si.client.do(r.raw)
			d := time.Since(t)
			e.rec.end(id)
			p.best.add(k, d)
			lat = append(lat, float64(d.Nanoseconds())/1e3)
			if k%128 == 0 {
				p.mem.sample()
			}
			p.attempted++
			if err != nil {
				p.fail("request %d: %v", next, err)
				if err := si.redial(); err != nil {
					return nil, err
				}
				continue
			}
			if msg := checkResponse(in, r, status, body); msg != "" {
				p.fail("%s", msg)
			}
		}
		e.rec.end(ps)
		p.endPass(float64(len(in.seq)))
		p.tails = append(p.tails, quantile(lat, 0.99))
		lat = lat[:0]
	}
	runtime.ReadMemStats(&m1)
	st1 := si.srv.StatsSnapshot()
	if e.rec != nil {
		l := p.layers
		l["serve.allocs_per_query"] = float64(m1.Mallocs-m0.Mallocs) / float64(next-serveWarmup)
		l["serve.errors"] = float64(st1.BadRequests + st1.UnknownSite - st0.BadRequests - st0.UnknownSite)
		handlerStats(e.rec.snapshot(), l)
		directCalls(e.rec, in, si, p)
	}
	return p, nil
}

// request sends one set-up request and checks its response.
func (si *serveInstance) request(in *serveInputs, r *serveReq) error {
	status, body, err := si.client.do(r.raw)
	if err != nil {
		return fmt.Errorf("serve-http set-up: %w", err)
	}
	if msg := checkResponse(in, r, status, body); msg != "" {
		return fmt.Errorf("serve-http set-up: %s", msg)
	}
	return nil
}

func (si *serveInstance) redial() error {
	si.client.close()
	c, err := dialHTTP(si.ln.Addr().String())
	if err != nil {
		return fmt.Errorf("serve-http: reconnect: %w", err)
	}
	si.client = c
	return nil
}

// handlerStats derives the handler-side metrics from the request spans:
// the median handler time, and the share of client latency spent
// outside the handler (net/http, loopback and the client itself).
func handlerStats(spans []span, l map[string]float64) {
	var handler []float64
	var inHandler, total time.Duration
	for _, s := range spans {
		switch s.Name {
		case "serve.handler":
			if s.Parent == 0 {
				continue // a set-up request: no client span to compare with
			}
			handler = append(handler, float64((s.End-s.Start).Nanoseconds())/1e3)
			inHandler += s.End - s.Start
		case "client.request":
			total += s.End - s.Start
		}
	}
	l["serve.handler_us_p50"] = median(handler)
	l["serve.http_share"] = 1 - ratio(float64(inHandler), float64(total))
}

// directCalls times the store and service entry points without HTTP:
// each span covers directBatch calls, and each metric is the median
// per-call time over directSpans spans. Outputs are checked after
// every span.
func directCalls(rec *recorder, in *serveInputs, si *serveInstance, p *phase) {
	var decides, tels []*serveReq
	for i := range in.seq {
		if in.seq[i].decide {
			decides = append(decides, &in.seq[i])
		} else {
			tels = append(tels, &in.seq[i])
		}
	}
	siteBytes := make([][]byte, len(in.sites))
	pathBytes := make([][][]byte, len(in.sites))
	for i, s := range in.sites {
		siteBytes[i] = []byte(s.name)
		for _, pth := range s.paths {
			pathBytes[i] = append(pathBytes[i], []byte(pth))
		}
	}
	// The service parses request bodies in place; give it copies.
	body := make([]byte, 0, 256)
	sc := si.srv.GetScratch()
	defer si.srv.PutScratch(sc)
	var d selector.Decision

	type entry struct {
		span, metric string
		call         func(i int, at time.Duration)
		check        func(i int) string
	}
	entries := []entry{
		{"selector.Store.Decide", "selector.decide_ns", func(i int, at time.Duration) {
			r := decides[i%len(decides)]
			si.store.Decide(siteBytes[r.site], r.flow, at, &d)
		}, func(i int) string {
			r := decides[i%len(decides)]
			if !si.store.Decide(siteBytes[r.site], r.flow, si.now(), &d) {
				return "Store.Decide: unknown site " + in.sites[r.site].name
			}
			var got []byte
			for j, pth := range d.Paths {
				if j > 0 {
					got = append(got, ',')
				}
				got = strconv.AppendQuote(got, pth)
			}
			if !bytes.Equal(got, in.sites[r.site].want) {
				return fmt.Sprintf("Store.Decide %s: paths %s, want %s", in.sites[r.site].name, got, in.sites[r.site].want)
			}
			return ""
		}},
		{"selector.Store.Observe", "selector.observe_ns", func(i int, at time.Duration) {
			r := tels[i%len(tels)]
			si.store.Observe(siteBytes[r.site], pathBytes[r.site][r.path], r.mbps, r.rtt, at)
		}, nil},
		{"serve.Server.DecideBytes", "serve.decide_bytes_ns", func(i int, _ time.Duration) {
			r := decides[i%len(decides)]
			body = append(body[:0], r.body...)
			si.srv.DecideBytes(body, sc)
		}, func(i int) string {
			r := decides[i%len(decides)]
			body = append(body[:0], r.body...)
			return checkResponse(in, r, si.srv.DecideBytes(body, sc), sc.Out)
		}},
		{"serve.Server.TelemetryBytes", "serve.telemetry_bytes_ns", func(i int, _ time.Duration) {
			r := tels[i%len(tels)]
			body = append(body[:0], r.body...)
			si.srv.TelemetryBytes(body, sc)
		}, func(i int) string {
			r := tels[i%len(tels)]
			body = append(body[:0], r.body...)
			return checkResponse(in, r, si.srv.TelemetryBytes(body, sc), nil)
		}},
	}
	for _, en := range entries {
		perCall := make([]float64, 0, directSpans)
		i := 0
		for s := 0; s < directSpans; s++ {
			id := rec.begin(en.span, 0, s)
			at := si.now()
			t := time.Now()
			for n := 0; n < directBatch; n++ {
				en.call(i, at)
				i++
			}
			perCall = append(perCall, float64(time.Since(t).Nanoseconds())/directBatch)
			rec.end(id)
			if en.check != nil {
				p.attempted++
				if msg := en.check(i); msg != "" {
					p.fail("direct %s", msg)
				}
			}
		}
		p.layers[en.metric] = median(perCall)
	}
}

// checkClientAllocs runs the load generator against a canned
// allocation-free responder and fails the run if the generator
// allocates per request.
func checkClientAllocs(in *serveInputs, p *phase) error {
	const n = 2000
	allocs, err := clientAllocs(in, n)
	if err != nil {
		return err
	}
	p.attempted++
	if allocs > 0.01 {
		p.fail("load generator allocates %.3f objects per request, want 0", allocs)
	}
	return nil
}

// clientAllocs returns the mean allocations per request of the load
// generator (the canned responder included) over n requests after a
// warm-up: the fewest of three rounds, so a stray allocation by the
// runtime does not count while one made per request shows in every
// round.
func clientAllocs(in *serveInputs, n int) (float64, error) {
	srv, err := startCanned([]byte("HTTP/1.1 204 No Content\r\nDate: Mon, 02 Jan 2006 15:04:05 GMT\r\n\r\n"))
	if err != nil {
		return 0, err
	}
	defer srv.close()
	c, err := dialHTTP(srv.ln.Addr().String())
	if err != nil {
		return 0, err
	}
	defer c.close()
	send := func(k int) error {
		for i := 0; i < k; i++ {
			if _, _, err := c.do(in.seq[i%len(in.seq)].raw); err != nil {
				return err
			}
		}
		return nil
	}
	if err := send(100); err != nil {
		return 0, err
	}
	fewest := uint64(math.MaxUint64)
	for round := 0; round < 3; round++ {
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		if err := send(n); err != nil {
			return 0, err
		}
		runtime.ReadMemStats(&m1)
		fewest = min(fewest, m1.Mallocs-m0.Mallocs)
	}
	return float64(fewest) / float64(n), nil
}
