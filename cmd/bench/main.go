// Command bench runs the repository's benchmark suite outside `go
// test` and records the results as a machine-readable report — the
// repo's bench trajectory artifact.
//
// Three benchmark families run:
//
//   - scheduler micro-benchmarks (sched/*): the simnet timing-wheel
//     kernel alone — schedule/fire churn, cancel-heavy timer churn, and
//     scheduling against a deep pending set;
//   - kernel micro-benchmarks: TCP bulk transfers and MPTCP two-subflow
//     transfers over the simulated WiFi+LTE pair, the per-packet hot
//     path every experiment hammers;
//   - service benchmarks (serve/*): the online path-selection service's
//     decide and telemetry hot cores over the sharded estimate store,
//     allocs/op pinned at zero;
//   - registry experiments: every harness in the engine registry at the
//     quick (test-sized) sweep options, the same set cmd/report runs.
//
// -serve-load switches the binary into a closed-loop load generator
// over the service instead (queries/s plus an allocs/query assertion);
// see runServeLoad.
//
// Usage:
//
//	bench [-out BENCH_report.json] [-baseline BENCH_baseline.json]
//	      [-check] [-rebase] [-maxslow 1.15] [-count 5] [-benchtime 1s]
//	      [-only name[,name...]] [-skip-experiments]
//	      [-cpuprofile cpu.out] [-memprofile mem.out] [-diff compare.txt]
//
// -out writes the report (ns/op, B/op, allocs/op per benchmark).
// -baseline names the committed reference report. With -check, the run
// fails (exit 1) if any benchmark regresses against the baseline:
// allocs/op may not rise more than 0.25% above the baseline (exact for
// the small kernel benchmarks; the tolerance absorbs the GC-timing
// jitter on sync.Pool refills in the experiment sweeps), and
// ns/op may not exceed the baseline by more than the -maxslow factor.
// The ns/op gate arms only when the baseline was recorded on the same
// goos/goarch/CPU-count class as this run — a wall-clock floor from
// foreign hardware would only produce false failures. With -rebase,
// the baseline file is rewritten from this run's results (commit it to
// accept a new performance floor). -only selects benchmarks by name.
//
// Each benchmark runs -count times; the reported ns/op is the minimum
// (the robust noise-resistant estimator) and allocs/op the maximum, so
// the -check gate compares the machine's best speed and worst
// allocation behaviour.
//
// -cpuprofile / -memprofile write pprof profiles covering the selected
// benchmarks, for hunting the next hot spot without rebuilding the
// harness by hand. -diff writes a per-benchmark baseline-vs-run
// comparison table (the nightly workflow uploads it as an artifact).
//
// CI runs `bench -check` on every push and the nightly workflow uploads
// a baseline-vs-report comparison artifact; see .github/workflows/ and
// the "Benchmark trajectory" section of EXPERIMENTS.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"
	"testing"
	"time"

	"multinet/internal/experiments" // importing registers every harness
	"multinet/internal/experiments/engine"
	"multinet/internal/mptcp"
	"multinet/internal/netem"
	"multinet/internal/simnet"
	"multinet/internal/tcp"
)

// Result is one benchmark measurement. EventsPerPacket is reported by
// the netem-driven transport benchmarks only: kernel events processed
// per packet carried.
type Result struct {
	Name     string  `json:"name"`
	Runs     int     `json:"runs"`
	NsPerOp  float64 `json:"ns_per_op"`
	BPerOp   int64   `json:"bytes_per_op"`
	AllocsOp int64   `json:"allocs_per_op"`

	EventsPerPacket float64 `json:"events_per_packet,omitempty"`
}

// Report is the serialised benchmark trajectory artifact.
type Report struct {
	GoOS    string   `json:"goos"`
	GoArch  string   `json:"goarch"`
	NumCPU  int      `json:"num_cpu"`
	Results []Result `json:"results"`
}

// bench is a named benchmark body.
type bench struct {
	name string
	fn   func(b *testing.B)
}

// nopEvent is the no-op body for pure scheduler benchmarks.
func nopEvent(any) {}

// netemMetrics accumulates simulator-level counters across a
// benchmark's iterations: kernel events processed and packets carried
// (accepted onto any link).
type netemMetrics struct {
	events  uint64
	packets int64
}

// curMetrics, when non-nil, receives the counters of every transport
// benchmark iteration (the main loop points it at a fresh accumulator
// per benchmark).
var curMetrics *netemMetrics

func (m *netemMetrics) collect(sim *simnet.Sim, links ...*netem.FixedLink) {
	if m == nil {
		return
	}
	m.events += sim.Processed()
	for _, l := range links {
		st := l.Stats()
		m.packets += int64(st.Sent)
	}
}

// schedFireChurn measures the schedule+fire cycle with 64 event chains
// in flight: each fired event schedules its successor, the ACK-clocked
// steady state of every transport benchmark below. b.N counts fired
// events.
func schedFireChurn(b *testing.B) {
	s := simnet.New(1)
	fired := 0
	var step func(any)
	step = func(any) {
		fired++
		if fired < b.N {
			s.AfterArg(731*time.Microsecond, step, nil)
		}
	}
	for i := 0; i < 64 && i < b.N; i++ {
		s.AfterArg(time.Duration(i+1)*time.Microsecond, step, nil)
	}
	b.ResetTimer()
	s.Run()
	if fired < b.N {
		b.Fatalf("fired %d events, want %d", fired, b.N)
	}
}

// schedCancelChurn measures the schedule+cancel cycle of a
// retransmission-timer workload: every op arms a timer ~200 ms out and
// stops it again, with a small set of live timers pending throughout.
func schedCancelChurn(b *testing.B) {
	s := simnet.New(1)
	for i := 0; i < 16; i++ {
		s.AfterArg(time.Duration(i+1)*time.Hour, nopEvent, nil)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.AfterArg(200*time.Millisecond, nopEvent, nil).Stop()
	}
}

// schedDeepPending measures schedule/fire cost with 64k long-lived
// timers pending while the measured chain schedules and fires through
// them — the depth at which a comparison-based queue pays O(log n) per
// event.
func schedDeepPending(b *testing.B) {
	s := simnet.New(1)
	// The deep set sits past any reachable horizon: the chain fires one
	// event per 5 µs, so even go-test's 1e9 iteration cap stays under
	// 84 min of virtual time, clear of the 2 h floor.
	const deep = 64 << 10
	for i := 0; i < deep; i++ {
		s.AfterArg(2*time.Hour+time.Duration(i)*time.Millisecond, nopEvent, nil)
	}
	fired := 0
	var step func(any)
	step = func(any) {
		fired++
		if fired < b.N {
			s.AfterArg(5*time.Microsecond, step, nil)
		}
	}
	s.AfterArg(time.Microsecond, step, nil)
	b.ResetTimer()
	s.RunUntil(time.Microsecond + time.Duration(b.N)*5*time.Microsecond)
	if fired < b.N {
		b.Fatalf("fired %d events, want %d", fired, b.N)
	}
}

// tcpDownload transfers size bytes server→client over one fixed-rate
// duplex interface — the plain-TCP kernel hot path.
func tcpDownload(b *testing.B, size int, loss float64) {
	for i := 0; i < b.N; i++ {
		sim := simnet.New(int64(i + 1))
		cfg := func(stream string) netem.LinkConfig {
			lc := netem.LinkConfig{
				PropDelay:  15 * time.Millisecond,
				LossProb:   loss,
				QueueLimit: 200,
			}
			if loss > 0 {
				// Seeding a PRNG stream costs ~10 µs; lossless links
				// never draw from it.
				lc.RNG = sim.RNG(stream)
			}
			return lc
		}
		up := netem.NewFixedLink(sim, 20, cfg("loss/up"))
		down := netem.NewFixedLink(sim, 20, cfg("loss/down"))
		iface := netem.NewIface(sim, "wifi", up, down)
		client := tcp.NewStack(sim, tcp.ClientSide)
		server := tcp.NewStack(sim, tcp.ServerSide)
		client.Bind(iface)
		server.Bind(iface)
		var done bool
		server.Accept = func(c *tcp.Conn) {
			c.SetCallbacks(tcp.Callbacks{OnEstablished: func(c *tcp.Conn) {
				c.Send(size)
				c.Close()
			}})
		}
		client.Dial(iface, "bench", tcp.Config{Callbacks: tcp.Callbacks{
			OnData: func(c *tcp.Conn, total int64) { done = done || total >= int64(size) },
		}})
		sim.Run()
		if !done {
			b.Fatal("transfer incomplete")
		}
		curMetrics.collect(sim, up, down)
	}
	b.SetBytes(int64(size))
}

// mptcpDownload transfers size bytes over a two-subflow MPTCP
// connection (10 Mbit/s 15 ms WiFi + 8 Mbit/s 30 ms LTE).
func mptcpDownload(b *testing.B, size int, cc mptcp.CongestionMode) {
	for i := 0; i < b.N; i++ {
		sim := simnet.New(int64(i + 1))
		var links []*netem.FixedLink
		mk := func(name string, mbps float64, owd time.Duration) *netem.Iface {
			cfg := netem.LinkConfig{PropDelay: owd, QueueLimit: 150}
			up := netem.NewFixedLink(sim, mbps, cfg)
			down := netem.NewFixedLink(sim, mbps, cfg)
			links = append(links, up, down)
			return netem.NewIface(sim, name, up, down)
		}
		wifi := mk("wifi", 10, 15*time.Millisecond)
		lte := mk("lte", 8, 30*time.Millisecond)
		host := netem.NewHost("client")
		host.Attach(wifi)
		host.Attach(lte)
		client := tcp.NewStack(sim, tcp.ClientSide)
		server := tcp.NewStack(sim, tcp.ServerSide)
		for _, ifc := range []*netem.Iface{wifi, lte} {
			client.Bind(ifc)
			server.Bind(ifc)
		}
		srv := mptcp.NewServer(sim, server, mptcp.ServerConfig{CC: cc})
		srv.OnConn = func(c *mptcp.Conn) {
			c.Send(size)
			c.Close()
		}
		var done bool
		mptcp.Dial(sim, client, host, mptcp.Config{ConnID: "bench", Primary: "wifi", CC: cc},
			mptcp.Callbacks{OnData: func(c *mptcp.Conn, total int64) {
				done = done || total >= int64(size)
			}})
		sim.Run()
		if !done {
			b.Fatal("transfer incomplete")
		}
		curMetrics.collect(sim, links...)
	}
	b.SetBytes(int64(size))
}

// kernelBenchmarks is the fixed micro-benchmark set guarding the
// per-packet hot path.
func kernelBenchmarks() []bench {
	return []bench{
		{"sched/fire-churn", schedFireChurn},
		{"sched/cancel-churn", schedCancelChurn},
		{"sched/deep-pending", schedDeepPending},
		{"tcp/download-100KB", func(b *testing.B) { tcpDownload(b, 100<<10, 0) }},
		{"tcp/download-1MB", func(b *testing.B) { tcpDownload(b, 1<<20, 0) }},
		{"tcp/download-1MB-lossy", func(b *testing.B) { tcpDownload(b, 1<<20, 0.02) }},
		{"mptcp/download-1MB-decoupled", func(b *testing.B) { mptcpDownload(b, 1<<20, mptcp.Decoupled) }},
		{"mptcp/download-1MB-coupled", func(b *testing.B) { mptcpDownload(b, 1<<20, mptcp.Coupled) }},
		{"mptcp/download-10KB", func(b *testing.B) { mptcpDownload(b, 10<<10, mptcp.Decoupled) }},
	}
}

// experimentBenchmarks wraps every registered experiment at quick
// options, exactly the set cmd/report -quick runs.
func experimentBenchmarks() []bench {
	var out []bench
	for _, e := range engine.All() {
		e := e
		out = append(out, bench{
			name: "experiment/" + e.Meta.Name,
			fn: func(b *testing.B) {
				o := experiments.Quick()
				o.Workers = 1 // sequential: benchmark the kernel, not the pool
				for i := 0; i < b.N; i++ {
					_ = e.Run(o)
				}
			},
		})
	}
	return out
}

// envMatches reports whether the baseline was recorded on the same
// machine class as this run. ns/op floors are only meaningful on
// matching hardware; allocs/op are exact everywhere.
func envMatches(base, cur Report) bool {
	return base.GoOS == cur.GoOS && base.GoArch == cur.GoArch && base.NumCPU == cur.NumCPU
}

// compare checks cur against base, returning regression descriptions.
// defined names every benchmark this binary knows, run or not: a
// baseline entry outside it is an orphan (renamed or deleted), and a
// run benchmark without a baseline entry is ungated — both fail, so
// nothing leaves or enters the gate silently. gateNs disables the
// ns/op comparison (used when the baseline comes from different
// hardware, where a wall-clock floor is meaningless).
func compare(base, cur []Result, defined []string, maxSlow float64, gateNs bool) []string {
	baseBy := make(map[string]Result, len(base))
	for _, r := range base {
		baseBy[r.Name] = r
	}
	var bad []string
	known := make(map[string]bool, len(defined))
	for _, n := range defined {
		known[n] = true
	}
	for _, b := range base {
		if !known[b.Name] {
			bad = append(bad, fmt.Sprintf("%s: baseline entry matches no benchmark (drop it from the baseline)", b.Name))
		}
	}
	for _, r := range cur {
		b, ok := baseBy[r.Name]
		if !ok {
			bad = append(bad, fmt.Sprintf("%s: no baseline entry (measure it and add it to the baseline)", r.Name))
			continue
		}
		// Allocation counts gate at 0.25% of the baseline, rounded
		// down: the transfer micro-benchmarks (≲1k allocs/op) gate
		// within a couple of allocs, while the experiment sweeps —
		// tens of thousands of allocs/op with sync.Pool refills
		// exposed to concurrent-GC timing — tolerate the ±tens-of-
		// allocs jitter a shared runner produces (observed up to
		// 0.19%). A real hot-path regression recurs per segment and
		// lands far beyond the tolerance; the zero-alloc invariant
		// itself is pinned by AllocsPerRun tests in internal/netem
		// and internal/tcp, which this tolerance cannot mask.
		if tol := b.AllocsOp / 400; r.AllocsOp > b.AllocsOp+tol {
			bad = append(bad, fmt.Sprintf("%s: allocs/op %d -> %d (>0.25%% above baseline)",
				r.Name, b.AllocsOp, r.AllocsOp))
		}
		if gateNs && b.NsPerOp > 0 && r.NsPerOp > b.NsPerOp*maxSlow {
			bad = append(bad, fmt.Sprintf("%s: ns/op %.0f -> %.0f (>%.0f%% slower)",
				r.Name, b.NsPerOp, r.NsPerOp, (maxSlow-1)*100))
		}
	}
	return bad
}

// writeDiff renders a per-benchmark comparison of base vs cur.
func writeDiff(path string, base, cur Report) error {
	baseBy := make(map[string]Result, len(base.Results))
	for _, r := range base.Results {
		baseBy[r.Name] = r
	}
	var sb strings.Builder
	fmt.Fprintf(&sb, "baseline %s/%s %d CPUs vs run %s/%s %d CPUs\n\n",
		base.GoOS, base.GoArch, base.NumCPU, cur.GoOS, cur.GoArch, cur.NumCPU)
	evpkt := func(r Result) string {
		if r.EventsPerPacket == 0 {
			return "-"
		}
		return fmt.Sprintf("%.2f", r.EventsPerPacket)
	}
	fmt.Fprintf(&sb, "%-34s %14s %14s %8s %10s %10s %7s %7s\n",
		"benchmark", "base ns/op", "ns/op", "delta", "base a/op", "a/op",
		"base e/p", "ev/pkt")
	for _, r := range cur.Results {
		b, ok := baseBy[r.Name]
		if !ok {
			fmt.Fprintf(&sb, "%-34s %14s %14.0f %8s %10s %10d %7s %7s  (new)\n",
				r.Name, "-", r.NsPerOp, "-", "-", r.AllocsOp, "-", evpkt(r))
			continue
		}
		delete(baseBy, r.Name)
		delta := "-"
		if b.NsPerOp > 0 {
			delta = fmt.Sprintf("%+.1f%%", (r.NsPerOp/b.NsPerOp-1)*100)
		}
		fmt.Fprintf(&sb, "%-34s %14.0f %14.0f %8s %10s %10d %7s %7s\n",
			r.Name, b.NsPerOp, r.NsPerOp, delta, fmt.Sprint(b.AllocsOp), r.AllocsOp,
			evpkt(b), evpkt(r))
	}
	// Baseline rows the run never produced (renamed, deleted, or
	// filtered out by -only) must not vanish silently: a reader of the
	// artifact would otherwise assume full coverage.
	for _, b := range base.Results {
		if _, gone := baseBy[b.Name]; gone {
			fmt.Fprintf(&sb, "%-34s %14.0f %14s %8s %10d %10s  (not run)\n",
				b.Name, b.NsPerOp, "-", "-", b.AllocsOp, "-")
		}
	}
	return os.WriteFile(path, []byte(sb.String()), 0o644)
}

func loadReport(path string) (Report, error) {
	var rep Report
	data, err := os.ReadFile(path)
	if err != nil {
		return rep, err
	}
	err = json.Unmarshal(data, &rep)
	return rep, err
}

func writeReport(path string, rep Report) error {
	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

func main() {
	out := flag.String("out", "BENCH_report.json", "write the benchmark report here ('' to skip)")
	baseline := flag.String("baseline", "BENCH_baseline.json", "baseline report to compare against")
	check := flag.Bool("check", false, "exit non-zero on regression vs the baseline")
	rebase := flag.Bool("rebase", false, "rewrite the baseline from this run")
	maxSlow := flag.Float64("maxslow", 1.15, "ns/op regression factor tolerated by -check")
	only := flag.String("only", "", "comma-separated benchmark names to run (default: all)")
	skipExp := flag.Bool("skip-experiments", false, "run only the kernel micro-benchmarks")
	count := flag.Int("count", 5, "repetitions per benchmark (min ns/op, max allocs/op reported)")
	benchtime := flag.String("benchtime", "", "per-repetition benchmark time (go test -benchtime syntax)")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile covering the selected benchmarks")
	memprofile := flag.String("memprofile", "", "write a heap profile taken after the selected benchmarks")
	diff := flag.String("diff", "", "write a baseline-vs-run comparison table here")
	serveLoad := flag.Duration("serve-load", 0,
		"run the path-selection service load generator for this duration and exit (asserts 0 allocs/query)")
	serveWorkers := flag.Int("serve-load-workers", 0, "serve-load worker goroutines (0 = GOMAXPROCS)")
	testing.Init()
	flag.Parse()
	if *serveLoad > 0 {
		os.Exit(runServeLoad(*serveLoad, *serveWorkers))
	}
	if *benchtime != "" {
		if err := flag.Lookup("test.benchtime").Value.Set(*benchtime); err != nil {
			fmt.Fprintln(os.Stderr, "bad -benchtime:", err)
			os.Exit(2)
		}
	}
	if *count < 1 {
		*count = 1
	}

	benches := append(kernelBenchmarks(), serveBenchmarks()...)
	exps := experimentBenchmarks()
	var defined []string
	for _, set := range [][]bench{benches, exps} {
		for _, bm := range set {
			defined = append(defined, bm.name)
		}
	}
	if !*skipExp {
		benches = append(benches, exps...)
	}
	if *only != "" {
		want := map[string]bool{}
		for _, n := range strings.Split(*only, ",") {
			if n = strings.TrimSpace(n); n != "" {
				want[n] = true
			}
		}
		kept := benches[:0]
		for _, bm := range benches {
			if want[bm.name] {
				kept = append(kept, bm)
				delete(want, bm.name)
			}
		}
		if len(want) > 0 {
			names := make([]string, 0, len(benches))
			for _, bm := range benches {
				names = append(names, bm.name)
			}
			fmt.Fprintf(os.Stderr, "unknown benchmark(s) in -only; valid names: %s\n",
				strings.Join(names, ", "))
			os.Exit(2)
		}
		benches = kept
	}

	stopProfile := func() {}
	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fmt.Fprintln(os.Stderr, "creating -cpuprofile:", err)
			os.Exit(1)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, "starting CPU profile:", err)
			os.Exit(1)
		}
		var once bool
		stopProfile = func() {
			if once {
				return
			}
			once = true
			pprof.StopCPUProfile()
			f.Close()
		}
		defer stopProfile()
	}
	// exit flushes the CPU profile before terminating: os.Exit skips
	// deferred calls, which would leave a truncated, unparseable profile
	// on exactly the runs (gate failures) where the profile matters.
	exit := func(code int) {
		stopProfile()
		os.Exit(code)
	}

	rep := Report{GoOS: runtime.GOOS, GoArch: runtime.GOARCH, NumCPU: runtime.NumCPU()}
	for _, bm := range benches {
		start := time.Now()
		var res Result
		curMetrics = &netemMetrics{}
		for k := 0; k < *count; k++ {
			r := testing.Benchmark(bm.fn)
			ns := float64(r.T.Nanoseconds()) / float64(r.N)
			if k == 0 || ns < res.NsPerOp {
				res.NsPerOp = ns
			}
			if k == 0 || r.AllocsPerOp() > res.AllocsOp {
				res.AllocsOp = r.AllocsPerOp()
				res.BPerOp = r.AllocedBytesPerOp()
			}
			res.Runs += r.N
		}
		res.Name = bm.name
		extra := ""
		if m := curMetrics; m.packets > 0 {
			res.EventsPerPacket = float64(m.events) / float64(m.packets)
			extra = fmt.Sprintf("  %.2f ev/pkt", res.EventsPerPacket)
		}
		curMetrics = nil
		rep.Results = append(rep.Results, res)
		fmt.Fprintf(os.Stderr, "%-32s %10.0f ns/op %8d B/op %6d allocs/op  (n=%d, %v)%s\n",
			bm.name, res.NsPerOp, res.BPerOp, res.AllocsOp, res.Runs,
			time.Since(start).Round(time.Millisecond), extra)
	}

	if *memprofile != "" {
		f, err := os.Create(*memprofile)
		if err != nil {
			fmt.Fprintln(os.Stderr, "creating -memprofile:", err)
			exit(1)
		}
		runtime.GC()
		if err := pprof.WriteHeapProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, "writing heap profile:", err)
			exit(1)
		}
		f.Close()
	}

	if *out != "" {
		if err := writeReport(*out, rep); err != nil {
			fmt.Fprintln(os.Stderr, "writing report:", err)
			exit(1)
		}
		fmt.Fprintf(os.Stderr, "report written to %s (%d benchmarks)\n", *out, len(rep.Results))
	}

	if *diff != "" {
		base, err := loadReport(*baseline)
		if err != nil {
			fmt.Fprintf(os.Stderr, "loading baseline %s for -diff: %v\n", *baseline, err)
			exit(1)
		}
		if err := writeDiff(*diff, base, rep); err != nil {
			fmt.Fprintln(os.Stderr, "writing -diff:", err)
			exit(1)
		}
		fmt.Fprintf(os.Stderr, "comparison written to %s\n", *diff)
	}

	if *rebase {
		if err := writeReport(*baseline, rep); err != nil {
			fmt.Fprintln(os.Stderr, "rewriting baseline:", err)
			exit(1)
		}
		fmt.Fprintf(os.Stderr, "baseline %s rewritten; commit it to accept the new floor\n", *baseline)
		return
	}

	if *check {
		base, err := loadReport(*baseline)
		if err != nil {
			fmt.Fprintf(os.Stderr, "loading baseline %s: %v\n", *baseline, err)
			exit(1)
		}
		gateNs := envMatches(base, rep)
		if !gateNs {
			fmt.Fprintf(os.Stderr,
				"baseline %s was recorded on %s/%s (%d CPUs), this is %s/%s (%d CPUs): "+
					"gating allocs/op only; run -rebase on this machine class to arm the ns/op gate\n",
				*baseline, base.GoOS, base.GoArch, base.NumCPU, rep.GoOS, rep.GoArch, rep.NumCPU)
		}
		if bad := compare(base.Results, rep.Results, defined, *maxSlow, gateNs); len(bad) > 0 {
			fmt.Fprintln(os.Stderr, "benchmark regressions vs", *baseline+":")
			for _, line := range bad {
				fmt.Fprintln(os.Stderr, "  "+line)
			}
			exit(1)
		}
		if gateNs {
			fmt.Fprintf(os.Stderr, "no regressions vs %s (allocs/op within 0.25%%, ns/op within %.0f%%)\n",
				*baseline, (*maxSlow-1)*100)
		} else {
			fmt.Fprintf(os.Stderr, "no allocs/op regressions vs %s\n", *baseline)
		}
	}
}
