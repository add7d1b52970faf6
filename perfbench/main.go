// Command perfbench is the repository benchmark. It runs one workload
// for a fixed time, checks that the program's outputs are correct, and
// prints one JSON result line whose metrics are exactly the ones
// BENCHMARK.json names: the end-to-end metrics untraced (-trace 0), or
// the per-layer metrics from a traced run (-trace 1).
//
// Usage (from the checkout root; run.sh builds the binary first):
//
//	bash perfbench/run.sh --workload report-quick --seed 2014 --seconds 30 --trace 0
//
// See README.md for the workloads, the metrics and the trace output.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"sort"
	"strings"
	"time"

	"multinet/internal/experiments/engine"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// env is what a workload run gets from the harness.
type env struct {
	seed    int64
	seconds time.Duration
	rec     *recorder // nil when tracing is off
	// setupArgs re-executes this binary in set-up probe mode (see
	// quickSetup); nil in tests.
	setupArgs []string
}

// workload is one named input set.
type workload struct {
	name string
	// run measures the workload once for env.seconds.
	run func(e *env) (*phase, error)
	// prepare does the workload's set-up without running it; the
	// -probe-setup mode calls it to time process start-up. Only
	// workloads whose set-up is process start-up have one.
	prepare func(seed int64) error
}

var workloads = []workload{
	{name: "report-quick", run: runQuick, prepare: func(seed int64) error {
		_, _, err := prepareQuick(seed)
		return err
	}},
	{name: "bulk-varlink", run: runBulk},
	{name: "serve-http", run: runServe},
}

func lookupWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// phase is the outcome of one measured run of a workload. Every pass
// runs the workload's operation list (29 experiments, 160 transfers or
// the 8192-request sequence) once.
type phase struct {
	setup  []time.Duration // each set-up repetition
	passes int             // passes over the operation list
	items  float64         // throughput items in one pass
	// best holds each operation's fastest time over the run, by its
	// index in the operation list (see endToEnd).
	best fastest
	// mem samples the process's memory after every operation, and
	// peaks holds each pass's peak in MiB (see memGauge).
	mem   memGauge
	peaks []float64
	// tails holds each pass's p99 operation time in µs, for a workload
	// whose operations are many and alike (serve-http); their median is
	// then the reported latency_p99_us.
	tails []float64

	attempted int
	failed    int
	problems  []string

	// layers holds the per-layer values the workload measured itself
	// (traced run only); names come from layerDefs.
	layers map[string]float64
}

// endPass records a pass of items throughput items.
func (p *phase) endPass(items float64) {
	p.passes++
	p.items = items
	p.peaks = append(p.peaks, p.mem.endPass())
}

// fastest keeps, by index in a fixed list of operations, the fastest
// time each took over a run (0 until it first ran).
type fastest []time.Duration

func (f fastest) add(i int, d time.Duration) {
	if f[i] == 0 || d < f[i] {
		f[i] = d
	}
}

func (f fastest) sum() time.Duration {
	var t time.Duration
	for _, d := range f {
		t += d
	}
	return t
}

// fail records one failed operation.
func (p *phase) fail(format string, args ...any) {
	p.failed++
	if len(p.problems) < 10 {
		p.problems = append(p.problems, fmt.Sprintf(format, args...))
	}
}

// result is the JSON line the command prints last.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type options struct {
	workload   string
	seed       int64
	seconds    int
	trace      int
	root, out  string
	probeSetup bool
}

func parseFlags(args []string, stderr io.Writer) (options, error) {
	var o options
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.StringVar(&o.workload, "workload", "", "workload to run: report-quick, bulk-varlink or serve-http")
	fs.Int64Var(&o.seed, "seed", engine.DefaultSeed, "workload seed; every input is generated from it")
	fs.IntVar(&o.seconds, "seconds", 30, "how long to measure")
	fs.IntVar(&o.trace, "trace", 0, "0: end-to-end metrics; 1: traced run, per-layer metrics")
	fs.StringVar(&o.root, "root", ".", "checkout root holding BENCHMARK.json")
	fs.StringVar(&o.out, "out", ".bench_build/perfbench", "directory for spans and CPU profiles")
	fs.BoolVar(&o.probeSetup, "probe-setup", false, "internal: prepare the workload, print \"ready\" and exit")
	if err := fs.Parse(args); err != nil {
		return o, err
	}
	if fs.NArg() > 0 {
		return o, fmt.Errorf("unexpected arguments: %q", fs.Args())
	}
	if o.seconds < 1 {
		return o, errors.New("-seconds must be at least 1")
	}
	if o.trace != 0 && o.trace != 1 {
		return o, errors.New("-trace must be 0 or 1")
	}
	return o, nil
}

func run(args []string, stdout, stderr io.Writer) int {
	o, err := parseFlags(args, stderr)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 2
	}
	w, spec, err := resolve(o)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 2
	}
	if o.probeSetup {
		if w.prepare == nil {
			fmt.Fprintf(stderr, "perfbench: %s has no set-up probe\n", w.name)
			return 2
		}
		if err := w.prepare(o.seed); err != nil {
			fmt.Fprintln(stderr, "perfbench:", err)
			return 2
		}
		fmt.Fprintln(stdout, "ready")
		return 0
	}
	res, err := measure(w, spec, o, stderr)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 2
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 2
	}
	fmt.Fprintf(stdout, "%s\n", line)
	if !res.Correct {
		fmt.Fprintln(stderr, "perfbench: output check FAILED")
		return 1
	}
	return 0
}

// resolve finds the workload and cross-checks it against
// BENCHMARK.json: every workload the file names must exist here, and
// the requested one must be in the file.
func resolve(o options) (workload, *benchSpec, error) {
	spec, err := loadSpec(filepath.Join(o.root, "BENCHMARK.json"))
	if err != nil {
		return workload{}, nil, err
	}
	for _, sw := range spec.Workloads {
		if _, ok := lookupWorkload(sw.Name); !ok {
			return workload{}, nil, fmt.Errorf("BENCHMARK.json names workload %q, which this command does not run", sw.Name)
		}
	}
	w, ok := lookupWorkload(o.workload)
	if !ok {
		var names []string
		for _, w := range workloads {
			names = append(names, w.name)
		}
		return workload{}, nil, fmt.Errorf("unknown workload %q; valid: %s", o.workload, strings.Join(names, ", "))
	}
	if !spec.hasWorkload(w.name) {
		return workload{}, nil, fmt.Errorf("workload %q is not listed in BENCHMARK.json", w.name)
	}
	return w, spec, nil
}

// measure runs the workload untraced and, for -trace 1, again traced,
// and returns the checked result.
func measure(w workload, spec *benchSpec, o options, stderr io.Writer) (*result, error) {
	// Every workload drives the program from one goroutine (serve-http
	// from a client and a server goroutine taking turns), so one P
	// loses no parallelism. It keeps garbage collection and stop-the-
	// world pauses off the second CPU, whose load from other processes
	// made runs with two Ps much less steady (README.md, "Steadiness").
	runtime.GOMAXPROCS(1)
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	seconds := time.Duration(o.seconds) * time.Second
	if o.trace == 1 {
		// A traced run measures twice, untraced for the overhead
		// baseline and then traced, in the time of one untraced run.
		seconds /= 2
	}
	e := &env{
		seed:    o.seed,
		seconds: seconds,
		setupArgs: []string{exe, "-probe-setup", "-workload", w.name,
			"-seed", fmt.Sprint(o.seed), "-root", o.root},
	}
	start := time.Now()
	base, err := w.run(e)
	if err != nil {
		return nil, err
	}
	plain, err := endToEnd(base)
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(stderr, "perfbench: %s seed %d untraced in %.1fs: %d set-ups, %d passes, %d operations attempted\n",
		w.name, o.seed, time.Since(start).Seconds(), len(base.setup), base.passes, base.attempted)
	printMetrics(stderr, plain)
	res := &result{Attempted: base.attempted, Failed: base.failed, Metrics: plain}
	problems := base.problems
	if o.trace == 1 {
		traced, layers, err := measureTraced(w, e, o.out, plain, stderr)
		if err != nil {
			return nil, err
		}
		res.Attempted += traced.attempted
		res.Failed += traced.failed
		problems = append(problems, traced.problems...)
		res.Metrics = layers
	}
	for _, p := range problems {
		fmt.Fprintln(stderr, "perfbench: check failed:", p)
	}
	res.Correct = res.Failed == 0 && res.Attempted > 0
	if err := spec.check(w.name, o.trace == 1, res.Metrics); err != nil {
		return nil, err
	}
	return res, nil
}

// measureTraced runs the workload with span recording and CPU
// profiling on, writes the spans and the CPU profile under out, and
// returns the per-layer metrics, including the tracing overhead
// against the untraced end-to-end metrics plain.
func measureTraced(w workload, base *env, out string, plain map[string]metric, stderr io.Writer) (*phase, map[string]metric, error) {
	if err := os.MkdirAll(out, 0o755); err != nil {
		return nil, nil, err
	}
	rec := newRecorder(1 << 16)
	e := *base
	e.rec = rec
	profPath := filepath.Join(out, "cpu-"+w.name+".pprof")
	prof, err := os.Create(profPath)
	if err != nil {
		return nil, nil, err
	}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	if err := pprof.StartCPUProfile(prof); err != nil {
		prof.Close()
		return nil, nil, err
	}
	p, err := w.run(&e)
	pprof.StopCPUProfile()
	runtime.ReadMemStats(&m1)
	if cerr := prof.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return nil, nil, err
	}
	tracedE2E, err := endToEnd(p)
	if err != nil {
		return nil, nil, err
	}

	values := make(map[string]float64)
	for _, d := range layerDefs() {
		values[d.name] = 0
	}
	for name, v := range p.layers {
		if _, ok := values[name]; !ok {
			return nil, nil, fmt.Errorf("workload %s measured undeclared layer metric %q", w.name, name)
		}
		values[name] = v
	}
	if p.passes > 0 {
		values["go_runtime.gc_cycles"] = float64(m1.NumGC-m0.NumGC) / float64(p.passes)
	}
	shares, err := cpuShares(profPath)
	if err != nil {
		return nil, nil, err
	}
	for mod, s := range shares {
		values[mod+".cpu_share"] = s
	}
	for _, m := range []string{"wall_s", "latency_p50_us"} {
		values["trace.overhead."+m] = tracedE2E[m].Value/plain[m].Value - 1
	}
	spans := rec.snapshot()
	values["trace.spans"] = float64(len(spans))

	spanPath := filepath.Join(out, "spans-"+w.name+".tsv")
	if err := writeSpans(spanPath, spans); err != nil {
		return nil, nil, err
	}
	st := selfTimes(spans)
	selfPath := filepath.Join(out, "selftime-"+w.name+".txt")
	f, err := os.Create(selfPath)
	if err != nil {
		return nil, nil, err
	}
	writeSelfTimes(f, st)
	if err := f.Close(); err != nil {
		return nil, nil, err
	}
	fmt.Fprintf(stderr, "perfbench: traced run: %d spans in %s, CPU profile %s\n", len(spans), spanPath, profPath)
	writeSelfTimes(stderr, st)
	fmt.Fprintln(stderr, "perfbench: traced end-to-end (overhead vs untraced):")
	printMetrics(stderr, tracedE2E)

	layers := make(map[string]metric, len(values))
	for _, d := range layerDefs() {
		layers[d.name] = metric{Value: values[d.name], Unit: d.unit}
	}
	return p, layers, nil
}

// End-to-end metric units. Every workload reports every one of them;
// README.md defines the operation and item of each workload.
var endToEndUnits = map[string]string{
	"setup_s":          "s",
	"wall_s":           "s",
	"throughput_per_s": "1/s",
	"latency_p50_us":   "us",
	"latency_p99_us":   "us",
	"peak_rss_mb":      "MB",
}

// endToEnd derives the end-to-end metrics from a measured phase:
//
//   - wall_s, the time of a pass: the sum of each operation's fastest
//     time over the run; throughput_per_s, a pass's items over it;
//   - latency_p50_us and latency_p99_us, percentiles of the operations'
//     fastest times, except that the p99 of a workload whose operations
//     are many and alike (serve-http's requests) is the median over
//     passes of each pass's p99, so that the tail a collection or a slow
//     moment adds to some requests shows;
//   - setup_s, the median set-up;
//   - peak_rss_mb, the median over passes of each pass's peak memory.
//
// The machine the benchmark runs on shares its memory system with other
// work, which slows this process for moments and for phases of many
// seconds; it only ever adds time. An operation lasts microseconds (a
// request) to milliseconds (a transfer), and even in a run that such a
// phase slowed throughout, each one met moments the machine was quiet.
// Over three 30 s bulk-varlink runs in such a phase, the sum of the
// fastest transfer times ranged over 6% of its median, the fastest tenth
// of whole passes over 13% and the median pass over 12%; over four
// serve-http runs, the sum of the fastest request times ranged over 4%
// and the fastest tenth of 128-request passes over 22%.
//
// A pass's peak memory depends on where the collector's cycles fall
// among its allocations, which the pacer times from CPU measurements:
// the process's peak over a whole report-quick run (getrusage) ranged
// from 24 to 31 MiB between runs of identical work, bimodally.
func endToEnd(p *phase) (map[string]metric, error) {
	if len(p.setup) == 0 || p.passes == 0 || len(p.best) == 0 {
		return nil, errors.New("workload measured nothing")
	}
	us := make([]float64, len(p.best))
	for i, d := range p.best {
		if d <= 0 {
			return nil, errors.New("workload left an operation unmeasured")
		}
		us[i] = float64(d.Nanoseconds()) / 1e3
	}
	wall := p.best.sum().Seconds()
	v := map[string]float64{
		"setup_s":          median(seconds(p.setup)),
		"wall_s":           wall,
		"throughput_per_s": p.items / wall,
		"latency_p50_us":   quantile(us, 0.50),
		"latency_p99_us":   quantile(us, 0.99),
		"peak_rss_mb":      median(p.peaks),
	}
	if len(p.tails) > 0 {
		v["latency_p99_us"] = median(p.tails)
	}
	out := make(map[string]metric, len(v))
	for name, x := range v {
		out[name] = metric{Value: x, Unit: endToEndUnits[name]}
	}
	return out, nil
}

func printMetrics(w io.Writer, m map[string]metric) {
	names := make([]string, 0, len(m))
	for n := range m {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(w, "  %-20s %14.6g %s\n", n, m[n].Value, m[n].Unit)
	}
}

// layerDef names one per-layer metric.
type layerDef struct{ name, unit string }

// cpuModules are the groups the traced run's CPU profile is split
// into (see cpuShares).
var cpuModules = []string{
	"simnet", "netem", "phy", "core", "tcp", "mptcp", "replay", "stats", "oracle",
	"experiments", "selector", "serve", "other", "go_runtime", "stdlib", "perfbench",
}

// layerDefs lists every per-layer metric a traced run reports. A
// workload that does not run a layer reports it as 0.
func layerDefs() []layerDef {
	defs := []layerDef{
		{"simnet.events", "count"},
		{"simnet.events_per_pkt.tcp", "events/pkt"},
		{"simnet.events_per_pkt.mptcp", "events/pkt"},
		{"netem.pkts_delivered", "count"},
		{"netem.drops_queue", "count"},
		{"netem.drops_loss", "count"},
		{"core.session_build_ms", "ms"},
		{"tcp.host_ns_per_pkt", "ns/pkt"},
		{"tcp.allocs_per_pkt", "allocs/pkt"},
		{"tcp.wire_bytes_per_payload_byte", "ratio"},
		{"mptcp.host_ns_per_pkt", "ns/pkt"},
		{"mptcp.allocs_per_pkt", "allocs/pkt"},
		{"mptcp.wire_bytes_per_payload_byte", "ratio"},
	}
	for _, name := range engine.Names() {
		defs = append(defs, layerDef{"experiments." + name + ".s", "s"})
	}
	defs = append(defs,
		layerDef{"experiments.alloc_mb", "MB"},
		layerDef{"go_runtime.gc_cycles", "count"},
		layerDef{"selector.decide_ns", "ns"},
		layerDef{"selector.observe_ns", "ns"},
		layerDef{"serve.decide_bytes_ns", "ns"},
		layerDef{"serve.telemetry_bytes_ns", "ns"},
		layerDef{"serve.handler_us_p50", "us"},
		layerDef{"serve.http_share", "share"},
		layerDef{"serve.allocs_per_query", "allocs/req"},
		layerDef{"serve.errors", "count"},
	)
	for _, m := range cpuModules {
		defs = append(defs, layerDef{m + ".cpu_share", "share"})
	}
	return append(defs,
		layerDef{"trace.spans", "count"},
		layerDef{"trace.overhead.wall_s", "share"},
		layerDef{"trace.overhead.latency_p50_us", "share"},
	)
}
