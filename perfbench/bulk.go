package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"multinet/internal/core"
	"multinet/internal/experiments/engine"
	"multinet/internal/faults"
	"multinet/internal/mptcp"
	"multinet/internal/netem"
	"multinet/internal/phy"
	"multinet/internal/tcp"
)

// bulkConfigs are the four transports bulk-varlink runs at every
// location.
var bulkConfigs = []core.Config{
	{Transport: core.TCP, Iface: "wifi"},
	{Transport: core.TCP, Iface: "lte"},
	{Transport: core.MPTCP, Primary: "wifi", CC: mptcp.Decoupled},
	{Transport: core.MPTCP, Primary: "lte", CC: mptcp.Coupled},
}

// bulkSize is the size of a bulk-varlink transfer at a location: 2 to
// 4 MiB in 0.5 MiB steps, 3 MiB on average. Were every transfer one
// size, the TCP transfers would all cost less than the MPTCP ones and
// the median transfer would sit in the gap between the two groups,
// jumping from one to the other between passes.
func bulkSize(loc int) int { return 2<<20 + loc%5*(512<<10) }

// transfer is one bulk-varlink input: a location, a config, a
// direction and a size, and the seed of its session.
type transfer struct {
	Loc, Cfg int
	Dir      core.Direction
	Size     int
	Seed     int64
}

// bulkInputs generates bulk-varlink's transfers from the seed alone:
// a download and an upload of bulkSize bytes for every (location,
// config) pair, 160 in all. The seed decides the order they run in and
// each session's seed, hence every loss and rate-process draw. The mix
// of transfers is the same for every seed, so each seed does the same
// amount of work of the same shape, and the per-transfer latency tail
// (the few heaviest transfers) does not depend on which transfer a
// seed happened to make large.
func bulkInputs(seed int64) []transfer {
	rng := rand.New(rand.NewSource(seed))
	var out []transfer
	for loc := range phy.Locations {
		for cfg := range bulkConfigs {
			for _, dir := range []core.Direction{core.Download, core.Upload} {
				out = append(out, transfer{Loc: loc, Cfg: cfg, Dir: dir, Size: bulkSize(loc),
					Seed: engine.SeedFor(seed, loc, cfg, int(dir))})
			}
		}
	}
	rng.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

// bulkOutcome is what one transfer must reproduce exactly on every
// pass: its simulated completion time and the simulator's counters.
type bulkOutcome struct {
	FCT       time.Duration
	Events    uint64
	Delivered int
}

// bulkCounts accumulates link and kernel counters per transport
// (index 0 TCP, 1 MPTCP).
type bulkCounts struct {
	events     [2]uint64
	delivered  [2]int
	bytesIn    [2]int64
	payload    [2]int64
	dropsQueue int
	dropsLoss  int
	hostNs     [2]int64
	allocs     [2]uint64
}

// runBulk runs every transfer of a pass on this goroutine: it builds
// the transfer's core.Session (the set-up), runs the transfer (the
// measured part), then checks and counts it outside the timed region and
// drops the session, so one session is alive at a time and the
// benchmark's own heap does not hold 160 of them. Passes repeat until
// e.seconds have elapsed, at least two. An operation is one
// Session.Run; the run keeps each transfer's fastest Session.Run and
// NewSession times (see endToEnd), and its set-up time is the sum of
// the fastest NewSession times. The throughput items are the packets
// delivered on all links in a pass, the same in every pass.
func runBulk(e *env) (*phase, error) {
	ins := bulkInputs(e.seed)
	traced := e.rec != nil
	if traced {
		netem.SetLeakTracking(true)
		tcp.SetLeakTracking(true)
		defer netem.SetLeakTracking(false)
		defer tcp.SetLeakTracking(false)
	}
	p := &phase{layers: make(map[string]float64), best: make(fastest, len(ins))}
	setup := make(fastest, len(ins))
	first := make([]bulkOutcome, len(ins))
	var pass0, all bulkCounts
	var builds []float64
	var m0, m1 runtime.MemStats

	start := time.Now()
	for pass := 0; pass < 2 || time.Since(start) < e.seconds; pass++ {
		ps := e.rec.begin("bulk.pass", 0, pass)
		var c bulkCounts
		for i, tr := range ins {
			id := e.rec.begin("core.NewSession", ps, i)
			t := time.Now()
			s := core.NewSession(tr.Seed, phy.Locations[tr.Loc].Condition())
			d := time.Since(t)
			e.rec.end(id)
			setup.add(i, d)
			if traced {
				builds = append(builds, ms(d))
				runtime.ReadMemStats(&m0)
			}

			id = e.rec.begin("core.Session.Run", ps, i)
			t = time.Now()
			r := s.Run(bulkConfigs[tr.Cfg], tr.Dir, tr.Size)
			d = time.Since(t)
			e.rec.end(id)
			var allocs uint64
			if traced {
				runtime.ReadMemStats(&m1)
				allocs = m1.Mallocs - m0.Mallocs
			}
			p.best.add(i, d)
			p.mem.sample()

			ck := e.rec.begin("bulk.check", ps, i)
			p.attempted++
			if o, ok := checkTransfer(p, &c, tr, s, r, d, allocs); ok {
				if pass == 0 {
					first[i] = o
				} else if o != first[i] {
					p.fail("%s: pass %d outcome %+v differs from pass 0 %+v", tr, pass, o, first[i])
				}
			}
			e.rec.end(ck)
		}
		if traced {
			if n := netem.LivePackets(); n != 0 {
				p.fail("pass %d: %d pooled packets leaked", pass, n)
			}
			if n := tcp.LiveSegments(); n != 0 {
				p.fail("pass %d: %d pooled segments leaked", pass, n)
			}
		}
		e.rec.end(ps)
		if pass == 0 {
			pass0 = c
		}
		all.add(c)
		p.endPass(float64(c.delivered[0] + c.delivered[1]))
	}
	p.setup = []time.Duration{setup.sum()}

	l := p.layers
	l["simnet.events"] = float64(pass0.events[0] + pass0.events[1])
	l["simnet.events_per_pkt.tcp"] = ratio(float64(pass0.events[0]), float64(pass0.delivered[0]))
	l["simnet.events_per_pkt.mptcp"] = ratio(float64(pass0.events[1]), float64(pass0.delivered[1]))
	l["netem.pkts_delivered"] = float64(pass0.delivered[0] + pass0.delivered[1])
	l["netem.drops_queue"] = float64(pass0.dropsQueue)
	l["netem.drops_loss"] = float64(pass0.dropsLoss)
	l["tcp.wire_bytes_per_payload_byte"] = ratio(float64(pass0.bytesIn[0]), float64(pass0.payload[0]))
	l["mptcp.wire_bytes_per_payload_byte"] = ratio(float64(pass0.bytesIn[1]), float64(pass0.payload[1]))
	if traced {
		l["core.session_build_ms"] = median(builds)
		l["tcp.host_ns_per_pkt"] = ratio(float64(all.hostNs[0]), float64(all.delivered[0]))
		l["mptcp.host_ns_per_pkt"] = ratio(float64(all.hostNs[1]), float64(all.delivered[1]))
		l["tcp.allocs_per_pkt"] = ratio(float64(all.allocs[0]), float64(all.delivered[0]))
		l["mptcp.allocs_per_pkt"] = ratio(float64(all.allocs[1]), float64(all.delivered[1]))
	}
	return p, nil
}

// checkTransfer checks one finished transfer and adds its counters to c.
// It returns the outcome every later pass must reproduce; ok is false
// when a check failed (recorded in p).
func checkTransfer(p *phase, c *bulkCounts, tr transfer, s *core.Session, r core.Result, host time.Duration, allocs uint64) (o bulkOutcome, ok bool) {
	if !r.Completed {
		p.fail("%s did not complete", tr)
		return o, false
	}
	// Session.Run drains teardown for only 2 s of virtual time; a
	// packet waiting out a VarLink outage can still be queued then. The
	// invariants and pool counts hold at quiescence, so run the
	// session's simulator until its wheel is empty.
	s.Sim.Run()
	var chk faults.Checker
	chk.AddHost(s.Host)
	if v := chk.Check(); len(v) > 0 {
		p.fail("%s: %v", tr, v)
		return o, false
	}
	k := 0
	if bulkConfigs[tr.Cfg].Transport == core.MPTCP {
		k = 1
	}
	delivered := 0
	for _, ifc := range s.Host.Ifaces() {
		for _, l := range []netem.Link{ifc.UpLink(), ifc.DownLink()} {
			st := l.Stats()
			delivered += st.Delivered
			c.bytesIn[k] += st.BytesIn
			c.dropsQueue += st.DroppedQueue
			c.dropsLoss += st.DroppedLoss
		}
	}
	c.delivered[k] += delivered
	c.events[k] += s.Sim.Processed()
	c.payload[k] += int64(tr.Size)
	c.hostNs[k] += host.Nanoseconds()
	c.allocs[k] += allocs
	return bulkOutcome{FCT: r.FCT, Events: s.Sim.Processed(), Delivered: delivered}, true
}

func (c *bulkCounts) add(o bulkCounts) {
	for k := 0; k < 2; k++ {
		c.events[k] += o.events[k]
		c.delivered[k] += o.delivered[k]
		c.bytesIn[k] += o.bytesIn[k]
		c.payload[k] += o.payload[k]
		c.hostNs[k] += o.hostNs[k]
		c.allocs[k] += o.allocs[k]
	}
	c.dropsQueue += o.dropsQueue
	c.dropsLoss += o.dropsLoss
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func (tr transfer) String() string {
	dir := "download"
	if tr.Dir == core.Upload {
		dir = "upload"
	}
	return fmt.Sprintf("%s %s of %d B at loc%02d", bulkConfigs[tr.Cfg].Name(), dir, tr.Size, phy.Locations[tr.Loc].ID)
}
