package tcp

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"multinet/internal/netem"
	"multinet/internal/simnet"
)

// refLink is the explicit service-loop model of a constant-bit-rate
// link that FixedLink's analytic schedule replaces: a droptail FIFO
// whose head packet serialises (one event), then propagates (a second
// event). It exists only as the reference side of the differential
// tests below.
type refLink struct {
	sim     *simnet.Sim
	rateBps float64
	cfg     netem.LinkConfig
	recv    func(*netem.Packet)
	queue   []*netem.Packet
	busy    bool
	stats   netem.LinkStats
}

func newRefLink(sim *simnet.Sim, mbps float64, cfg netem.LinkConfig) *refLink {
	return &refLink{sim: sim, rateBps: mbps * 1e6, cfg: cfg}
}

func refDrop(p *netem.Packet) {
	if r, ok := p.Payload.(netem.Recyclable); ok {
		r.Recycle()
	}
	netem.ReleasePacket(p)
}

func (l *refLink) Send(p *netem.Packet) {
	if l.cfg.LossProb > 0 && l.cfg.RNG.Float64() < l.cfg.LossProb {
		l.stats.DroppedLoss++
		refDrop(p)
		return
	}
	limit := l.cfg.QueueLimit
	if limit <= 0 {
		limit = netem.DefaultQueueLimit
	}
	if len(l.queue) >= limit {
		l.stats.DroppedQueue++
		refDrop(p)
		return
	}
	p.SendTime = l.sim.Now()
	l.queue = append(l.queue, p)
	l.stats.Sent++
	l.stats.BytesIn += int64(p.Size)
	if !l.busy {
		l.serve()
	}
}

// serve starts serialising the head-of-line packet.
func (l *refLink) serve() {
	p := l.queue[0]
	l.busy = true
	tx := time.Duration(float64(p.Size*8) / l.rateBps * float64(time.Second))
	l.sim.After(tx, func() {
		l.queue = l.queue[1:]
		l.busy = false
		l.stats.Delivered++
		l.stats.BytesOut += int64(p.Size)
		l.sim.After(l.cfg.PropDelay, func() { l.recv(p) })
		if len(l.queue) > 0 {
			l.serve()
		}
	})
}

func (l *refLink) SetReceiver(fn func(*netem.Packet))    { l.recv = fn }
func (l *refLink) SetDown(bool)                          { panic("refLink: SetDown unsupported") }
func (l *refLink) SetBlackhole(bool)                     { panic("refLink: SetBlackhole unsupported") }
func (l *refLink) SetLossProb(p float64, rng *rand.Rand) { panic("refLink: SetLossProb unsupported") }
func (l *refLink) Stats() netem.LinkStats                { return l.stats }
func (l *refLink) QueueLen() int                         { return len(l.queue) }

// transferResult captures everything a differential comparison needs.
type transferResult struct {
	fct        time.Duration
	drops      int
	sndSegs    int // data-sender segments transmitted
	rcvSegs    int // data-receiver segments transmitted (ACKs)
	retransmit int
}

// runTransfer simulates one transfer of size bytes and returns its
// observables. upload=false is server→client (the common case);
// upload=true reverses the sender. ref swaps both FixedLinks for the
// explicit reference model.
func runTransfer(t testing.TB, seed int64, mbps float64, owd time.Duration,
	loss float64, queue, size int, upload, ref bool) transferResult {
	t.Helper()
	sim := simnet.New(seed)
	link := func(stream string) netem.Link {
		cfg := netem.LinkConfig{
			PropDelay:  owd,
			LossProb:   loss,
			RNG:        sim.RNG(stream),
			QueueLimit: queue,
		}
		if ref {
			return newRefLink(sim, mbps, cfg)
		}
		return netem.NewFixedLink(sim, mbps, cfg)
	}
	up, down := link("loss/up"), link("loss/down")
	iface := netem.NewIface(sim, "wifi", up, down)
	client := NewStack(sim, ClientSide)
	server := NewStack(sim, ServerSide)
	client.Bind(iface)
	server.Bind(iface)

	var done time.Duration
	finish := func(c *Conn, total int64) {
		if total >= int64(size) && done == 0 {
			done = sim.Now()
		}
	}
	var sender, receiver *Conn
	if upload {
		server.Accept = func(c *Conn) {
			receiver = c
			c.cb.OnData = finish
		}
		sender = client.Dial(iface, "f", Config{Callbacks: Callbacks{
			OnEstablished: func(c *Conn) {
				c.Send(size)
				c.Close()
			},
		}})
	} else {
		server.Accept = func(c *Conn) {
			sender = c
			c.cb.OnEstablished = func(c *Conn) {
				c.Send(size)
				c.Close()
			}
		}
		receiver = client.Dial(iface, "f", Config{Callbacks: Callbacks{
			OnData: finish,
		}})
	}
	sim.Run()
	if done == 0 {
		t.Fatalf("transfer (mbps=%v owd=%v loss=%v queue=%d size=%d ref=%v) did not complete",
			mbps, owd, loss, queue, size, ref)
	}
	us, ds := up.Stats(), down.Stats()
	return transferResult{
		fct:        done,
		drops:      us.DroppedQueue + us.DroppedLoss + ds.DroppedQueue + ds.DroppedLoss,
		sndSegs:    sender.SegmentsSent(),
		rcvSegs:    receiver.SegmentsSent(),
		retransmit: sender.Retransmits,
	}
}

// TestFluidDifferentialExact drives FixedLink's analytic schedule (one
// arrival event per packet, lazily evicted virtual queue) against the
// explicit serialise-then-propagate reference over a grid of clean
// (drop-free) configurations: flow completion time, segment counts and
// retransmits must match bit for bit.
func TestFluidDifferentialExact(t *testing.T) {
	owds := []time.Duration{2 * time.Millisecond, 15 * time.Millisecond}
	for _, mbps := range []float64{5, 20, 50} {
		for _, owd := range owds {
			for _, size := range []int{30_000, 300_000, 2_000_000} {
				for _, upload := range []bool{false, true} {
					name := fmt.Sprintf("%gmbps/%v/%dB/up=%v", mbps, owd, size, upload)
					t.Run(name, func(t *testing.T) {
						fix := runTransfer(t, 7, mbps, owd, 0, 500, size, upload, false)
						ref := runTransfer(t, 7, mbps, owd, 0, 500, size, upload, true)
						if fix.drops != 0 || ref.drops != 0 {
							t.Fatalf("expected drop-free grid point, got fixed=%d ref=%d drops",
								fix.drops, ref.drops)
						}
						if fix.fct != ref.fct {
							t.Errorf("FCT diverged: reference %v, fixed %v (Δ %v)",
								ref.fct, fix.fct, fix.fct-ref.fct)
						}
						if fix.sndSegs != ref.sndSegs || fix.rcvSegs != ref.rcvSegs {
							t.Errorf("segment counts diverged: reference snd=%d rcv=%d, fixed snd=%d rcv=%d",
								ref.sndSegs, ref.rcvSegs, fix.sndSegs, fix.rcvSegs)
						}
						// Spurious tail-loss probes (stale short-PTO
						// schedules) must be reproduced exactly too.
						if fix.retransmit != ref.retransmit {
							t.Errorf("retransmits diverged: reference %d, fixed %d",
								ref.retransmit, fix.retransmit)
						}
					})
				}
			}
		}
	}
}

// TestFluidDifferentialLossy runs the same differential where packets
// are lost. Random loss draws the link RNG once per admission in the
// same order in both models, so runs must stay identical. Droptail
// overflow depends on queue occupancy at each admission; the models may
// disagree on a packet whose serialisation ends at the very instant of
// an admission (the virtual queue has already evicted it, the explicit
// loop may not have run its done event yet), so exactness is not
// promised there, but completion time must stay within tolerance.
func TestFluidDifferentialLossy(t *testing.T) {
	t.Run("random-loss-identical", func(t *testing.T) {
		for seed := int64(1); seed <= 4; seed++ {
			fix := runTransfer(t, seed, 20, 15*time.Millisecond, 0.005, 200, 500_000, false, false)
			ref := runTransfer(t, seed, 20, 15*time.Millisecond, 0.005, 200, 500_000, false, true)
			if fix.drops == 0 {
				t.Fatalf("seed %d: no random loss on a lossy link", seed)
			}
			if fix.fct != ref.fct || fix.sndSegs != ref.sndSegs || fix.retransmit != ref.retransmit {
				t.Errorf("seed %d: lossy run diverged: reference (fct=%v segs=%d rtx=%d) fixed (fct=%v segs=%d rtx=%d)",
					seed, ref.fct, ref.sndSegs, ref.retransmit, fix.fct, fix.sndSegs, fix.retransmit)
			}
		}
	})
	t.Run("queue-overflow-tolerance", func(t *testing.T) {
		cases := []struct {
			mbps  float64
			owd   time.Duration
			queue int
			size  int
		}{
			{50, 30 * time.Millisecond, 50, 4_000_000},
			{20, 40 * time.Millisecond, 30, 2_000_000},
			{100, 20 * time.Millisecond, 64, 4_000_000},
		}
		for _, tc := range cases {
			name := fmt.Sprintf("%gmbps/%v/q%d", tc.mbps, tc.owd, tc.queue)
			t.Run(name, func(t *testing.T) {
				fix := runTransfer(t, 11, tc.mbps, tc.owd, 0, tc.queue, tc.size, false, false)
				ref := runTransfer(t, 11, tc.mbps, tc.owd, 0, tc.queue, tc.size, false, true)
				if fix.drops == 0 || ref.drops == 0 {
					t.Fatalf("expected droptail overflow, got fixed=%d ref=%d drops", fix.drops, ref.drops)
				}
				ratio := float64(fix.fct) / float64(ref.fct)
				if ratio < 0.65 || ratio > 1.35 {
					t.Errorf("overflow FCT out of tolerance: reference %v, fixed %v (ratio %.3f)",
						ref.fct, fix.fct, ratio)
				}
			})
		}
	})
}
