package netem

import (
	"math/rand"
	"time"

	"multinet/internal/simnet"
)

// LinkConfig holds the parameters shared by both link service models.
type LinkConfig struct {
	// PropDelay is the one-way propagation delay added after a packet
	// finishes transmission.
	PropDelay time.Duration
	// QueueLimit is the droptail queue capacity in packets (the packet
	// in service counts). Zero means DefaultQueueLimit.
	QueueLimit int
	// LossProb is an i.i.d. per-packet drop probability in [0,1).
	LossProb float64
	// RNG drives random loss; required only when LossProb > 0.
	RNG *rand.Rand
}

// DefaultQueueLimit is the droptail capacity used when LinkConfig leaves
// QueueLimit zero. 100 packets ≈ 150 KB, a typical CPE buffer.
const DefaultQueueLimit = 100

func (c *LinkConfig) queueLimit() int {
	if c.QueueLimit <= 0 {
		return DefaultQueueLimit
	}
	return c.QueueLimit
}

// pktRing is a FIFO packet queue that reuses its backing array: pops
// advance a head index instead of re-slicing, so a link that fills and
// drains its queue forever stops allocating once the array has grown to
// the droptail limit.
type pktRing struct {
	buf  []*Packet //multinet:owns — queued packets are owned by the link until delivered or dropped
	head int
}

func (q *pktRing) len() int { return len(q.buf) - q.head }

// peek returns the head packet; the queue must be non-empty.
func (q *pktRing) peek() *Packet { return q.buf[q.head] }

func (q *pktRing) push(p *Packet) {
	if q.head > 0 && len(q.buf) == cap(q.buf) {
		// Reclaim the popped prefix instead of growing.
		n := copy(q.buf, q.buf[q.head:])
		for i := n; i < len(q.buf); i++ {
			q.buf[i] = nil
		}
		q.buf = q.buf[:n]
		q.head = 0
	}
	q.buf = append(q.buf, p)
}

// pop removes and returns the head packet; the queue must be non-empty.
func (q *pktRing) pop() *Packet {
	p := q.buf[q.head]
	q.buf[q.head] = nil
	q.head++
	if q.head == len(q.buf) {
		q.buf = q.buf[:0]
		q.head = 0
	}
	return p
}

// drain empties the queue, passing each packet to sink.
func (q *pktRing) drain(sink func(*Packet)) {
	for q.len() > 0 {
		sink(q.pop())
	}
}

// baseLink implements the queueing, loss, and state logic shared by
// FixedLink and VarLink.
type baseLink struct {
	sim       *simnet.Sim
	cfg       LinkConfig
	recv      func(*Packet)
	queue     pktRing
	down      bool
	blackhole bool
	stats     LinkStats
}

func (b *baseLink) SetReceiver(fn func(*Packet)) { b.recv = fn }
func (b *baseLink) Stats() LinkStats             { return b.stats }
func (b *baseLink) QueueLen() int                { return b.queue.len() }

// SetLossProb implements Link: a fault-injected loss burst (or its
// restore). rng is only installed when the link was built without one.
func (b *baseLink) SetLossProb(p float64, rng *rand.Rand) {
	b.cfg.LossProb = p
	if b.cfg.RNG == nil && rng != nil {
		b.cfg.RNG = rng
	}
}

// LossProb returns the current i.i.d. drop probability — the fault
// layer reads it before a loss burst so the restore puts back the
// link's baseline, not zero.
func (b *baseLink) LossProb() float64 { return b.cfg.LossProb }

// admit runs the shared drop logic; it returns true when the packet was
// queued and the caller should (re)start service. Dropped packets are
// recycled here — the caller must not touch p after a false return.
//
//multinet:hotpath
func (b *baseLink) admit(p *Packet) bool {
	if b.down || b.blackhole {
		b.stats.DroppedDown++
		dropPacket(p)
		return false
	}
	if b.cfg.LossProb > 0 && b.cfg.RNG != nil && b.cfg.RNG.Float64() < b.cfg.LossProb {
		b.stats.DroppedLoss++
		dropPacket(p)
		return false
	}
	if b.queue.len() >= b.cfg.queueLimit() {
		b.stats.DroppedQueue++
		dropPacket(p)
		return false
	}
	p.SendTime = b.sim.Now()
	b.queue.push(p)
	b.stats.Sent++
	b.stats.BytesIn += int64(p.Size)
	return true
}

// deliver hands a packet to the receiver after propagation delay, unless
// the link went down while the packet was in flight.
//
//multinet:hotpath
func (b *baseLink) deliver(p *Packet) {
	b.stats.Delivered++
	b.stats.BytesOut += int64(p.Size)
	p.dst = b
	b.sim.AfterArg(b.cfg.PropDelay, finishDeliver, p)
}

// finishDeliver runs when a packet's propagation delay elapses.
func finishDeliver(a any) {
	p := a.(*Packet)
	b := p.dst
	p.dst = nil
	if b.down || b.blackhole {
		// The packet was on the wire when the link died: it is lost.
		b.stats.Delivered--
		b.stats.BytesOut -= int64(p.Size)
		b.stats.DroppedDown++
		b.stats.LostInFlight++
		dropPacket(p)
		return
	}
	if b.recv == nil {
		dropPacket(p)
		return
	}
	b.recv(p)
}

// purge empties the queue, counting the discards as down-drops.
func (b *baseLink) purge() {
	b.stats.DroppedDown += b.queue.len()
	b.stats.LostInFlight += b.queue.len()
	b.queue.drain(dropPacket)
}

// FixedLink is a constant-bit-rate link.
//
// It runs on an analytic event schedule: because service is FIFO at a
// known rate, a packet's serialisation-done and arrival instants are
// both computable the moment it is admitted —
//
//	start_i = max(done_{i-1}, admit_i)   (the virtual serialiser clock)
//	done_i  = start_i + size_i / rate
//	arrive_i = done_i + PropDelay
//
// — so each packet schedules exactly one kernel event (its arrival)
// instead of the serialisation-done + propagation-arrival pair the
// explicit service loop needed. The queue is virtual: admitted packets
// stay on the service ring until their done instant passes (lazily
// evicted), which keeps droptail occupancy — "waiting or serialising
// packets" — identical to the explicit model at every admission check.
type FixedLink struct {
	baseLink
	rateBps float64 // bits per second
	// busyUntil is the virtual serialiser clock: the done instant of
	// the last admitted packet.
	busyUntil time.Duration
}

// NewFixedLink creates a link that transmits at rateMbps megabits per
// second with the given config.
func NewFixedLink(sim *simnet.Sim, rateMbps float64, cfg LinkConfig) *FixedLink {
	if rateMbps <= 0 {
		panic("netem: FixedLink rate must be positive")
	}
	return &FixedLink{
		baseLink: baseLink{sim: sim, cfg: cfg},
		rateBps:  rateMbps * 1e6,
	}
}

// RateMbps returns the configured rate in Mbit/s.
func (l *FixedLink) RateMbps() float64 { return l.rateBps / 1e6 }

// txTime returns the serialisation time of size bytes at the current
// rate.
func (l *FixedLink) txTime(size int) time.Duration {
	return time.Duration(float64(size*8) / l.rateBps * float64(time.Second))
}

// SetRateMbps changes the link rate; it applies to packets whose
// transmission starts after the change. Packets already admitted but
// not yet started have precomputed schedules under the old rate, so
// their delivery events are recomputed here — the rare O(queue) cost
// that keeps the per-packet path O(1).
func (l *FixedLink) SetRateMbps(mbps float64) {
	if mbps <= 0 {
		panic("netem: FixedLink rate must be positive")
	}
	l.rateBps = mbps * 1e6
	now := l.sim.Now()
	l.evict()
	q := &l.queue
	base := now
	for i := q.head; i < len(q.buf); i++ {
		p := q.buf[i]
		if p.startAt <= now {
			// In service: its transmission began under the old rate and
			// keeps it (done/arrival already scheduled correctly).
			base = p.doneAt
			continue
		}
		p.arrive.Stop()
		start := base
		if p.SendTime > start {
			start = p.SendTime
		}
		p.startAt = start
		p.doneAt = start + l.txTime(p.Size)
		p.arrive = l.sim.ScheduleArg(p.doneAt+l.cfg.PropDelay, fixedLinkArrive, p)
		base = p.doneAt
	}
	if q.len() > 0 {
		l.busyUntil = base
	}
}

// evict pops service-ring packets whose serialisation has completed:
// they no longer occupy the droptail queue. Ownership of an evicted
// packet rests solely with its pending arrival event.
func (l *FixedLink) evict() {
	now := l.sim.Now()
	for l.queue.len() > 0 && l.queue.peek().doneAt <= now {
		l.queue.pop()
	}
}

// Send implements Link.
//
//multinet:hotpath
func (l *FixedLink) Send(p *Packet) {
	l.evict() // occupancy must be current before admit's droptail check
	if !l.admit(p) {
		return
	}
	start := l.busyUntil
	if now := l.sim.Now(); start < now {
		start = now
	}
	p.startAt = start
	p.doneAt = start + l.txTime(p.Size)
	l.busyUntil = p.doneAt
	p.fl = l
	p.arrive = l.sim.ScheduleArg(p.doneAt+l.cfg.PropDelay, fixedLinkArrive, p)
}

// fixedLinkArrive fires when a packet reaches the far end: the single
// per-packet event of the analytic schedule.
//
//multinet:hotpath
func fixedLinkArrive(a any) {
	p := a.(*Packet)
	l := p.fl
	p.fl = nil
	p.arrive = simnet.Timer{}
	// Arrivals run in serialisation order, so p itself is always among
	// the evicted: after this the ring holds no reference to it and
	// ownership can pass to the receiver (or the drop sink).
	l.evict()
	if l.down || l.blackhole {
		// The packet was on the wire when the link died: it is lost.
		l.stats.DroppedDown++
		l.stats.LostInFlight++
		dropPacket(p)
		return
	}
	l.stats.Delivered++
	l.stats.BytesOut += int64(p.Size)
	if l.recv == nil {
		dropPacket(p)
		return
	}
	l.recv(p)
}

// stopService drops every admitted packet that has not finished
// serialising (the explicit model's queue purge): their arrival events
// are cancelled and the packets die as down-drops. Packets already
// serialised keep their arrival events and are lost there instead, as
// in-flight casualties.
func (l *FixedLink) stopService() {
	l.evict()
	for l.queue.len() > 0 {
		p := l.queue.pop()
		p.arrive.Stop()
		p.fl = nil
		l.stats.DroppedDown++
		l.stats.LostInFlight++
		dropPacket(p)
	}
}

// QueueLen implements Link: packets waiting or serialising right now.
func (l *FixedLink) QueueLen() int {
	l.evict()
	return l.queue.len()
}

// SetDown implements Link. Bringing the link down purges the queue.
func (l *FixedLink) SetDown(down bool) {
	was := l.down
	l.down = down
	if down {
		l.stopService()
	} else if was && !down {
		l.busyUntil = l.sim.Now()
	}
}

// SetBlackhole implements Link.
func (l *FixedLink) SetBlackhole(bh bool) {
	was := l.blackhole
	l.blackhole = bh
	if bh {
		l.stopService()
	} else if was && !bh {
		l.busyUntil = l.sim.Now()
	}
}

// OpportunitySource produces the packet-delivery schedule for a VarLink.
// Next returns the first delivery-opportunity instant strictly after
// `after`. Sources must be monotone: Next(t) > t.
type OpportunitySource interface {
	Next(after time.Duration) time.Duration
}

// VarLink delivers packets at discrete delivery opportunities, the model
// Mahimahi uses for cellular and WiFi traces. Each opportunity carries
// up to MTU bytes of the head-of-line packet; larger packets consume
// several opportunities.
type VarLink struct {
	baseLink
	src       OpportunitySource
	wake      simnet.Timer
	headBytes int // bytes of the head packet already transmitted
}

// NewVarLink creates a trace-driven link from an opportunity source.
func NewVarLink(sim *simnet.Sim, src OpportunitySource, cfg LinkConfig) *VarLink {
	if src == nil {
		panic("netem: VarLink needs an OpportunitySource")
	}
	return &VarLink{
		baseLink: baseLink{sim: sim, cfg: cfg},
		src:      src,
	}
}

// Send implements Link.
func (l *VarLink) Send(p *Packet) {
	if !l.admit(p) {
		return
	}
	l.arm()
}

func (l *VarLink) arm() {
	if l.wake.Active() {
		return
	}
	if l.queue.len() == 0 || l.down || l.blackhole {
		return
	}
	next := l.src.Next(l.sim.Now())
	l.wake = l.sim.ScheduleArg(next, varLinkOpportunity, l)
}

// varLinkOpportunity consumes one delivery slot.
func varLinkOpportunity(a any) {
	l := a.(*VarLink)
	if l.queue.len() == 0 || l.down || l.blackhole {
		return
	}
	p := l.queue.peek()
	l.headBytes += MTU
	if l.headBytes >= p.Size {
		l.queue.pop()
		l.headBytes = 0
		l.deliver(p)
	}
	l.arm()
}

// SetDown implements Link.
func (l *VarLink) SetDown(down bool) {
	was := l.down
	l.down = down
	if down {
		l.purge()
		l.headBytes = 0
		l.wake.Stop()
	} else if was && !down {
		l.arm()
	}
}

// SetBlackhole implements Link.
func (l *VarLink) SetBlackhole(bh bool) {
	was := l.blackhole
	l.blackhole = bh
	if bh {
		l.purge()
		l.headBytes = 0
		l.wake.Stop()
	} else if was && !bh {
		l.arm()
	}
}

// PeriodicOpportunities is an OpportunitySource delivering MTU-sized
// slots at a constant rate, i.e. a CBR link expressed in the
// opportunity model.
type PeriodicOpportunities struct {
	Interval time.Duration
}

// NewPeriodicOpportunities returns a source whose slot rate carries
// rateMbps of MTU-sized packets.
func NewPeriodicOpportunities(rateMbps float64) *PeriodicOpportunities {
	if rateMbps <= 0 {
		panic("netem: rate must be positive")
	}
	perSec := rateMbps * 1e6 / (8 * MTU)
	return &PeriodicOpportunities{Interval: time.Duration(float64(time.Second) / perSec)}
}

// Next implements OpportunitySource.
func (p *PeriodicOpportunities) Next(after time.Duration) time.Duration {
	if p.Interval <= 0 {
		panic("netem: PeriodicOpportunities needs positive interval")
	}
	n := after/p.Interval + 1
	return n * p.Interval
}
