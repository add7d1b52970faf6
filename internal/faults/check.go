package faults

import (
	"fmt"

	"multinet/internal/mptcp"
	"multinet/internal/netem"
	"multinet/internal/tcp"
)

// Violation is one failed invariant.
type Violation struct {
	Rule   string
	Detail string
}

// String renders "rule: detail".
func (v Violation) String() string { return v.Rule + ": " + v.Detail }

// Checker asserts the conservation invariants of a drained simulation:
//
//   - Link conservation: on every link, every admitted packet was
//     either delivered or died in flight —
//     Sent == Delivered + LostInFlight.
//   - Exactly-once delivery: a receiver never advances past what its
//     peer queued, and a gracefully completed transfer delivered every
//     byte.
//   - No stranded mappings: on a live connection, every scheduled but
//     un-acked byte is covered by a mapping record something can still
//     retransmit (Conn.UncoveredBytes == 0).
//   - No silent stalls: at quiescence a connection with undelivered
//     data must have been closed or aborted — a watchdog abort counts;
//     simply hanging does not.
//   - No pooled-object leaks (when Leaks is set): the packet and
//     segment pools balance allocations against recycles.
//
// Call Check only after the simulation has drained (or at a known
// quiescent point); mid-flight the link identity does not hold.
type Checker struct {
	// Leaks additionally asserts the netem packet pool and tcp segment
	// pool balances are zero. Set it only if SetLeakTracking(true) was
	// called on both pools before the simulation was built.
	Leaks bool

	links []checkedLink
	pairs []connPair
}

type checkedLink struct {
	name string
	link netem.Link
}

type connPair struct {
	label string
	a, b  *mptcp.Conn
}

// AddLink registers one link for conservation checking.
func (c *Checker) AddLink(name string, l netem.Link) {
	c.links = append(c.links, checkedLink{name: name, link: l})
}

// AddHost registers both directions of every interface of h.
func (c *Checker) AddHost(h *netem.Host) {
	for _, ifc := range h.Ifaces() {
		c.AddLink(ifc.Name+"/up", ifc.UpLink())
		c.AddLink(ifc.Name+"/down", ifc.DownLink())
	}
}

// AddPair registers the two endpoints of one MPTCP connection.
func (c *Checker) AddPair(label string, a, b *mptcp.Conn) {
	c.pairs = append(c.pairs, connPair{label: label, a: a, b: b})
}

// Check runs every registered invariant and returns the violations
// (empty means all invariants hold).
func (c *Checker) Check() []Violation {
	var out []Violation
	for _, cl := range c.links {
		st := cl.link.Stats()
		if st.Sent != st.Delivered+st.LostInFlight {
			out = append(out, Violation{
				Rule: "link-conservation",
				Detail: fmt.Sprintf("%s: sent=%d delivered=%d lost-in-flight=%d",
					cl.name, st.Sent, st.Delivered, st.LostInFlight),
			})
		}
	}
	for _, p := range c.pairs {
		out = c.checkDir(out, p.label+" a->b", p.a, p.b)
		out = c.checkDir(out, p.label+" b->a", p.b, p.a)
	}
	if c.Leaks {
		if n := netem.LivePackets(); n != 0 {
			out = append(out, Violation{
				Rule:   "packet-leak",
				Detail: fmt.Sprintf("%d pooled packets unaccounted for", n),
			})
		}
		if n := tcp.LiveSegments(); n != 0 {
			out = append(out, Violation{
				Rule:   "segment-leak",
				Detail: fmt.Sprintf("%d pooled segments unaccounted for", n),
			})
		}
	}
	return out
}

// checkDir asserts the sender→receiver invariants for one direction of
// one connection pair.
func (c *Checker) checkDir(out []Violation, label string, snd, rcv *mptcp.Conn) []Violation {
	if rcv.RcvNxt() > snd.SendTotal() {
		out = append(out, Violation{
			Rule: "over-delivery",
			Detail: fmt.Sprintf("%s: receiver advanced to %d of %d queued bytes",
				label, rcv.RcvNxt(), snd.SendTotal()),
		})
	}
	if !snd.Closed() {
		if u := snd.UncoveredBytes(); u != 0 {
			out = append(out, Violation{
				Rule: "stranded-mapping",
				Detail: fmt.Sprintf("%s: %d scheduled bytes covered by no live mapping",
					label, u),
			})
		}
		if snd.DataAcked() < snd.SendTotal() {
			out = append(out, Violation{
				Rule: "silent-stall",
				Detail: fmt.Sprintf("%s: %d of %d bytes undelivered on an open connection at quiescence",
					label, snd.SendTotal()-snd.DataAcked(), snd.SendTotal()),
			})
		}
	}
	if snd.Closed() && !snd.Aborted() && rcv.Closed() && !rcv.Aborted() {
		if rcv.RecvTotal() != int64(snd.SendTotal()) {
			out = append(out, Violation{
				Rule: "incomplete-delivery",
				Detail: fmt.Sprintf("%s: delivered %d of %d bytes on a gracefully closed connection",
					label, rcv.RecvTotal(), snd.SendTotal()),
			})
		}
	}
	return out
}
