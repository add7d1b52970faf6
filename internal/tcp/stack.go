package tcp

import (
	"multinet/internal/netem"
	"multinet/internal/simnet"
)

// Side identifies which end of the client↔server paths a Stack sits on.
type Side int

// Stack sides.
const (
	ClientSide Side = iota
	ServerSide
)

// Stack demultiplexes segments arriving on one or more interfaces to
// connections by flow identifier, and creates passive connections on
// incoming SYNs (the listener role).
type Stack struct {
	sim   *simnet.Sim
	side  Side
	conns map[string]*Conn
	// Accept configures a passively-opened connection before its SYN is
	// processed (install callbacks, queue response data, ...). If nil,
	// incoming SYNs for unknown flows are dropped.
	Accept func(c *Conn)
}

// NewStack creates an empty stack.
func NewStack(sim *simnet.Sim, side Side) *Stack {
	return &Stack{sim: sim, side: side, conns: make(map[string]*Conn)}
}

// Bind attaches the stack to an interface so segments arriving on the
// stack's side are dispatched to connections.
func (s *Stack) Bind(iface *netem.Iface) {
	if s.side == ClientSide {
		iface.OnClientRecv(func(p *netem.Packet) { s.dispatch(iface, p) })
	} else {
		iface.OnServerRecv(func(p *netem.Packet) { s.dispatch(iface, p) })
	}
}

// sendDir returns the direction this stack's conns transmit in.
func (s *Stack) sendDir() netem.Direction {
	if s.side == ClientSide {
		return netem.Up
	}
	return netem.Down
}

// dispatch is the delivery sink of the pooled hot path: once the
// payload segment is extracted the packet is released, and after the
// connection has processed the segment it is recycled too. Handlers
// (and their callbacks) therefore must not retain the segment or
// anything aliased to it beyond the handle call — they copy the fields
// they need, as the MPTCP layer and capture taps do.
//
//multinet:hotpath
func (s *Stack) dispatch(iface *netem.Iface, p *netem.Packet) {
	seg, ok := p.Payload.(*Segment)
	if !ok {
		return
	}
	p.Payload = nil
	netem.ReleasePacket(p)
	c := s.conns[seg.Flow]
	if c == nil {
		if !seg.Flags.Has(FlagSYN) || seg.Flags.Has(FlagACK) || s.Accept == nil {
			seg.Recycle() // no listener / stray segment
			return
		}
		c = NewConn(s.sim, iface, s.sendDir(), seg.Flow, Config{})
		s.conns[seg.Flow] = c
		s.Accept(c)
	}
	c.handle(seg)
	seg.Recycle()
}

// Dial creates an active connection on the given interface and starts
// its handshake.
func (s *Stack) Dial(iface *netem.Iface, flow string, cfg Config) *Conn {
	if _, dup := s.conns[flow]; dup {
		panic("tcp: duplicate flow " + flow)
	}
	c := NewConn(s.sim, iface, s.sendDir(), flow, cfg)
	s.conns[flow] = c
	c.Connect()
	return c
}

// Register adds a pre-built connection (used by MPTCP subflows that
// need custom Config on the passive side too).
func (s *Stack) Register(c *Conn) {
	if _, dup := s.conns[c.flow]; dup {
		panic("tcp: duplicate flow " + c.flow)
	}
	s.conns[c.flow] = c
}

// Conn returns the connection for a flow, or nil.
func (s *Stack) Conn(flow string) *Conn { return s.conns[flow] }

// Forget removes a connection from the demux table.
func (s *Stack) Forget(flow string) {
	delete(s.conns, flow)
}
