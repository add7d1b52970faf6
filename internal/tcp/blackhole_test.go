package tcp

import (
	"testing"
	"time"

	"multinet/internal/netem"
	"multinet/internal/simnet"
)

type bhEdge struct {
	ifc *netem.Iface
	bh  bool
}

func applyBlackhole(a any) {
	e := a.(*bhEdge)
	e.ifc.SetBlackhole(e.bh)
}

// TestBlackholeRecoveryByRTO pins single-path robustness through a
// silent fault: a steady bulk flow is blackholed mid-transfer. The
// sender must take RTOs while the path is dark, and the transfer must
// complete after the path returns — no hang, no lost bytes.
func TestBlackholeRecoveryByRTO(t *testing.T) {
	sim := simnet.New(11)
	up := netem.NewFixedLink(sim, 10, netem.LinkConfig{PropDelay: 15 * time.Millisecond})
	down := netem.NewFixedLink(sim, 10, netem.LinkConfig{PropDelay: 15 * time.Millisecond})
	iface := netem.NewIface(sim, "wifi", up, down)
	client := NewStack(sim, ClientSide)
	server := NewStack(sim, ServerSide)
	client.Bind(iface)
	server.Bind(iface)

	const size = 4 << 20
	var sender *Conn
	var done time.Duration
	rtos := 0
	server.Accept = func(c *Conn) {
		sender = c
		c.cb.OnEstablished = func(c *Conn) {
			c.Send(size)
			c.Close()
		}
		c.cb.OnRTO = func(c *Conn, count int) { rtos++ }
	}
	client.Dial(iface, "f", Config{Callbacks: Callbacks{
		OnData: func(c *Conn, total int64) {
			if total >= size && done == 0 {
				done = sim.Now()
			}
		},
		OnRTO: func(c *Conn, count int) { rtos++ },
	}})
	sim.ScheduleArg(800*time.Millisecond, applyBlackhole, &bhEdge{ifc: iface, bh: true})
	sim.ScheduleArg(2500*time.Millisecond, applyBlackhole, &bhEdge{ifc: iface, bh: false})
	sim.Run()

	if done == 0 {
		t.Fatal("transfer did not complete after blackhole lifted")
	}
	if done < 2500*time.Millisecond {
		t.Fatalf("completed at %v, inside the blackhole window", done)
	}
	// The sender's retransmissions and RTO firings prove the flow
	// recovered by timeout rather than slipping past the fault.
	if sender.Retransmits == 0 {
		t.Fatal("no retransmissions through the blackhole")
	}
	if rtos == 0 {
		t.Fatal("sender took no RTO through a silent blackhole")
	}
}
