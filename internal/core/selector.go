package core

import (
	"multinet/internal/mptcp"
	"multinet/internal/selector"
)

// The selector API lives in internal/selector — the decision surface
// shared by the offline experiments and the online path-selection
// service (internal/serve, cmd/serve). ConfigFor maps a
// selector.Decision onto the transfer Config this package runs, and
// Probe measures a session's paths into a selector.Estimate.

// ConfigFor maps a selector Decision onto the transfer Config that
// realises it: single-path TCP on the preferred path, or MPTCP with
// the preferred path as primary and the decided coupling. The decided
// scheduler is carried only when it differs from the min-SRTT default
// so configuration names (and the output goldens pinning them) omit
// the default.
func ConfigFor(d selector.Decision) Config {
	if !d.UseMPTCP {
		return Config{Transport: TCP, Iface: d.Primary()}
	}
	cfg := Config{Transport: MPTCP, Primary: d.Primary(), CC: d.CC}
	if d.Scheduler != "" && d.Scheduler != mptcp.SchedMinSRTT {
		cfg.Scheduler = d.Scheduler
	}
	return cfg
}

// ProbeSize is the transfer used per network by Session.Probe.
const ProbeSize = 256 << 10

// Probe measures every attached network with a ProbeSize download
// each, in attachment order, and returns the resulting estimate. It
// advances the session clock.
func (s *Session) Probe() selector.Estimate {
	est := selector.Estimate{}
	for _, name := range s.Host.IfaceNames() {
		r := s.Run(Config{Transport: TCP, Iface: name}, Download, ProbeSize)
		if r.Completed {
			est.Set(name, r.Mbps, r.EstablishedAt) // handshake ≈ 1 RTT
		} else {
			est.Set(name, 0, 0)
		}
	}
	return est
}
