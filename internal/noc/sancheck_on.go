//go:build simcheck

package noc

import "repro/internal/sancheck"

// sanState tracks flit conservation: every message Traverse injects must
// come out the other side. The current mesh is synchronous (a traversal
// resolves within the call), so in-flight is always zero by construction;
// keeping the equation explicit means an asynchronous NoC model inherits
// the check instead of losing it.
type sanState struct {
	injected  uint64
	delivered uint64
}

// sanCheckTraverse validates one completed traversal: conservation
// (injected = delivered + in-flight) and the latency identity — a message
// arrives exactly its hop latencies plus the cycles it stalled for busy
// links after it started. The per-link bookings themselves are checked by
// the timeline sanitizer.
func (m *Mesh) sanCheckTraverse(from, to int, start, arrival, stall uint64) {
	m.san.injected++
	m.san.delivered++
	if inFlight := m.san.injected - m.san.delivered; inFlight != 0 {
		sancheck.Failf("noc: flit conservation broken: %d injected != %d delivered + %d in-flight",
			m.san.injected, m.san.delivered, inFlight)
	}
	hops := uint64(m.Hops(from, to))
	if want := start + hops*uint64(m.cfg.HopLatency) + stall; arrival != want {
		sancheck.Failf("noc: message %d->%d arrived at cycle %d, want %d (start %d + %d hops x %d + %d stall cycles)",
			from, to, arrival, want, start, hops, m.cfg.HopLatency, stall)
	}
}
