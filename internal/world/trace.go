package world

import (
	"packetradio/internal/obs"
)

// AttachTracer folds an obs.Tracer over the world's packet journal and
// hooks the seams only the tracer reads: ARP taps the hold-queue wait,
// KISS taps the serial seam, and the MAC hook queue/key-up (with the
// CSMA deferral count or the DAMA master's name). The journal's core
// taps already record origination, forwarding, arrival and the on-air
// arrival at the addressee. Attach after the topology is built and
// before traffic starts; read Spans/Breakdown between runs.
// Idempotent — a second call returns the same tracer.
//
// Each hook records into the lane of the shard it runs on (one "world"
// lane on the single-loop engine), so recording needs no locks and the
// span stream is bit-identical at any worker count. A world that never
// calls AttachTracer installs none of these hooks and pays nothing —
// the contract TestTracingDisabledAddsNoAllocs gates.
func (w *World) AttachTracer() *obs.Tracer {
	if w.tracer != nil {
		return w.tracer
	}
	j := w.journal()
	w.tracer = obs.NewTracer(j)
	for name, h := range w.hosts {
		ln := j.Lane(w.laneName(h.Sched()), h.Sched().Now)
		for _, p := range h.radios {
			rf := p.RF
			p.Driver.Taps = append(p.Driver.Taps, ln.KISSTap(name))
			// The mac-wait span names what the frame waited on,
			// resolved at key-up time: the DAMA master (or none, mid-
			// election) on a polled channel, the deferral count under
			// CSMA.
			rf.TraceMAC = func(event string, frame []byte, deferrals uint64) {
				if ctl, ok := w.dama[rf.Channel()]; ok {
					master := ""
					if m := ctl.Master(); m != nil {
						master = m.Name
					}
					ln.MACEvent(rf.Name, event, frame, obs.Polled, master)
					return
				}
				ln.MACEvent(rf.Name, event, frame, int64(deferrals), "")
			}
			p.Driver.Resolver().Trace = ln.ARPTap(name)
		}
	}
	return w.tracer
}

// Tracer returns the attached tracer (nil when tracing is off).
func (w *World) Tracer() *obs.Tracer { return w.tracer }
