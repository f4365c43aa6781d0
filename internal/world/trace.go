package world

import (
	"fmt"

	"packetradio/internal/obs"
	"packetradio/internal/radio"
)

// AttachTracer wires an obs.Tracer into every seam of the world: stack
// taps record origination/forwarding/arrival, ARP taps the hold-queue
// wait, KISS taps the serial seam, the MAC hook queue/key-up (with the
// CSMA deferral count or the DAMA master's name), and the channel tap
// the on-air arrival at the addressee. Attach after the topology is
// built and before traffic starts; read Spans/Breakdown between runs.
// Idempotent — a second call returns the same tracer.
//
// Each hook records into the lane of the shard it runs on (one "world"
// lane on the single-loop engine), so recording needs no locks and the
// merged span stream is bit-identical at any worker count. A world
// that never calls AttachTracer installs none of these hooks and pays
// nothing — the contract TestTracingDisabledAddsNoAllocs gates.
func (w *World) AttachTracer() *obs.Tracer {
	if w.tracer != nil {
		return w.tracer
	}
	t := obs.NewTracer(w.decoder())
	w.tracer = t
	for _, ch := range w.channels {
		sched := ch.Scheduler()
		ln := t.Lane(w.laneName(sched), sched.Now)
		ch.Taps = append(ch.Taps, func(_, receiver *radio.Transceiver, payload []byte, outcome radio.TapOutcome, _ bool) {
			if outcome == radio.TapOK {
				ln.AirRx(receiver.Name, payload)
			}
		})
	}
	for name, h := range w.hosts {
		ln := t.Lane(w.laneName(h.Sched()), h.Sched().Now)
		h.Stack.Taps = append(h.Stack.Taps, ln.StackTap(name))
		for _, p := range h.radios {
			rf := p.RF
			p.Driver.Taps = append(p.Driver.Taps, ln.KISSTap(name))
			// The mac-wait span's argument names what the frame waited
			// on, resolved at key-up time: the DAMA master's callsign
			// (or a mid-election marker) on a polled channel, the
			// deferral count under CSMA.
			rf.TraceMAC = func(event string, frame []byte, deferrals uint64) {
				arg := ""
				if event == "tx-start" {
					if ctl, ok := w.dama[rf.Channel()]; ok {
						if m := ctl.Master(); m != nil {
							arg = "master=" + m.Name
						} else {
							arg = "election"
						}
					} else {
						arg = fmt.Sprintf("deferrals=%d", deferrals)
					}
				}
				ln.MACEvent(rf.Name, event, frame, arg)
			}
			p.Driver.Resolver().Trace = ln.ARPTap(name)
		}
	}
	return t
}

// Tracer returns the attached tracer (nil when tracing is off).
func (w *World) Tracer() *obs.Tracer { return w.tracer }
