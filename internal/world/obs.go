package world

import (
	"fmt"
	"io"
	"strings"

	"packetradio/internal/dama"
	"packetradio/internal/ip"
	"packetradio/internal/obs"
	"packetradio/internal/radio"
	"packetradio/internal/sim"
)

// This file wires the obs package onto a world: the metrics registry
// over every layer's counters, pcap capture at the KISS and IP seams,
// the flight recorder, and the ping ledger. Everything here is opt-in
// and read-side — a world that never calls these runs the exact same
// event schedule it always did.

// metricName makes a hierarchy-safe path segment: dots separate
// levels, so dots inside a channel or host name ("145.01") become
// underscores.
func metricName(s string) string { return strings.ReplaceAll(s, ".", "_") }

// Registry returns the world's metrics registry, building it on first
// use and re-sweeping on every call so hosts, channels and transports
// added since the last call are picked up. Names are hierarchical:
//
//	radio.145_01.collisions        dama.145_01.elections
//	host.pc1.ip.forwarded          host.pc1.pr0.rf.frames_sent
//	host.uw-gw.pr0.drv.ipq_drops   host.pc1.tcp.persists
func (w *World) Registry() *obs.Registry {
	if w.reg == nil {
		w.reg = obs.NewRegistry()
	}
	r := w.reg
	for name, ch := range w.channels {
		cn := metricName(name)
		r.RegisterStruct("radio."+cn, &ch.Stats)
		r.RegisterFunc("radio."+cn+".utilization", ch.Utilization)
		if ctl, ok := w.dama[ch]; ok {
			r.RegisterStruct("dama."+cn, &ctl.Stats)
			r.RegisterDuration("dama."+cn+".control_airtime", &ch.Stats.ControlAirtime)
		}
	}
	if w.group != nil {
		g := w.group
		r.RegisterFunc("sim.windows", func() float64 { return float64(g.Windows()) })
		r.RegisterFunc("sim.crossings", func() float64 { return float64(g.Crossings()) })
		for _, sh := range g.Shards() {
			sh := sh
			sn := "sim.shard_" + metricName(sh.Name)
			r.RegisterFunc(sn+".events", func() float64 { return float64(sh.Sched.Fired()) })
			r.RegisterFunc(sn+".delivered", func() float64 { return float64(sh.Delivered()) })
		}
	}
	for hname, h := range w.hosts {
		hn := "host." + metricName(hname)
		r.RegisterStruct(hn+".ip", &h.Stack.Stats)
		if h.sock != nil {
			if tp := h.sock.TCPActive(); tp != nil {
				r.RegisterStruct(hn+".tcp", &tp.Stats)
			}
			if rm := h.sock.RDMActive(); rm != nil {
				r.RegisterStruct(hn+".rdm", &rm.Stats)
			}
		}
		for ifName, p := range h.radios {
			pn := hn + "." + metricName(ifName)
			r.RegisterStruct(pn+".drv", &p.Driver.DStats)
			r.RegisterStruct(pn+".tnc", &p.TNC.Stats)
			r.RegisterStruct(pn+".rf", &p.RF.Stats)
			r.RegisterStruct(pn+".arp", &p.Driver.Resolver().Stats)
		}
	}
	return r
}

// Netstat writes the registry snapshot as the simulation's `netstat
// -s` (obs.Registry.WriteText): aligned name/value lines grouped by
// prefix, histograms as percentile summaries. prefix, when non-empty,
// restricts the listing ("host.pc1", "radio.").
func (w *World) Netstat(out io.Writer, prefix string) {
	w.Registry().WriteText(out, prefix)
}

// EnableFlightRecorder starts a bounded ring of scheduler events and
// MAC protocol transitions (capacity <= 0 takes the per-lane default).
// It installs the scheduler's EventHook and every existing DAMA
// controller's Trace, so enable it after the topology is built. On the
// single-loop engine the recorder has one lane ("world"); on the
// sharded engine one lane per shard, each written only by its shard's
// goroutine — WriteTrace merges them ordered by virtual time, so a
// parallel run's trace reads like a sequential one's. The hooks add no
// events and no allocations, but gated runs (the CI event counter)
// should leave them off all the same.
func (w *World) EnableFlightRecorder(capacity int) *obs.MultiRecorder {
	m := obs.NewMultiRecorder()
	if w.group == nil {
		w.Sched.EventHook = m.Lane(w.laneName(w.Sched), capacity).SchedHook()
	} else {
		for _, sh := range w.group.Shards() {
			sh.Sched.EventHook = m.Lane(sh.Name, capacity).SchedHook()
		}
	}
	for ch, ctl := range w.dama {
		cn := metricName(w.ChannelName(ch))
		sched := ch.Scheduler()
		fr := m.Lane(w.laneName(sched), capacity)
		ctl.Trace = func(event, who string) {
			fr.Record(sched.Now(), "dama", cn+" "+event, who)
		}
	}
	return m
}

// laneName names the lane a hook running on scheduler s records into:
// its shard's name on the sharded engine, "world" on the single-loop
// engine. Every per-shard observer keys its lanes on it, and stamps
// with s's own clock, never another shard's.
func (w *World) laneName(s *sim.Scheduler) string {
	if w.group != nil {
		if sh := w.group.ShardOf(s); sh != nil {
			return sh.Name
		}
	}
	return "world"
}

// journal returns the world's packet journal. The first call
// builds it and wires the core taps every packet observer reads: each
// host's stack (origination, forwarding, arrival), each channel (air
// arrival or loss at the addressee) and each radio port's drop hooks.
// Every tap records into the lane of the shard it runs on, and the
// journal flushes into its folds at the end of every Run.
func (w *World) journal() *obs.Journal {
	if w.jnl != nil {
		return w.jnl
	}
	j := obs.NewJournal(dama.Unwrap)
	for _, ch := range w.channels {
		sched := ch.Scheduler()
		ln := j.Lane(w.laneName(sched), sched.Now)
		ch.Taps = append(ch.Taps, func(_, receiver *radio.Transceiver, payload []byte, memo *any, outcome radio.TapOutcome, _ bool) {
			ln.AirRx(receiver.Name, payload, memo, outcome != radio.TapOK, outcome.String())
		})
	}
	for name, h := range w.hosts {
		for _, ifName := range h.Stack.IfNames() {
			if addr, _, ok := h.Stack.IfAddr(ifName); ok {
				j.SetHostAddrs(name, addr)
			}
		}
		ln := j.Lane(w.laneName(h.Sched()), h.Sched().Now)
		h.Stack.Taps = append(h.Stack.Taps, ln.StackTap(name))
		for _, p := range h.radios {
			p.Driver.OnDrop = ln.Drop
			p.TNC.OnDrop = ln.Drop
			p.RF.OnDrop = ln.Drop
		}
	}
	w.OnRunEnd(j.Flush)
	w.jnl = j
	return j
}

// ChannelName reverse-maps a channel to the name it was created under
// ("" if foreign).
func (w *World) ChannelName(ch *radio.Channel) string {
	for name, c := range w.channels {
		if c == ch {
			return name
		}
	}
	return ""
}

// Channels lists the world's channels by name.
func (w *World) Channels() map[string]*radio.Channel { return w.channels }

// CapturePort attaches a pcap capture to one radio port's KISS/serial
// seam: every frame crossing between host and TNC, both directions,
// as DLT_AX25_KISS records stamped with the host's own virtual clock
// (its shard's, on the sharded engine). filter (nil = everything)
// screens on the IP datagram inside data frames; KISS parameter frames
// are captured only by a nil/match-all filter.
func (w *World) CapturePort(host, ifName string, out io.Writer, filter *obs.Filter) (*obs.PcapWriter, error) {
	h, ok := w.hosts[host]
	if !ok {
		return nil, fmt.Errorf("world: no host %q", host)
	}
	port, ok := h.radios[ifName]
	if !ok {
		return nil, fmt.Errorf("world: host %q has no radio %q", host, ifName)
	}
	pw, err := obs.NewPcapWriter(out, obs.LinkTypeAX25KISS)
	if err != nil {
		return nil, err
	}
	sched := h.Sched()
	port.Driver.Taps = append(port.Driver.Taps, func(dir string, rec []byte) {
		if filter != nil && !kissRecordMatches(filter, rec) {
			return
		}
		pw.WritePacket(sched.Now(), rec)
	})
	return pw, nil
}

// kissRecordMatches applies an IP-level filter to a KISS record (the
// command byte plus an AX.25 frame): data frames match on the info
// field, anything else only passes a match-all filter.
func kissRecordMatches(f *obs.Filter, rec []byte) bool {
	if len(rec) == 0 || rec[0] != 0 { // not a data frame
		return f.Match(nil) // true only for match-all
	}
	info, ok := obs.AX25Info(rec[1:])
	if !ok {
		return f.Match(nil)
	}
	return f.MatchRaw(info)
}

// CaptureIP attaches a pcap capture at a host's IP layer (the netif
// seam): every datagram the stack receives, originates or forwards,
// as DLT_RAW records stamped with the host's own virtual clock.
func (w *World) CaptureIP(host string, out io.Writer, filter *obs.Filter) (*obs.PcapWriter, error) {
	h, ok := w.hosts[host]
	if !ok {
		return nil, fmt.Errorf("world: no host %q", host)
	}
	pw, err := obs.NewPcapWriter(out, obs.LinkTypeRaw)
	if err != nil {
		return nil, err
	}
	sched := h.Sched()
	h.Stack.Taps = append(h.Stack.Taps, func(dir string, pkt *ip.Packet, ifName string) {
		if !filter.Match(pkt) {
			return
		}
		if buf, err := pkt.Marshal(); err == nil {
			pw.WritePacket(sched.Now(), buf)
		}
	})
	return pw, nil
}

// AttachPingLedger folds a PingLedger over the world's packet journal:
// stack crossings stage each ping through its ladder, air arrivals and
// losses at the intended receiver move or end it, and the drop hooks
// at every queue pin terminal reasons. Attach after the topology is
// built and before traffic starts. The taps add no scheduler events,
// so ledgered runs keep their event counts — E16 attaches one to
// explain every undelivered ping. Idempotent — a second call returns
// the same ledger.
func (w *World) AttachPingLedger() *obs.PingLedger {
	if w.ledger == nil {
		w.ledger = obs.NewPingLedger(w.journal())
	}
	return w.ledger
}
