package obs

import (
	"fmt"
	"io"
	"sort"

	"packetradio/internal/ip"
	"packetradio/internal/sim"
)

// PingLedger accounts for every echo request a world sends: each ping
// is tracked by (station address, icmp id, icmp seq) through a ladder
// of stages — request leaves the station's stack, crosses the air,
// is forwarded by the gateway, arrives at the server, and the reply
// walks the same path back. Loss events (a collision on the air, a
// queue overflow in a driver) pin a terminal reason on the ping they
// carried; anything still mid-ladder when the run ends is reported as
// pending at its last stage. The invariant the experiments assert:
//
//	delivered + sum(undelivered fates) == pings sent
//
// so an E16-style saturation run can say exactly where every lost
// probe died instead of just reporting a delivery ratio.
//
// Recording is shard-safe: taps write timestamped events into per-lane
// buffers (sim.Lanes: one lane per shard, each written only by its
// shard's goroutine), and reads fold the lanes into the ladder state
// in sim.MergeLanes order, (virtual time, lane). Events
// for one ping at one instant always share a lane (its causal chain
// runs within a shard; a cross-shard hop advances time by at least the
// seam's lookahead), so the folded ladder is identical on the
// single-loop and sharded engines at any worker count — the equality
// the shard equivalence suite gates.
type PingLedger struct {
	dec       *Decoder
	recs      map[pingKey]*pingRec
	sent      int
	delivered int
	lanes     sim.Lanes[*LedgerLane]
}

type pingKey struct {
	station ip.Addr
	id, seq uint16
}

type pingRec struct {
	stage int
	fate  string // terminal loss reason; "" while in flight
}

// The stage ladder. A ping only moves forward; duplicate sightings of
// the same stage are no-ops.
const (
	stNone       = iota
	stReqSent    // station stack emitted the request
	stReqAir     // request crossed the air to the gateway
	stReqFwd     // gateway forwarded it toward the server
	stReqArrived // server stack accepted the request
	stRepSent    // server emitted the reply
	stRepFwd     // gateway forwarded the reply
	stRepAir     // reply crossed the air to the station
	stDelivered  // station stack accepted the reply
)

var stageNames = map[int]string{
	stReqSent:    "pending: req in station queue",
	stReqAir:     "pending: req at gateway",
	stReqFwd:     "pending: req to server",
	stReqArrived: "pending: req at server",
	stRepSent:    "pending: rep to gateway",
	stRepFwd:     "pending: rep in gateway queue",
	stRepAir:     "pending: rep at station",
}

// NewPingLedger builds an empty ledger reading frames and host
// addresses through dec.
func NewPingLedger(dec *Decoder) *PingLedger {
	return &PingLedger{dec: dec, recs: make(map[pingKey]*pingRec)}
}

// ledgerEv is one buffered ladder event: an advance (stage > 0) or a
// loss (reason != "").
type ledgerEv struct {
	t      sim.Time
	k      pingKey
	isReq  bool
	stage  int
	create bool
	reason string
}

// LedgerLane is one shard's event buffer. Taps derived from a lane
// run inside that shard's event loop only, so appends need no locks.
type LedgerLane struct {
	led *PingLedger
	now func() sim.Time
	dec *frameDecoder
	evs []ledgerEv
}

// Lane creates (or returns) the named lane. now must read the owning
// shard's scheduler clock.
func (l *PingLedger) Lane(name string, now func() sim.Time) *LedgerLane {
	return l.lanes.Lane(name, func() *LedgerLane {
		return &LedgerLane{led: l, now: now, dec: l.dec.lane(name)}
	})
}

// merge folds every lane's buffered events into the ladder state in
// (virtual time, lane) order and clears the buffers. Idempotent and
// incremental; every read calls it first. Call only with no run in
// flight.
func (l *PingLedger) merge() {
	lanes := l.lanes.All()
	sim.MergeLanes(lanes, func(ln *LedgerLane) []ledgerEv { return ln.evs },
		func(ev *ledgerEv) sim.Time { return ev.t },
		func(_ int, ev *ledgerEv) {
			if ev.reason != "" {
				l.lose(ev.k, ev.isReq, ev.reason)
			} else {
				l.advance(ev.k, ev.stage, ev.create)
			}
		})
	for _, ln := range lanes {
		ln.evs = ln.evs[:0]
	}
}

// pingFrom extracts a ledger key from a datagram: an echo's trace
// identity, the request keyed on its source (the station), the reply
// on its destination.
func pingFrom(pkt *ip.Packet) (k pingKey, isReq, ok bool) {
	id, reply, ok := traceFrom(pkt)
	if !ok || id.Proto != ip.ProtoICMP {
		return k, false, false
	}
	return pingKey{id.A, id.ID, id.Seq}, !reply, true
}

func (l *PingLedger) advance(k pingKey, stage int, create bool) {
	r := l.recs[k]
	if r == nil {
		if !create {
			return
		}
		r = &pingRec{}
		l.recs[k] = r
		l.sent++
	}
	if stage > r.stage {
		r.stage = stage
		if stage == stDelivered {
			l.delivered++
		}
	}
}

func (ln *LedgerLane) advance(k pingKey, isReq bool, stage int, create bool) {
	ln.evs = append(ln.evs, ledgerEv{t: ln.now(), k: k, isReq: isReq, stage: stage, create: create})
}

func (ln *LedgerLane) lose(k pingKey, isReq bool, reason string) {
	ln.evs = append(ln.evs, ledgerEv{t: ln.now(), k: k, isReq: isReq, reason: reason})
}

// StackTap returns an ipstack.Stack.Taps-shaped closure for the named
// host; wire it to that host's stack to feed the lane.
func (ln *LedgerLane) StackTap(host string) func(dir string, pkt *ip.Packet, ifName string) {
	return func(dir string, pkt *ip.Packet, ifName string) {
		k, isReq, ok := pingFrom(pkt)
		if !ok {
			return
		}
		mine := ln.led.dec.hosts[host]
		switch {
		case isReq && dir == "out" && mine[pkt.Src]:
			ln.advance(k, isReq, stReqSent, true)
		case isReq && dir == "fwd":
			ln.advance(k, isReq, stReqFwd, false)
		case isReq && dir == "in" && mine[pkt.Dst]:
			ln.advance(k, isReq, stReqArrived, false)
		case !isReq && dir == "out":
			ln.advance(k, isReq, stRepSent, false)
		case !isReq && dir == "fwd":
			ln.advance(k, isReq, stRepFwd, false)
		case !isReq && dir == "in" && mine[pkt.Dst]:
			ln.advance(k, isReq, stDelivered, false)
		}
	}
}

// RadioFrame records one per-receiver delivery outcome from the radio
// tap. Only the link-layer addressee matters: overheard copies and
// copies lost to bystanders don't move the ledger. lost=false advances
// the air stage; lost=true pins reason as the ping's fate.
func (ln *LedgerLane) RadioFrame(receiverCall string, frame []byte, lost bool, reason string) {
	f, pkt, ok := ln.dec.decode(frame)
	if !ok || !isCall(f.LinkDst(), receiverCall) {
		return
	}
	k, isReq, ok := pingFrom(pkt)
	if !ok {
		return
	}
	switch {
	case lost:
		ln.lose(k, isReq, reason)
	case isReq:
		ln.advance(k, isReq, stReqAir, false)
	default:
		ln.advance(k, isReq, stRepAir, false)
	}
}

// DropFrame records a queue-drop of a frame at some seam (driver ipq,
// TNC host queue, MAC transmit queue); body is the frame in whatever
// dress that seam uses.
func (ln *LedgerLane) DropFrame(reason string, body []byte) {
	_, pkt, ok := ln.dec.decode(body)
	if !ok {
		return
	}
	if k, isReq, ok := pingFrom(pkt); ok {
		ln.lose(k, isReq, reason)
	}
}

func (l *PingLedger) lose(k pingKey, isReq bool, reason string) {
	r := l.recs[k]
	if r == nil || r.stage == stDelivered || r.fate != "" {
		return // untracked, already done, or already explained
	}
	side := "req"
	if !isReq {
		side = "rep"
	}
	r.fate = side + ": " + reason
}

// Sent reports how many pings the ledger saw leave a station.
func (l *PingLedger) Sent() int { l.merge(); return l.sent }

// Delivered reports how many replies made it back.
func (l *PingLedger) Delivered() int { l.merge(); return l.delivered }

// Fates classifies every tracked ping: "delivered", a terminal loss
// reason, or "pending: ..." for pings still mid-ladder. The counts
// always sum to Sent().
func (l *PingLedger) Fates() map[string]int {
	l.merge()
	out := make(map[string]int)
	for _, r := range l.recs {
		switch {
		case r.stage == stDelivered:
			out["delivered"]++
		case r.fate != "":
			out[r.fate]++
		default:
			out[stageNames[r.stage]]++
		}
	}
	return out
}

// WriteFates prints the fate table, most common first.
func (l *PingLedger) WriteFates(w io.Writer) {
	fates := l.Fates()
	names := make([]string, 0, len(fates))
	for n := range fates {
		names = append(names, n)
	}
	sort.Slice(names, func(i, j int) bool {
		if fates[names[i]] != fates[names[j]] {
			return fates[names[i]] > fates[names[j]]
		}
		return names[i] < names[j]
	})
	for _, n := range names {
		fmt.Fprintf(w, "%6d  %s\n", fates[n], n)
	}
}
