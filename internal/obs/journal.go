// The packet journal (DESIGN.md §3i): one stream of seam crossings
// that both packet views read. Every seam a traced datagram crosses
// appends one record — when, which journey, which crossing point, at
// whom, with what detail — and a seam that loses the datagram appends
// a loss record carrying the reason. The ping ledger and the tracer
// are folds over that stream: the ledger steps each echo through its
// stage ladder and pins loss reasons, the tracer strings crossings
// into journeys and spans.
//
// Recording is per shard: each shard appends to its own lane
// (sim.Lanes; one "world" lane on the single-loop engine), so no tap
// takes a lock or reads another shard's clock. Flush merges the lanes
// in sim.MergeLanes order, (virtual time, lane), feeds every record to
// every fold, and empties the lanes. The world flushes at the end of
// every Run and every read flushes first, so a lane holds at most one
// window of records. Folding in chunks is exact: same-instant records
// of one journey always share a lane (its causal chain runs within a
// shard; a cross-shard hop advances virtual time by at least the
// seam's lookahead), and a lane keeps its order across chunks, so each
// journey reaches its fold in the same order on either engine at any
// worker count.

package obs

import (
	"strconv"

	"packetradio/internal/ax25"
	"packetradio/internal/ip"
	"packetradio/internal/sim"
)

// crossing is one journal record. arg and n keep the seam detail raw —
// an interface name, a DAMA master, a drop reason, a deferral count —
// and detail renders it only when a trace is built from the record.
type crossing struct {
	t     sim.Time
	id    TraceID
	point uint8
	who   string
	arg   string
	n     int64
}

// Polled is the deferral count a key-up on a DAMA channel records:
// polled access has no deferrals, and the span names the master.
const Polled = -1

// detail renders the crossing's seam detail the way spans print it.
func (c *crossing) detail() string {
	switch c.point &^ ptReply {
	case PtFwd:
		return "if " + c.arg
	case PtTxStart:
		switch {
		case c.n != Polled:
			return "deferrals=" + strconv.FormatInt(c.n, 10)
		case c.arg == "":
			return "election"
		}
		return "master=" + c.arg
	}
	return c.arg
}

// Journal is one world's crossing stream: the lanes, the host-address
// table the stack taps consult, the MAC unwrap for on-air bytes, and
// the folds fed at every Flush.
type Journal struct {
	unwrap func(b []byte) ([]byte, bool)
	owns   map[hostAddr]bool
	lanes  sim.Lanes[*JournalLane]
	folds  []func(*crossing)
}

type hostAddr struct {
	host string
	addr ip.Addr
}

// NewJournal builds an empty journal. unwrap, when non-nil, strips a
// MAC-layer wrapper (the DAMA demand header) off an on-air frame before
// AX.25 decoding, returning ok false when the bytes are not wrapped.
func NewJournal(unwrap func(b []byte) ([]byte, bool)) *Journal {
	return &Journal{unwrap: unwrap, owns: make(map[hostAddr]bool)}
}

// SetHostAddrs registers the addresses a host owns, letting stack taps
// tell a datagram FOR this host apart from one it merely transits.
func (j *Journal) SetHostAddrs(host string, addrs ...ip.Addr) {
	for _, a := range addrs {
		j.owns[hostAddr{host, a}] = true
	}
}

// Lane creates (or returns) the named lane. now must read the owning
// shard's scheduler clock.
func (j *Journal) Lane(name string, now func() sim.Time) *JournalLane {
	return j.lanes.Lane(name, func() *JournalLane {
		return &JournalLane{j: j, now: now}
	})
}

// addFold starts feeding fold, from the next record on.
func (j *Journal) addFold(fold func(*crossing)) {
	j.Flush()
	j.folds = append(j.folds, fold)
}

// Flush feeds every buffered record to every fold in (virtual time,
// lane) order and empties the lanes. Call only with no run in flight.
func (j *Journal) Flush() {
	lanes := j.lanes.All()
	sim.MergeLanes(lanes, func(ln *JournalLane) []crossing { return ln.buf },
		func(c *crossing) sim.Time { return c.t },
		func(_ int, c *crossing) {
			for _, fold := range j.folds {
				fold(c)
			}
		})
	for _, ln := range lanes {
		ln.buf = ln.buf[:0]
	}
}

// Buffered reports the records the lanes hold and the lanes' summed
// buffer capacity.
func (j *Journal) Buffered() (held, capacity int) {
	for _, ln := range j.lanes.All() {
		held += len(ln.buf)
		capacity += cap(ln.buf)
	}
	return held, capacity
}

// JournalLane is one shard's crossing buffer. Its taps run inside that
// shard's event loop only, so appends need no locks.
type JournalLane struct {
	j   *Journal
	now func() sim.Time
	buf []crossing
}

// record appends pkt's crossing of seam base, if pkt is traced, marking
// the reply leg of an ICMP round trip.
func (ln *JournalLane) record(pkt *ip.Packet, base uint8, who, arg string, n int64) {
	id, reply, ok := traceFrom(pkt)
	if !ok {
		return
	}
	if reply {
		base |= ptReply
	}
	ln.buf = append(ln.buf, crossing{t: ln.now(), id: id, point: base, who: who, arg: arg, n: n})
}

// recordFrame records a crossing of the datagram inside an AX.25 frame
// in any dress.
func (ln *JournalLane) recordFrame(frame []byte, base uint8, who, arg string, n int64) {
	if _, pkt, ok := decodeFrame(ln.j.unwrap, frame); ok {
		ln.record(pkt, base, who, arg, n)
	}
}

// StackTap returns an ipstack.Stack.Taps-shaped closure recording the
// IP-layer crossings at the named host: origination, per-hop
// forwarding, and final arrival.
func (ln *JournalLane) StackTap(host string) func(dir string, pkt *ip.Packet, ifName string) {
	return func(dir string, pkt *ip.Packet, ifName string) {
		switch {
		case dir == "out" && ln.j.owns[hostAddr{host, pkt.Src}]:
			ln.record(pkt, PtOrigin, host, "", 0)
		case dir == "fwd":
			ln.record(pkt, PtFwd, host, ifName, 0)
		case dir == "in" && ln.j.owns[hostAddr{host, pkt.Dst}]:
			ln.record(pkt, PtArrive, host, "", 0)
		}
	}
}

// AirRx records one receiver's copy of a transmission, from the
// channel tap, reading the verdict the receivers share through memo.
// Only the frame's link-layer addressee is on the datagram's path: a
// clean copy there is an air-rx crossing, a lost one (reason
// "collision", "noise", ...) a loss. Copies at bystanders are not
// recorded.
func (ln *JournalLane) AirRx(receiverCall string, frame []byte, memo *any, lost bool, reason string) {
	f := ax25.Judge(memo, unwrapMAC(ln.j.unwrap, frame), false).Frame
	if f == nil || !isCall(f.LinkDst(), receiverCall) {
		return
	}
	pkt, err := ip.Unmarshal(f.Info)
	if err != nil {
		return
	}
	if lost {
		ln.record(pkt, PtLoss, receiverCall, reason, 0)
	} else {
		ln.record(pkt, PtAirRx, receiverCall, "", 0)
	}
}

// Drop records a queue drop at some seam (driver ipq, TNC host queue,
// MAC transmit queue) as a loss; it has the OnDrop hooks' shape, and
// body is the frame in whatever dress that seam uses.
func (ln *JournalLane) Drop(reason string, body []byte) {
	ln.recordFrame(body, PtLoss, "", reason, 0)
}

// KISSTap returns a core.PacketRadioIf.Taps-shaped closure recording
// the serial seam: "tx" as the driver frames a datagram onto the KISS
// line, "rx" as the receiving driver pulls one off. rec is the KISS
// record with its command byte; only data records (cmd 0) are frames.
func (ln *JournalLane) KISSTap(host string) func(dir string, rec []byte) {
	return func(dir string, rec []byte) {
		if len(rec) < 2 || rec[0] != 0 {
			return
		}
		pt := PtKISSRx
		if dir == "tx" {
			pt = PtKISSTx
		}
		ln.recordFrame(rec[1:], pt, host, "", 0)
	}
}

// MACEvent records a MAC seam crossing for the frame: "queue" as the
// radio accepts it, "tx-start" as the transmitter keys up with it. At
// key-up deferrals is the CSMA deferral count, or Polled on a DAMA
// channel, where master names the polling master ("" mid-election) —
// so mac-wait spans name what they waited on.
func (ln *JournalLane) MACEvent(who, event string, frame []byte, deferrals int64, master string) {
	if event == "queue" {
		ln.recordFrame(frame, PtMACQueue, who, "", 0)
	} else {
		ln.recordFrame(frame, PtTxStart, who, master, deferrals)
	}
}

// ARPTap returns an arp.Resolver.Trace-shaped closure recording hold
// ("a datagram parked awaiting resolution") and flush ("resolution
// arrived; the hold queue drains") at the named host.
func (ln *JournalLane) ARPTap(who string) func(event string, pkt *ip.Packet) {
	return func(event string, pkt *ip.Packet) {
		pt := PtARPFlush
		if event == "hold" {
			pt = PtARPHold
		}
		ln.record(pkt, pt, who, "", 0)
	}
}

// decodeFrame digs the IP datagram out of an AX.25 frame as it appears
// at any seam: MAC-wrapped on-air bytes, FCS-suffixed TNC output, or
// the bare frame a KISS line carries. The results alias b.
func decodeFrame(unwrap func([]byte) ([]byte, bool), b []byte) (f *ax25.Frame, pkt *ip.Packet, ok bool) {
	b = unwrapMAC(unwrap, b)
	if body, fcsOK := ax25.CheckFCS(b); fcsOK {
		b = body
	}
	f, err := ax25.Decode(b)
	if err != nil {
		return nil, nil, false
	}
	pkt, err = ip.Unmarshal(f.Info)
	if err != nil {
		return nil, nil, false
	}
	return f, pkt, true
}

// unwrapMAC strips a MAC-layer wrapper off b, if unwrap finds one.
func unwrapMAC(unwrap func([]byte) ([]byte, bool), b []byte) []byte {
	if unwrap != nil {
		if inner, wrapped := unwrap(b); wrapped {
			return inner
		}
	}
	return b
}

// isCall reports whether a's callsign, padding dropped, is call —
// Addr.Callsign() == call without building the string.
func isCall(a ax25.Addr, call string) bool {
	n := len(a.Call)
	for n > 0 && a.Call[n-1] == ' ' {
		n--
	}
	return string(a.Call[:n]) == call
}

// AX25Info extracts the information field from a bare AX.25 frame (no
// FCS, no MAC wrapper — the dress a KISS line carries). Capture
// filters use it to reach the IP datagram inside a KISS data record.
func AX25Info(b []byte) ([]byte, bool) {
	f, err := ax25.Decode(b)
	if err != nil {
		return nil, false
	}
	return f.Info, true
}
