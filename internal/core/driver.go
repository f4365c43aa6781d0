// Package core contains the paper's primary contribution: the packet
// radio pseudo-device driver added to the (simulated) Ultrix kernel,
// and the Gateway composition that made a MicroVAX "an IP gateway for
// an Amateur Packet Radio network that stretches from Seattle to
// Tacoma".
//
// The driver (§2.2) is a pseudo-driver because "the packet controller
// does not sit on the bus[;] communication with it is through a serial
// line". Its pieces map one-to-one onto the paper's description:
//
//   - A per-character receive path: "For each character in the packet,
//     the tty driver calls the packet radio interrupt handler to
//     process the character. Characters are buffered by the interrupt
//     handler until all characters in the packet have been received.
//     As each character is read ... escaped frame end characters that
//     are embedded in the packet are decoded [on the fly]."
//     (the streaming kiss.Decoder fed from the serial callback)
//
//   - Header checks: "the interrupt handler checks the header of the
//     packet. It verifies that the recipient's amateur radio callsign
//     (which is used as a link address) is either its own, or the
//     broadcast address."
//
//   - PID demultiplexing: "It also checks the protocol ID field. If
//     the packet type is IP, the driver then adds the encapsulated IP
//     packet to the queue of incoming IP packets." Non-IP frames go to
//     a tty-style queue for user-space handlers (§2.4), which is how
//     the application gateway and NET/ROM are implemented without
//     kernel changes.
//
//   - Driver-resident ARP: "Since the ARP lookup occurs inside our
//     code, a separate routine that deals specifically with AX.25
//     addresses can be called" — with optional digipeater paths per
//     destination, since "some entries may contain additional
//     callsigns for digipeaters".
package core

import (
	"time"

	"packetradio/internal/arp"
	"packetradio/internal/ax25"
	"packetradio/internal/ip"
	"packetradio/internal/kiss"
	"packetradio/internal/netif"
	"packetradio/internal/serial"
	"packetradio/internal/sim"
)

// DefaultMTU is the packet-radio interface MTU: AX.25's conventional
// 256-byte information field.
const DefaultMTU = ax25.MaxInfo

// DriverStats extends the generic interface counters with the checks
// specific to this driver.
type DriverStats struct {
	NotForUs   uint64 // frames whose link address failed the callsign check
	BadFrames  uint64 // undecodable AX.25 or unparseable KISS payloads
	IPIn       uint64 // IP datagrams queued for the stack
	ARPIn      uint64 // ARP packets handed to the resolver
	TTYIn      uint64 // non-IP layer-3 frames queued for user space
	IPQDrops   uint64 // IP input queue overflows
	TTYQDrops  uint64 // tty queue overflows
	OutDrops   uint64 // output dropped on serial backlog
	CPUBusy    time.Duration
	BytesFed   uint64 // characters fed to the interrupt handler
	KISSFrames uint64 // completed KISS frames from the TNC
}

// Input is the stack entry point the driver delivers datagrams to.
type Input interface {
	Input(buf []byte, ifName string)
}

// PacketRadioIf is the pseudo-device driver; it implements
// netif.Interface so the routing code treats it exactly like the
// DEQNA driver.
type PacketRadioIf struct {
	// MyCall is the station callsign used as the link address.
	MyCall ax25.Addr

	// TTYHandler, when set, receives non-IP layer-3 frames (the §2.4
	// mechanism: "Packets that are received from the TNC that are not
	// of type IP can be placed on the input queue for the appropriate
	// tty line. A user program can then read from this line").
	TTYHandler func(*ax25.Frame)

	// Monitor, when set, observes every frame in and out ("rx"/"tx").
	Monitor func(dir string, f *ax25.Frame)

	// PerByteCPU and PerPacketCPU model the MicroVAX's interrupt and
	// IP-input costs; they impose queueing delay on the receive path
	// under load. Zero disables the CPU model.
	PerByteCPU   time.Duration
	PerPacketCPU time.Duration

	// OutQueueBytes bounds serial output backlog before the driver
	// drops (IF_DROP semantics). Default 4096.
	OutQueueBytes int

	// AutoARP enables the KA9Q NOS conveniences AX.25 IP networks ran
	// with: glean (IP source, link source) mappings from received IP
	// frames, and accept unsolicited ARP announcements. Off by default
	// — the paper's Seattle deployment speaks strict RFC 826 — and
	// switched on in the generated scale worlds, where a blocking ARP
	// exchange per station would dominate cold start. Set before
	// traffic flows.
	AutoARP bool

	// Taps observe every KISS frame crossing the serial seam, in order,
	// in DLT_AX25_KISS dress: the command byte followed by the
	// unescaped payload. dir is "rx" (TNC→host) or "tx" (host→TNC);
	// dropped output (OutDrops) never crossed the seam and is not
	// tapped. Attach by appending; a tap must not retain the slice.
	Taps []func(dir string, kissFrame []byte)

	// OnDrop, when non-nil, observes frames the driver discards with a
	// reason ("ipq overflow", "serial queue overflow"); frame is the
	// AX.25 frame body. The callback must not retain the slice.
	OnDrop func(reason string, frame []byte)

	DStats DriverStats

	name  string
	sched *sim.Scheduler
	stack Input
	ser   *serial.End
	res   *arp.Resolver
	mtu   int
	up    bool
	stats netif.Stats

	dec      kiss.Decoder
	ipq      *netif.Queue[[]byte]
	ttyq     *netif.Queue[*ax25.Frame]
	ipqBusy  bool
	busyTill sim.Time

	paths map[ip.Addr][]ax25.Addr
}

// NewPacketRadioIf creates the driver. ser is the host end of the
// serial line to a KISS TNC; myIP is the interface address used for
// ARP.
func NewPacketRadioIf(sched *sim.Scheduler, name string, ser *serial.End, mycall ax25.Addr, myIP ip.Addr, stack Input) *PacketRadioIf {
	d := &PacketRadioIf{
		MyCall:        mycall,
		OutQueueBytes: 4096,
		name:          name,
		sched:         sched,
		stack:         stack,
		ser:           ser,
		mtu:           DefaultMTU,
		ipq:           netif.NewQueue[[]byte](0),
		ttyq:          netif.NewQueue[*ax25.Frame](0),
		paths:         make(map[ip.Addr][]ax25.Addr),
	}
	d.res = arp.NewResolver(sched, arp.HTypeAX25, mycall.HW(), myIP)
	d.res.SendPacket = d.sendARP
	d.res.Deliver = d.deliverIP
	// Unlike the single-mbuf BSD Ethernet hold, the radio driver sits
	// below the gateway's fragmenter: one 1500-byte Ethernet datagram
	// becomes ~6 fragments that all miss the cache together, so hold
	// a full fragment train while ARP resolves.
	d.res.MaxHold = 8
	// AX.25 ARP needs patience: a request+reply is ~2 s of airtime at
	// 1200 bps before any CSMA deferrals.
	d.res.RequestInterval = 10 * time.Second
	d.dec.Frame = d.kissFrame
	ser.SetRunReceiver(d.interruptRun)
	return d
}

// Name implements netif.Interface.
func (d *PacketRadioIf) Name() string { return d.name }

// MTU implements netif.Interface.
func (d *PacketRadioIf) MTU() int { return d.mtu }

// SetMTU overrides the interface MTU (ifconfig mtu). The AX.25 default
// is conservative; stations on a clean channel can trade error-burst
// exposure for per-frame overhead by raising it. Set before traffic
// flows — in-flight datagrams are not re-fragmented.
func (d *PacketRadioIf) SetMTU(mtu int) {
	if mtu > 0 {
		d.mtu = mtu
	}
}

// Up implements netif.Interface.
func (d *PacketRadioIf) Up() bool { return d.up }

// Init implements netif.Interface (the if_init procedure).
func (d *PacketRadioIf) Init() error { d.up = true; return nil }

// Stats implements netif.Interface.
func (d *PacketRadioIf) Stats() *netif.Stats { return &d.stats }

// Resolver exposes the AX.25 ARP engine for static entries and stats.
func (d *PacketRadioIf) Resolver() *arp.Resolver { return d.res }

// EnableAutoARP turns on gleaning and unsolicited-learn (see AutoARP).
func (d *PacketRadioIf) EnableAutoARP() {
	d.AutoARP = true
	d.res.AcceptUnsolicited = true
}

// AnnounceARP broadcasts the interface's gratuitous ARP now and every
// period thereafter — the gateway habit that seeds every AutoARP
// station's cache in one frame instead of N request/reply exchanges.
func (d *PacketRadioIf) AnnounceARP(period time.Duration) *sim.Ticker {
	d.res.Announce()
	return d.sched.Every(period, d.res.Announce)
}

// SetPath configures the digipeater path used to reach a next-hop IP
// address — the "additional callsigns for digipeaters" the paper's
// ARP entries may carry.
func (d *PacketRadioIf) SetPath(nextHop ip.Addr, via ...ax25.Addr) {
	if len(via) == 0 {
		delete(d.paths, nextHop)
		return
	}
	d.paths[nextHop] = via
}

// IPQueueLen reports the IP input queue depth (E2's congestion probe).
func (d *PacketRadioIf) IPQueueLen() int { return d.ipq.Len() }

// --- Receive path -------------------------------------------------------

// interruptRun is the receive handler: one call per burst of serial
// bytes, replacing the per-character interrupt chain of §3 (the same
// host-side fix the paper made by pushing KISS framing down — the
// driver now handles frames' worth of bytes, not characters). The CPU
// cost model still charges per byte, so E2's load measurements are
// unchanged.
func (d *PacketRadioIf) interruptRun(p []byte) {
	d.DStats.BytesFed += uint64(len(p))
	if d.PerByteCPU > 0 {
		d.DStats.CPUBusy += time.Duration(len(p)) * d.PerByteCPU
	}
	d.dec.Write(p)
}

// tap hands every tap the KISS record cmd+payload, built once.
func (d *PacketRadioIf) tap(dir string, cmd byte, payload []byte) {
	if len(d.Taps) == 0 {
		return
	}
	rec := make([]byte, 0, 1+len(payload))
	rec = append(append(rec, cmd), payload...)
	for _, fn := range d.Taps {
		fn(dir, rec)
	}
}

// kissFrame fires when the decoder has assembled a complete frame.
func (d *PacketRadioIf) kissFrame(kf kiss.Frame) {
	d.DStats.KISSFrames++
	d.tap("rx", byte(kf.Command), kf.Payload)
	if kf.Command != kiss.CmdData {
		return // TNC-bound parameters never come from the TNC
	}
	f, err := ax25.Decode(kf.Payload)
	if err != nil {
		d.DStats.BadFrames++
		d.stats.Ierrors++
		return
	}
	d.stats.Ipackets++
	d.stats.Ibytes += uint64(len(kf.Payload))
	if d.Monitor != nil {
		d.Monitor("rx", f)
	}
	// Callsign check: ours or broadcast. Frames still in transit
	// through a digipeater path are not for us either.
	dst := f.LinkDst()
	if dst != d.MyCall && f.Dst != ax25.Broadcast && dst != ax25.Broadcast && f.Dst != ax25.Nodes {
		d.DStats.NotForUs++
		return
	}
	if f.NextDigi() >= 0 {
		// Addressed to us as a digipeater, not as an endpoint; the
		// kernel driver does not digipeat (user space may, via tty).
		d.DStats.NotForUs++
		return
	}
	switch {
	case f.Kind == ax25.KindUI && f.PID == ax25.PIDIP:
		// NOS-style auto-ARP: the AX.25 source of a received IP frame
		// IS a valid (IP src, link addr) mapping; gleaning it spares
		// the reverse path a blocking ARP exchange — on a polled
		// channel, a poll-cycle's worth of latency.
		if d.AutoARP && len(f.Info) >= ip.HeaderLen {
			d.res.Learn(ip.AddrFrom(f.Info[12], f.Info[13], f.Info[14], f.Info[15]), f.Src.HW())
		}
		if !d.ipq.Enqueue(append([]byte(nil), f.Info...)) {
			d.DStats.IPQDrops++
			d.stats.Iqdrops++
			if d.OnDrop != nil {
				d.OnDrop("ipq overflow", kf.Payload)
			}
			return
		}
		d.DStats.IPIn++
		d.scheduleIPIntr()
	case f.Kind == ax25.KindUI && f.PID == ax25.PIDARP:
		d.DStats.ARPIn++
		if p, err := arp.Unmarshal(f.Info); err == nil {
			d.res.Input(p)
		} else {
			d.DStats.BadFrames++
		}
	default:
		// "This approach to handling incoming packets allows other
		// layer three protocols to be handled in an interesting
		// manner": queue for user space.
		if !d.ttyq.Enqueue(f.Clone()) {
			d.DStats.TTYQDrops++
			return
		}
		d.DStats.TTYIn++
		if d.TTYHandler != nil {
			if g, ok := d.ttyq.Dequeue(); ok {
				d.TTYHandler(g)
			}
		}
	}
}

// TTYRead drains one frame from the tty queue when no TTYHandler is
// installed (polling user programs).
func (d *PacketRadioIf) TTYRead() (*ax25.Frame, bool) { return d.ttyq.Dequeue() }

// scheduleIPIntr models the software-interrupt IP input path with the
// optional CPU cost model.
func (d *PacketRadioIf) scheduleIPIntr() {
	if d.ipqBusy {
		return
	}
	d.ipqBusy = true
	delay := time.Duration(0)
	if d.PerPacketCPU > 0 {
		now := d.sched.Now()
		start := now
		if d.busyTill > start {
			start = d.busyTill
		}
		d.busyTill = start.Add(d.PerPacketCPU)
		d.DStats.CPUBusy += d.PerPacketCPU
		delay = d.busyTill.Sub(now)
	}
	d.sched.After(delay, d.ipIntr)
}

func (d *PacketRadioIf) ipIntr() {
	d.ipqBusy = false
	buf, ok := d.ipq.Dequeue()
	if !ok {
		return
	}
	d.stack.Input(buf, d.name)
	if d.ipq.Len() > 0 {
		d.scheduleIPIntr()
	}
}

// --- Transmit path ------------------------------------------------------

// Output implements netif.Interface: encapsulate an IP datagram in an
// AX.25 UI frame and ship it through the TNC. ARP resolution happens
// here, inside the driver.
func (d *PacketRadioIf) Output(pkt *ip.Packet, nextHop ip.Addr) error {
	if !d.up {
		d.stats.Oerrors++
		return &netif.ErrDown{If: d.name}
	}
	if nextHop.IsBroadcast() {
		buf, err := pkt.Marshal()
		if err != nil {
			d.stats.Oerrors++
			return err
		}
		d.sendUI(ax25.Broadcast, ax25.PIDIP, buf, nil)
		return nil
	}
	d.res.Enqueue(pkt, nextHop)
	return nil
}

// deliverIP is the ARP resolver's delivery callback.
func (d *PacketRadioIf) deliverIP(pkt *ip.Packet, dstHW []byte) {
	dst, err := ax25.HWToAddr(dstHW)
	if err != nil {
		d.stats.Oerrors++
		return
	}
	buf, err := pkt.Marshal()
	if err != nil {
		d.stats.Oerrors++
		return
	}
	d.sendUI(dst, ax25.PIDIP, buf, d.paths[pkt.Dst])
}

// sendARP is the resolver's transmit callback.
func (d *PacketRadioIf) sendARP(p *arp.Packet, dstHW []byte) {
	buf, err := p.Marshal()
	if err != nil {
		return
	}
	dst := ax25.Broadcast
	if dstHW != nil {
		if a, err := ax25.HWToAddr(dstHW); err == nil {
			dst = a
		}
	}
	d.sendUI(dst, ax25.PIDARP, buf, nil)
}

// SendFrame transmits an arbitrary pre-built AX.25 frame (the write
// side of the §2.4 tty interface; the application gateway and NET/ROM
// use it).
func (d *PacketRadioIf) SendFrame(f *ax25.Frame) error {
	enc, err := f.Encode(nil)
	if err != nil {
		return err
	}
	if d.Monitor != nil {
		d.Monitor("tx", f)
	}
	return d.writeKISS(enc)
}

func (d *PacketRadioIf) sendUI(dst ax25.Addr, pid uint8, info []byte, via []ax25.Addr) {
	f := ax25.NewUI(dst, d.MyCall, pid, info)
	if len(via) > 0 {
		f = f.Via(via...)
	}
	if d.Monitor != nil {
		d.Monitor("tx", f)
	}
	enc, err := f.Encode(nil)
	if err != nil {
		d.stats.Oerrors++
		return
	}
	if err := d.writeKISS(enc); err != nil {
		d.stats.Oerrors++
	}
}

func (d *PacketRadioIf) writeKISS(frame []byte) error {
	enc := kiss.Encode(nil, 0, frame)
	if d.ser.QueueLen()+len(enc) > d.OutQueueBytes {
		d.DStats.OutDrops++
		d.stats.Oerrors++
		if d.OnDrop != nil {
			d.OnDrop("serial queue overflow", frame)
		}
		return nil // dropped, as IF_DROP does: not an error to the caller
	}
	d.tap("tx", 0, frame) // KISS data command
	d.stats.Opackets++
	d.stats.Obytes += uint64(len(frame))
	_, err := d.ser.Write(enc)
	return err
}

// SetTNCParams pushes KISS parameter commands down the line.
func (d *PacketRadioIf) SetTNCParams(p kiss.Params) {
	d.ser.Write(kiss.EncodeCommand(nil, 0, kiss.CmdTXDelay, []byte{p.TXDelay}))
	d.ser.Write(kiss.EncodeCommand(nil, 0, kiss.CmdPersist, []byte{p.Persist}))
	d.ser.Write(kiss.EncodeCommand(nil, 0, kiss.CmdSlotTime, []byte{p.SlotTime}))
}
