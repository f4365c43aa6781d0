// Large-world generation: the parameterized N-station, M-channel
// topology behind the ROADMAP's "scale the simulator itself" item.
// Where NewSeattle reproduces the paper's one-channel deployment,
// NewLarge builds the regional network the authors were growing
// toward: several 1200 bps channels, each behind its own MicroVAX
// gateway on a shared department Ethernet, with an Internet host that
// every radio station can reach through its gateway. E14 uses it to
// measure simulated-seconds-per-wall-second as N scales; every future
// scale scenario starts here.

package world

import (
	"fmt"
	"runtime"
	"time"

	"packetradio/internal/ether"
	"packetradio/internal/ip"
	"packetradio/internal/radio"
	"packetradio/internal/rdm"
	"packetradio/internal/sim"
	"packetradio/internal/socket"
	"packetradio/internal/tnc"
)

// TransportMode selects what the background probe traffic rides on.
// ICMP is the default (and what every event gate pins); TCP and RDM
// run the same probe schedule over real transports, so the scale mode
// can compare delivery ratio and latency across the three on the same
// channel.
type TransportMode int

const (
	TransportICMP TransportMode = iota // one-shot echo request/reply
	TransportTCP                       // one persistent stream per station, 32-byte echoes
	TransportRDM                       // Reliable SOCK_RDM messages, echoed per message
)

func (m TransportMode) String() string {
	switch m {
	case TransportTCP:
		return "tcp"
	case TransportRDM:
		return "rdm"
	}
	return "icmp"
}

// ParseTransportMode parses a -transport flag value.
func ParseTransportMode(s string) (TransportMode, error) {
	switch s {
	case "", "icmp":
		return TransportICMP, nil
	case "tcp":
		return TransportTCP, nil
	case "rdm":
		return TransportRDM, nil
	}
	return TransportICMP, fmt.Errorf("unknown transport %q (want icmp, tcp or rdm)", s)
}

// LargeConfig parameterizes NewLarge.
type LargeConfig struct {
	Seed     int64
	Stations int // total radio stations (default 10)

	// Channels is the number of radio channels; stations are spread
	// round-robin across them, each channel behind its own gateway.
	// Default: one channel per 25 stations (the practical ceiling for
	// shared 1200 bps CSMA), minimum one.
	Channels int

	BitRate int // per-channel signalling rate (default 1200)
	Baud    int // RS-232 speed per station (default 9600)

	// Promiscuous runs every TNC in promiscuous mode — the §3
	// pathology E2 measures. Off by default: scale worlds use the
	// paper's proposed address filter, or every station's serial line
	// carries every frame on its channel.
	Promiscuous bool

	// PingInterval, when nonzero, starts background traffic: each
	// station pings the Internet host on this period, with start times
	// spread across the interval so the channels do not synchronize.
	PingInterval time.Duration

	// MAC selects the channel-access policy for every station and
	// gateway (default CSMA). E16 compares the two on one saturated
	// channel.
	MAC MACMode

	// Transport selects what the PingInterval probes ride on: ICMP
	// echoes (default), one persistent TCP stream per station, or
	// Reliable SOCK_RDM messages. Every mode fills Sent / Replies /
	// RTTs the same way, so DeliveryRatio and latency metrics read
	// identically; what differs is the protocol machinery under them.
	Transport TransportMode

	// Workers selects the engine. 0 (the default) is the single-loop
	// engine: one scheduler, the reference for every event gate. Any
	// positive value builds the world on the sharded engine (one shard
	// per channel plus an Ethernet backbone shard, DESIGN.md §3g) with
	// up to Workers window executors — capped at GOMAXPROCS, since
	// extra goroutines on a saturated machine only add scheduling
	// overhead and the conservative protocol makes results identical at
	// every worker count anyway. Tests can force more via
	// W.Shards().SetWorkers.
	Workers int

	// NoAutoARP disables the NOS-style ARP conveniences on the radio
	// ports — gleaning mappings from received IP frames, accepting
	// unsolicited announcements, and each gateway's periodic
	// gratuitous announce. Scale worlds run with auto-ARP ON by
	// default (a blocking RFC 826 exchange per station dominates cold
	// start on a shared channel, and on a polled one costs a whole
	// poll cycle); set NoAutoARP to measure the strict RFC 826
	// traffic mix the paper's Seattle deployment spoke.
	NoAutoARP bool
}

func (cfg LargeConfig) withDefaults() LargeConfig {
	if cfg.Stations <= 0 {
		cfg.Stations = 10
	}
	if cfg.Channels <= 0 {
		cfg.Channels = (cfg.Stations + 24) / 25
	}
	if cfg.Channels > 200 {
		cfg.Channels = 200
	}
	return cfg
}

// Large is the generated world.
type Large struct {
	W   *World
	Cfg LargeConfig

	Ether    *ether.Segment
	Internet *Host // 128.95.1.2, the host every station's traffic crosses to
	Gateways []*Host
	Channels []*radio.Channel
	Stations []*Host

	// Replies counts ping replies received per station when
	// PingInterval traffic is running; Sent counts requests. RTTs
	// collects every reply's round-trip time, so experiments can report
	// latency distributions (E16's median) without re-instrumenting the
	// traffic loop. The probers accumulate into per-channel slots and
	// these fields are rebuilt after every W.Run, merged in
	// deterministic (virtual-time, channel) order. Both engines use the
	// same slot layout and the same merge, so for a given seed the
	// series is bit-identical — order included — at every worker count.
	Sent, Replies uint64
	RTTs          []time.Duration

	// slots holds per-channel probe accumulators: index 1+c for channel
	// c (index 0, the Ethernet backbone, originates no probes). On the
	// sharded engine each slot is touched only by its own shard's
	// events.
	slots []probeSlot

	// probers holds one probe func per station, built by ArmProbers:
	// calling probers[i] fires one probe from station i on the
	// configured transport. See Probe.
	probers []func()
}

// probeSlot is one shard's probe accounting. Only events running in
// that shard touch it, so the sharded engine needs no locks here.
type probeSlot struct {
	sent, replies uint64
	rtts          []rttSample
}

type rttSample struct {
	at  sim.Time
	rtt time.Duration
}

// slot returns station i's accumulator.
func (lw *Large) slot(i int) *probeSlot {
	return &lw.slots[1+i%lw.Cfg.Channels]
}

// mergeProbes rebuilds the public Sent/Replies/RTTs fields from the
// slots: samples merged by (virtual time, channel), ties within a
// channel keeping arrival order (sim.MergeLanes; each slot is appended
// by one scheduler, so it is in time order). Both engines run the
// identical merge over identically-filled slots, which is what makes
// the series equal across engines even when two channels' replies
// land at the same virtual instant (the engines execute those events
// in different global orders, but the merge key does not care).
func (lw *Large) mergeProbes() {
	lw.Sent, lw.Replies = 0, 0
	for i := range lw.slots {
		lw.Sent += lw.slots[i].sent
		lw.Replies += lw.slots[i].replies
	}
	lw.RTTs = lw.RTTs[:0]
	sim.MergeLanes(lw.slots, func(s probeSlot) []rttSample { return s.rtts },
		func(s *rttSample) sim.Time { return s.at },
		func(_ int, s *rttSample) { lw.RTTs = append(lw.RTTs, s.rtt) })
}

// LargeInternetIP is the Ethernet host of the generated world.
var LargeInternetIP = ip.MustAddr("128.95.1.2")

// LargeGatewayRadioIP returns the radio-side address of channel c's
// gateway: 44.(c+1).0.1, one class-B AMPRnet subnet per channel.
func LargeGatewayRadioIP(c int) ip.Addr { return ip.AddrFrom(44, byte(c+1), 0, 1) }

// LargeGatewayEtherIP returns the Ethernet-side address of channel c's
// gateway.
func LargeGatewayEtherIP(c int) ip.Addr { return ip.AddrFrom(128, 95, 2, byte(c+1)) }

// LargeStationIP returns the address of station i under cfg's channel
// assignment (round-robin): station i sits on channel i%M.
func (cfg LargeConfig) LargeStationIP(i int) ip.Addr {
	cfg = cfg.withDefaults()
	c := i % cfg.Channels
	k := i / cfg.Channels // index within the channel
	return ip.AddrFrom(44, byte(c+1), byte(k/200), byte(10+k%200))
}

// NewLarge generates the world. With Cfg.Workers > 0 it builds on the
// sharded engine: the identical construction code runs with W.Sched
// pointed at each component's home shard in turn, so the shared
// derived-seed stream is consumed in exactly the order the single-loop
// build consumes it — every transceiver's CSMA/noise RNG and every
// serial line's corruption seed come out identical, which is why the
// two engines deliver the same traffic (the shard equivalence tests
// and the event gate hold them to it).
func NewLarge(cfg LargeConfig) *Large {
	cfg = cfg.withDefaults()
	var w *World
	var shards []*sim.Shard
	if cfg.Workers > 0 {
		w, shards = newSharded(cfg.Seed, cfg.Channels)
		workers := cfg.Workers
		if procs := runtime.GOMAXPROCS(0); workers > procs {
			workers = procs
		}
		w.group.SetWorkers(workers)
	} else {
		w = New(cfg.Seed)
	}
	// enter moves construction onto shard i (0 = backbone, 1+c for
	// channel c); a no-op on the single-loop engine.
	enter := func(i int) {
		if shards != nil {
			w.Sched = shards[i].Sched
		}
	}
	lw := &Large{W: w, Cfg: cfg}
	lw.Ether = w.Ethernet("uw-cs")
	if shards != nil {
		lw.Ether.EnableSharding(w.group)
	}
	filter := tnc.AddressFilter
	if cfg.Promiscuous {
		filter = tnc.Promiscuous
	}

	// One gateway per channel, all on the shared Ethernet. The gateway
	// host lives whole in its channel's shard — its Ethernet NIC is the
	// shard's seam endpoint.
	for c := 0; c < cfg.Channels; c++ {
		enter(1 + c)
		ch := w.Channel(fmt.Sprintf("145.%02d", c+1), cfg.BitRate)
		lw.Channels = append(lw.Channels, ch)
		gw := w.Host(fmt.Sprintf("gw%d", c+1))
		gw.AttachEther(lw.Ether, "qe0", LargeGatewayEtherIP(c), ip.MaskClassB)
		port := gw.AttachRadio(ch, "pr0", fmt.Sprintf("GW%d", c+1), LargeGatewayRadioIP(c), ip.MaskClassB,
			RadioConfig{Baud: cfg.Baud, Filter: filter, MAC: cfg.MAC})
		if !cfg.NoAutoARP {
			port.Driver.EnableAutoARP()
			port.Driver.AnnounceARP(5 * time.Minute)
		}
		gw.MakeGateway("pr0", "qe0", false)
		lw.Gateways = append(lw.Gateways, gw)
	}
	enter(0)
	// Gateways reach the other channels' subnets across the Ethernet.
	for c, gw := range lw.Gateways {
		for c2 := range lw.Gateways {
			if c2 != c {
				gw.Stack.Routes.AddNet(ip.AddrFrom(44, byte(c2+1), 0, 0), ip.MaskClassB,
					LargeGatewayEtherIP(c2), "qe0")
			}
		}
	}

	// The Internet host, with one route per regional subnet — the
	// per-region routing E4 shows the 1988 Internet could not do.
	inet := w.Host("inet")
	inet.AttachEther(lw.Ether, "qe0", LargeInternetIP, ip.MaskClassB)
	for c := range lw.Gateways {
		inet.Stack.Routes.AddNet(ip.AddrFrom(44, byte(c+1), 0, 0), ip.MaskClassB,
			LargeGatewayEtherIP(c), "qe0")
	}
	lw.Internet = inet

	// Stations, round-robin across channels, defaulting to their
	// channel's gateway.
	for i := 0; i < cfg.Stations; i++ {
		c := i % cfg.Channels
		enter(1 + c)
		st := w.Host(fmt.Sprintf("st%d", i))
		port := st.AttachRadio(lw.Channels[c], "pr0", fmt.Sprintf("S%d", i), cfg.LargeStationIP(i), ip.MaskClassB,
			RadioConfig{Baud: cfg.Baud, Filter: filter, MAC: cfg.MAC})
		if !cfg.NoAutoARP {
			port.Driver.EnableAutoARP()
		}
		st.Stack.Routes.AddDefault(LargeGatewayRadioIP(c), "pr0")
		lw.Stations = append(lw.Stations, st)
	}
	enter(0)

	lw.slots = make([]probeSlot, 1+cfg.Channels)
	w.OnRunEnd(lw.mergeProbes)
	if cfg.PingInterval > 0 {
		lw.startTraffic()
	}
	return lw
}

// startTraffic arms the background probe load on whichever transport
// the config selects. Each mode sends one probe per station per
// PingInterval, phase-shifted so the load is spread evenly, and fills
// Sent / Replies / RTTs.
func (lw *Large) startTraffic() {
	lw.ArmProbers()
	n := len(lw.Stations)
	for i := range lw.Stations {
		probe := lw.probers[i]
		sched := lw.Stations[i].Sched() // the station's shard on the sharded engine
		phase := time.Duration(int64(lw.Cfg.PingInterval) * int64(i) / int64(n))
		sched.After(phase, func() {
			probe()
			sched.Every(lw.Cfg.PingInterval, probe)
		})
	}
}

// ArmProbers builds the per-station probe machinery for the configured
// transport — the ICMP echo contexts, or the transport listeners and
// per-station prober state for TCP/RDM — without scheduling any
// traffic. NewLarge calls it on the way to arming PingInterval
// traffic; the scenario layer (internal/scenario) calls it directly
// and then drives Probe on its own schedule (diurnal curves, flash
// crowds). Idempotent; schedules no events itself.
func (lw *Large) ArmProbers() {
	if lw.probers != nil {
		return
	}
	lw.probers = make([]func(), len(lw.Stations))
	switch lw.Cfg.Transport {
	case TransportTCP:
		lw.armTCPProbers()
	case TransportRDM:
		lw.armRDMProbers()
	default:
		lw.armPingProbers()
	}
}

// Probe fires one probe from station i to the Internet host on the
// configured transport, accounting it in Sent / Replies / RTTs like
// the PingInterval traffic. On the sharded engine it must be called
// from an event running on station i's scheduler
// (Stations[i].Sched()), which is also what keeps results identical
// across engines. ArmProbers (or PingInterval traffic) must have run
// first.
func (lw *Large) Probe(i int) {
	if lw.probers == nil {
		panic("world: Large.Probe before ArmProbers")
	}
	lw.probers[i]()
}

// armPingProbers is the ICMP mode. Each station keeps one persistent
// echo context (PingOpen + PingSeq follow-ups) rather than a one-shot
// Ping per probe: scale worlds lose plenty of probes to CSMA, and
// one-shot contexts whose replies never arrive would leak ids without
// bound, while a persistent context's per-seq state self-bounds at the
// 16-bit sequence space. The context opens lazily inside the first
// probe, so it is created on the station's own shard.
func (lw *Large) armPingProbers() {
	for i, st := range lw.Stations {
		p := &icmpProber{slot: lw.slot(i), sched: st.Sched(), st: st}
		lw.probers[i] = p.send
	}
}

// icmpProber keeps one station's persistent echo context.
type icmpProber struct {
	slot   *probeSlot
	sched  *sim.Scheduler // the station's shard
	st     *Host
	opened bool
	id     uint16
	seq    uint16
}

func (p *icmpProber) send() {
	p.slot.sent++
	if !p.opened {
		p.opened = true
		p.id, _ = p.st.Stack.PingOpen(LargeInternetIP, 32, func(_ uint16, rtt time.Duration, _ ip.Addr) {
			p.slot.replies++
			p.slot.rtts = append(p.slot.rtts, rttSample{at: p.sched.Now(), rtt: rtt})
		})
		return
	}
	p.seq++
	p.st.Stack.PingSeq(LargeInternetIP, p.id, p.seq, 32)
}

// DeliveryRatio reports replies/sent for the background traffic.
func (lw *Large) DeliveryRatio() float64 {
	if lw.Sent == 0 {
		return 0
	}
	return float64(lw.Replies) / float64(lw.Sent)
}

// probePort and probeBytes shape the non-ICMP probe traffic: 32-byte
// probes to the Internet host's echo service, matching the ICMP mode's
// 32-byte pings so the channel load is comparable across transports.
const (
	probePort  = 7 // the echo service, as ever
	probeBytes = 32
)

// armTCPProbers builds the probe machinery for one persistent
// SOCK_STREAM per station: a probe is a 32-byte write, its round trip
// completes when 32 echoed bytes return. TCP's own retransmission
// means probes are rarely *lost* — they are late, and a backlogged
// stream shows up as a sagging delivery ratio at the horizon plus a
// growing RTT tail, which is exactly how an interactive session on a
// saturated channel feels.
func (lw *Large) armTCPProbers() {
	inetSL := lw.Internet.Sockets()
	ln, err := inetSL.Listen(probePort, len(lw.Stations))
	if err != nil {
		panic(err)
	}
	socket.AcceptLoop(ln, func(s *socket.Socket) {
		w := socket.NewWriter(s)
		socket.Pump(s, func(p []byte) { w.Write(append([]byte(nil), p...)) }, nil)
	})
	for i, st := range lw.Stations {
		p := &tcpProber{slot: lw.slot(i), sched: st.Sched(), sl: st.Sockets()}
		lw.probers[i] = p.send
	}
}

// armRDMProbers builds the probe machinery for SOCK_RDM: one Reliable
// (unordered) message per probe, seq-stamped in the payload, echoed
// message-for-message by the Internet host. Like TCP the transport
// retransmits, so losses surface as latency; unlike TCP one late
// probe never holds up the ones behind it.
func (lw *Large) armRDMProbers() {
	inetSL := lw.Internet.Sockets()
	// The Internet host has no radio port, so its socket layer defaults
	// to the fast-link RDM profile — but its echo replies cross the
	// radio channel all the same, and a 1 s RTO floor would retransmit
	// into every multi-second radio RTT.
	inetSL.RDMDefaults = rdm.RadioProfile()
	ln, err := inetSL.ListenRDM(probePort)
	if err != nil {
		panic(err)
	}
	socket.AcceptLoopRDM(ln, func(s *socket.Socket) {
		drain := func() {
			for {
				d, err := s.RecvMsg()
				if err != nil {
					return
				}
				s.SendMsg(d.Mode, d.Data)
			}
		}
		s.OnReadable = drain
		drain()
	})
	for i, st := range lw.Stations {
		p := &rdmProber{slot: lw.slot(i), sched: st.Sched(), sl: st.Sockets()}
		lw.probers[i] = p.send
	}
}

// tcpProber keeps one station's persistent echo stream. Outstanding
// probes queue FIFO; a dead stream forfeits them (they stay counted as
// sent) and redials before the next probe.
type tcpProber struct {
	slot  *probeSlot
	sched *sim.Scheduler // the station's shard
	sl    *socket.Layer
	sock  *socket.Socket
	wr    *socket.Writer
	sent  []sim.Time // send time per outstanding probe, FIFO
	got   int        // echoed bytes toward the next completion
	dead  bool
}

func (p *tcpProber) redial() {
	p.dead = false
	p.sent = nil
	p.got = 0
	p.sock = p.sl.Dial(LargeInternetIP, probePort)
	p.wr = socket.NewWriter(p.sock)
	socket.Pump(p.sock, p.recv, func(error) { p.dead = true })
}

func (p *tcpProber) recv(b []byte) {
	p.got += len(b)
	for p.got >= probeBytes && len(p.sent) > 0 {
		p.got -= probeBytes
		now := p.sched.Now()
		p.slot.replies++
		p.slot.rtts = append(p.slot.rtts, rttSample{at: now, rtt: now.Sub(p.sent[0])})
		p.sent = p.sent[1:]
	}
}

func (p *tcpProber) send() {
	if p.sock == nil || p.dead {
		p.redial()
	}
	p.slot.sent++
	p.sent = append(p.sent, p.sched.Now())
	p.wr.Write(make([]byte, probeBytes))
}

// rdmProber sends one station's probes as Reliable messages and
// matches echoes back to send times by the seq stamped into the
// payload's first two bytes.
type rdmProber struct {
	slot  *probeSlot
	sched *sim.Scheduler // the station's shard
	sl    *socket.Layer
	sock  *socket.Socket
	seq   uint16
	sent  map[uint16]sim.Time
}

func (p *rdmProber) redial() {
	if p.sock != nil {
		p.sock.Close()
	}
	p.sent = map[uint16]sim.Time{}
	s, err := p.sl.DialRDM(LargeInternetIP, probePort)
	if err != nil {
		panic(err)
	}
	p.sock = s
	s.OnReadable = p.drain
}

func (p *rdmProber) drain() {
	for {
		d, err := p.sock.RecvMsg()
		if err != nil {
			return
		}
		if len(d.Data) < 2 {
			continue
		}
		seq := uint16(d.Data[0])<<8 | uint16(d.Data[1])
		at, ok := p.sent[seq]
		if !ok {
			continue
		}
		delete(p.sent, seq)
		now := p.sched.Now()
		p.slot.replies++
		p.slot.rtts = append(p.slot.rtts, rttSample{at: now, rtt: now.Sub(at)})
	}
}

func (p *rdmProber) send() {
	if p.sock == nil || p.sock.Err() != nil || p.sock.Closed() {
		p.redial()
	}
	p.slot.sent++
	p.seq++
	buf := make([]byte, probeBytes)
	buf[0], buf[1] = byte(p.seq>>8), byte(p.seq)
	if _, err := p.sock.SendMsg(rdm.Reliable, buf); err != nil {
		// The probe is lost either way; a full window (ErrWouldBlock)
		// clears on its own, anything else is a dead connection that
		// redials before the next probe.
		if err != socket.ErrWouldBlock {
			p.sock.Close()
			p.sock = nil
		}
		return
	}
	p.sent[p.seq] = p.sched.Now()
}
