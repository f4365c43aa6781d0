// Package ipstack is the miniature 4.3BSD/Ultrix IP engine the paper's
// driver hands packets to ("the driver then adds the encapsulated IP
// packet to the queue of incoming IP packets so that it can be dealt
// with by the existing Ultrix software"): input validation, local
// delivery with reassembly, transport demultiplexing, ICMP, and — when
// Forwarding is enabled, as on the paper's MicroVAX gateway —
// forwarding with TTL handling, fragmentation to the outgoing MTU,
// redirects, and a pluggable forwarding filter used by the §4.3 access
// control table.
package ipstack

import (
	"errors"
	"fmt"
	"time"

	"packetradio/internal/icmp"
	"packetradio/internal/ip"
	"packetradio/internal/netif"
	"packetradio/internal/route"
	"packetradio/internal/sim"
)

// Handler processes a transport-layer segment: the full datagram is
// passed so the transport can see addresses for its pseudo-header.
type Handler func(pkt *ip.Packet, ifName string)

// FilterVerdict is a forwarding filter's decision.
type FilterVerdict int

const (
	VerdictAccept FilterVerdict = iota
	VerdictDrop                 // drop silently
	VerdictReject               // drop and return ICMP admin-prohibited
)

// Filter inspects a packet being forwarded from inIf to outIf.
type Filter func(pkt *ip.Packet, inIf, outIf string) FilterVerdict

// Stats counts stack-level events (a slice of ipstat).
type Stats struct {
	Received     uint64
	BadPackets   uint64
	Delivered    uint64
	Forwarded    uint64
	TTLDrops     uint64
	NoRoute      uint64
	FilterDrops  uint64
	OutRequests  uint64
	FragsOut     uint64
	Reassembled  uint64
	RedirectsOut uint64
	RedirectsIn  uint64
	NoProto      uint64
	EchoReplies  uint64
	ICMPIn       uint64
	ICMPOut      uint64
	FragDrops    uint64 // datagrams unfragmentable for the output MTU
}

type ifEntry struct {
	ifc  netif.Interface
	addr ip.Addr
	mask ip.Mask
}

// Stack is one host's (or gateway's) IP layer.
type Stack struct {
	Hostname string
	Sched    *sim.Scheduler

	// Forwarding enables gatewaying between interfaces (ipforwarding).
	Forwarding bool

	// Routes is the kernel routing table.
	Routes *route.Table

	// Filter, when non-nil, screens every forwarded packet (the §4.3
	// access-control hook).
	Filter Filter

	// ICMPHook, when non-nil, sees every locally delivered ICMP
	// message before standard processing; returning true consumes it.
	// The gateway authorization messages are handled here.
	ICMPHook func(pkt *ip.Packet, m *icmp.Message, ifName string) bool

	// AcceptRedirects lets ICMP redirects install host routes — the
	// mechanism §4.2 suggests for steering traffic to regional
	// gateways ("It is conceivable that something like this could be
	// handled using [ICMP]"). Hosts of the era accepted them; off by
	// default here so tests opt in explicitly.
	AcceptRedirects bool

	// Taps observe every packet at input, output and forward time
	// ("in", "out", "fwd"), in order; attach by appending.
	Taps []func(dir string, pkt *ip.Packet, ifName string)

	Stats Stats

	ifs         map[string]*ifEntry
	order       []string
	protos      map[uint8]Handler
	protoOwners map[uint8]any
	protoErrs   map[uint8]func(dst ip.Addr, m *icmp.Message)
	reass       *ip.Reassembler
	reassTick   *sim.Event
	lastID      map[ip.Addr]uint16 // per destination: see allocID

	pings map[uint16]*pingCtx
}

// New builds a stack.
func New(sched *sim.Scheduler, hostname string) *Stack {
	return &Stack{
		Hostname:    hostname,
		Sched:       sched,
		Routes:      route.New(),
		ifs:         make(map[string]*ifEntry),
		protos:      make(map[uint8]Handler),
		protoOwners: make(map[uint8]any),
		protoErrs:   make(map[uint8]func(ip.Addr, *icmp.Message)),
		reass:       ip.NewReassembler(),
		pings:       make(map[uint16]*pingCtx),
		lastID:      make(map[ip.Addr]uint16),
	}
}

// AddInterface attaches a configured interface and installs the
// connected-network route.
func (s *Stack) AddInterface(ifc netif.Interface, addr ip.Addr, mask ip.Mask) {
	if mask == (ip.Mask{}) {
		mask = ip.ClassMask(addr)
	}
	s.ifs[ifc.Name()] = &ifEntry{ifc: ifc, addr: addr, mask: mask}
	s.order = append(s.order, ifc.Name())
	s.Routes.AddNet(addr, mask, ip.Addr{}, ifc.Name())
}

// Interface returns a registered interface by name.
func (s *Stack) Interface(name string) (netif.Interface, bool) {
	e, ok := s.ifs[name]
	if !ok {
		return nil, false
	}
	return e.ifc, true
}

// IfAddr reports the address of the named interface.
func (s *Stack) IfAddr(name string) (ip.Addr, ip.Mask, bool) {
	e, ok := s.ifs[name]
	if !ok {
		return ip.Addr{}, ip.Mask{}, false
	}
	return e.addr, e.mask, true
}

// IfNames lists the registered interfaces in attachment order —
// daemons that send per-interface traffic (RSPF hellos) iterate this
// so their behaviour is deterministic.
func (s *Stack) IfNames() []string {
	return append([]string(nil), s.order...)
}

// Addr returns the stack's primary address (first interface).
func (s *Stack) Addr() ip.Addr {
	if len(s.order) == 0 {
		return ip.Addr{}
	}
	return s.ifs[s.order[0]].addr
}

// RegisterProto installs the transport handler for an IP protocol.
func (s *Stack) RegisterProto(proto uint8, h Handler) { s.RegisterProtoOwned(proto, h, nil) }

// RegisterProtoOwned installs a transport handler tagged with an
// owner token, so UnregisterProtoOwned can release the slot only if
// it still belongs to that owner (raw sockets use themselves as the
// token; a later transport claiming the protocol must not be torn
// down by a stale close).
func (s *Stack) RegisterProtoOwned(proto uint8, h Handler, owner any) {
	s.protos[proto] = h
	s.protoOwners[proto] = owner
}

// HasProto reports whether a transport handler is registered for the
// protocol — the socket layer's duplicate-raw-bind check.
func (s *Stack) HasProto(proto uint8) bool { _, ok := s.protos[proto]; return ok }

// UnregisterProtoOwned removes the protocol's handler if (and only
// if) owner still holds the slot.
func (s *Stack) UnregisterProtoOwned(proto uint8, owner any) {
	if s.protoOwners[proto] != owner {
		return
	}
	delete(s.protos, proto)
	delete(s.protoOwners, proto)
}

// RegisterProtoError installs a handler for ICMP errors quoting a
// datagram of the given protocol (how TCP learns of unreachables).
func (s *Stack) RegisterProtoError(proto uint8, h func(dst ip.Addr, m *icmp.Message)) {
	s.protoErrs[proto] = h
}

// isLocal reports whether dst is one of our addresses or a broadcast
// we should accept.
func (s *Stack) isLocal(dst ip.Addr) bool {
	if dst.IsBroadcast() || dst == ip.Loopback {
		return true
	}
	for _, e := range s.ifs {
		if dst == e.addr {
			return true
		}
		// Directed broadcast for a connected net.
		bcast := e.addr
		for i := range bcast {
			bcast[i] |= ^e.mask[i]
		}
		if dst == bcast {
			return true
		}
	}
	return false
}

func (s *Stack) tap(dir string, pkt *ip.Packet, ifName string) {
	for _, fn := range s.Taps {
		fn(dir, pkt, ifName)
	}
}

// Input is the driver entry point: a validated-length raw datagram
// received on ifName. Equivalent to ipintr picking packets off the IP
// input queue.
func (s *Stack) Input(buf []byte, ifName string) {
	s.Stats.Received++
	pkt, err := ip.Unmarshal(buf)
	if err != nil {
		s.Stats.BadPackets++
		return
	}
	s.tap("in", pkt, ifName)
	if s.isLocal(pkt.Dst) {
		s.deliver(pkt, ifName)
		return
	}
	if !s.Forwarding {
		// Hosts silently discard transit traffic.
		return
	}
	s.forward(pkt, ifName)
}

func (s *Stack) deliver(pkt *ip.Packet, ifName string) {
	// Reassemble fragments first.
	if pkt.MF || pkt.FragOff > 0 {
		s.scheduleReassemblyExpiry()
		pkt = s.reass.Add(pkt.Clone(), s.Sched.Now().Duration())
		if pkt == nil {
			return
		}
		s.Stats.Reassembled++
	}
	s.Stats.Delivered++
	if pkt.Proto == ip.ProtoICMP {
		s.icmpInput(pkt, ifName)
		return
	}
	if h, ok := s.protos[pkt.Proto]; ok {
		h(pkt, ifName)
		return
	}
	s.Stats.NoProto++
	s.sendICMPError(icmp.TypeDestUnreachable, icmp.CodeProtoUnreachable, pkt)
}

func (s *Stack) scheduleReassemblyExpiry() {
	if s.reassTick != nil && !s.reassTick.Cancelled() {
		return
	}
	s.reassTick = s.Sched.After(s.reass.Timeout, func() {
		// Clear the handle unconditionally: the scheduler recycles
		// fired events, so holding the stale pointer would alias
		// whatever timer reuses it and block rescheduling forever.
		s.reassTick = nil
		s.reass.Expire(s.Sched.Now().Duration())
		if s.reass.PendingCount() > 0 {
			s.scheduleReassemblyExpiry()
		}
	})
}

func (s *Stack) forward(pkt *ip.Packet, inIf string) {
	if pkt.TTL <= 1 {
		s.Stats.TTLDrops++
		s.sendICMPError(icmp.TypeTimeExceeded, icmp.CodeTTLExceeded, pkt)
		return
	}
	ent, err := s.Routes.Lookup(pkt.Dst)
	if err != nil {
		s.Stats.NoRoute++
		s.sendICMPError(icmp.TypeDestUnreachable, icmp.CodeNetUnreachable, pkt)
		return
	}
	if s.Filter != nil {
		switch s.Filter(pkt, inIf, ent.IfName) {
		case VerdictDrop:
			s.Stats.FilterDrops++
			return
		case VerdictReject:
			s.Stats.FilterDrops++
			s.sendICMPError(icmp.TypeDestUnreachable, icmp.CodeAdminProhibited, pkt)
			return
		}
	}
	fwd := pkt.Clone()
	fwd.TTL--
	// 4.3BSD ip_forward sends a redirect when the packet leaves by the
	// interface it arrived on and the source is on that network — the
	// mechanism §4.2 suggests could steer regional gateway selection.
	if ent.IfName == inIf {
		if e, ok := s.ifs[inIf]; ok && ip.SameNet(pkt.Src, e.addr, e.mask) && !ent.Gateway.IsZero() {
			s.Stats.RedirectsOut++
			m := icmp.NewError(icmp.TypeRedirect, 1, pkt) // host redirect
			m.Gateway = ent.Gateway
			s.sendICMP(pkt.Src, m)
		}
	}
	s.transmit(fwd, ent, "fwd", inIf)
	s.Stats.Forwarded++
}

// transmit routes are resolved; fragment and hand to the driver.
func (s *Stack) transmit(pkt *ip.Packet, ent *route.Entry, dir, ifName string) {
	e, ok := s.ifs[ent.IfName]
	if !ok {
		s.Stats.NoRoute++
		return
	}
	nextHop := pkt.Dst
	if ent.Flags&route.FlagGateway != 0 {
		nextHop = ent.Gateway
	}
	frags, err := ip.Fragment(pkt, e.ifc.MTU())
	if err != nil {
		s.Stats.FragDrops++
		if errors.Is(err, ip.ErrFragmentDF) {
			s.sendICMPError(icmp.TypeDestUnreachable, icmp.CodeFragNeeded, pkt)
		}
		return
	}
	if len(frags) > 1 {
		s.Stats.FragsOut += uint64(len(frags))
	}
	for _, f := range frags {
		s.tap(dir, f, e.ifc.Name())
		if err := e.ifc.Output(f, nextHop); err != nil {
			e.ifc.Stats().Oerrors++
		}
	}
}

// Send originates a datagram from this host. A zero src selects the
// outgoing interface's address. Local destinations loop back without
// touching a driver.
func (s *Stack) Send(proto uint8, src, dst ip.Addr, payload []byte, ttl uint8, tos uint8) error {
	s.Stats.OutRequests++
	if ttl == 0 {
		ttl = ip.DefaultTTL
	}
	pkt := &ip.Packet{
		Header: ip.Header{
			TOS: tos, ID: s.allocID(dst), TTL: ttl, Proto: proto, Src: src, Dst: dst,
		},
		Payload: payload,
	}
	if dst.IsBroadcast() {
		// Limited broadcast goes out every interface, never forwarded.
		for _, name := range s.order {
			e := s.ifs[name]
			out := pkt.Clone()
			if out.Src.IsZero() {
				out.Src = e.addr
			}
			s.tap("out", out, name)
			if err := e.ifc.Output(out, dst); err != nil {
				e.ifc.Stats().Oerrors++
			}
		}
		return nil
	}
	if s.isLocal(dst) {
		if pkt.Src.IsZero() {
			pkt.Src = s.Addr()
		}
		// Loop back through the input path asynchronously, as if it
		// had traversed the software loopback interface.
		buf, err := pkt.Marshal()
		if err != nil {
			return err
		}
		s.Sched.At(s.Sched.Now(), func() { s.Input(buf, "lo0") })
		return nil
	}
	ent, err := s.Routes.Lookup(dst)
	if err != nil {
		return err
	}
	if pkt.Src.IsZero() {
		if e, ok := s.ifs[ent.IfName]; ok {
			pkt.Src = e.addr
		}
	}
	s.transmit(pkt, ent, "out", "")
	return nil
}

// SendVia is the raw-protocol hook: it originates a datagram out the
// named interface without consulting the routing table. dst must be
// on-link (or the limited broadcast) because it is handed to the
// driver as the next hop directly. Routing daemons use this to emit
// per-interface hellos and link-state floods before any routes exist —
// the chicken-and-egg a routed protocol cannot solve through its own
// routing table. The source address is the interface's own.
func (s *Stack) SendVia(ifName string, proto uint8, dst ip.Addr, payload []byte, ttl uint8) error {
	e, ok := s.ifs[ifName]
	if !ok {
		return fmt.Errorf("ipstack: SendVia on unknown interface %q", ifName)
	}
	s.Stats.OutRequests++
	if ttl == 0 {
		ttl = 1 // link-local by default, never forwarded off-net
	}
	pkt := &ip.Packet{
		Header: ip.Header{
			ID: s.allocID(dst), TTL: ttl, Proto: proto, Src: e.addr, Dst: dst,
		},
		Payload: payload,
	}
	// A synthetic on-link route entry reuses the shared fragmentation
	// and tap path; zero Gateway makes the next hop the destination.
	s.transmit(pkt, &route.Entry{IfName: ifName, Flags: route.FlagUp}, "out", "")
	return nil
}

// allocID returns the IP ID for the next datagram to dst, counting
// per destination from 1 and skipping 0 (RFC 6864 §4.2, as Linux
// does), where 4.3BSD kept one global ip_id. With one counter, the IDs
// a host hands out depended on the order in which its traffic to
// different peers interleaved — on the sharded engine, the order of
// same-instant arrivals from two channels — and an ID that KISS must
// escape lengthens the frame (DESIGN.md §5).
func (s *Stack) allocID(dst ip.Addr) uint16 {
	id := s.lastID[dst] + 1
	if id == 0 {
		id = 1
	}
	s.lastID[dst] = id
	return id
}

// --- ICMP -------------------------------------------------------------

func (s *Stack) icmpInput(pkt *ip.Packet, ifName string) {
	s.Stats.ICMPIn++
	m, err := icmp.Unmarshal(pkt.Payload)
	if err != nil {
		s.Stats.BadPackets++
		return
	}
	if s.ICMPHook != nil && s.ICMPHook(pkt, m, ifName) {
		return
	}
	switch m.Type {
	case icmp.TypeEcho:
		s.Stats.EchoReplies++
		s.sendICMP(pkt.Src, icmp.NewEchoReply(m))
	case icmp.TypeEchoReply:
		s.pingReply(pkt, m)
	case icmp.TypeDestUnreachable, icmp.TypeTimeExceeded:
		if q, ok := icmp.QuotedHeader(m); ok {
			if h, ok := s.protoErrs[q.Proto]; ok {
				h(q.Dst, m)
			}
		}
	case icmp.TypeRedirect:
		if !s.AcceptRedirects || m.Gateway.IsZero() {
			return
		}
		q, ok := icmp.QuotedHeader(m)
		if !ok {
			return
		}
		// Only honor redirects from the gateway we actually used, for
		// a destination we route through it (4.3BSD's sanity checks).
		ent, err := s.Routes.Lookup(q.Dst)
		if err != nil || ent.Gateway != pkt.Src {
			return
		}
		s.Routes.AddHost(q.Dst, m.Gateway, ent.IfName)
		s.Stats.RedirectsIn++
	}
}

// RaiseError lets transports report errors about a received datagram
// (e.g. UDP port unreachable), with the standard suppression rules.
func (s *Stack) RaiseError(typ, code uint8, about *ip.Packet) {
	s.sendICMPError(typ, code, about)
}

// sendICMP originates an ICMP message to dst.
func (s *Stack) sendICMP(dst ip.Addr, m *icmp.Message) {
	s.Stats.ICMPOut++
	if err := s.Send(ip.ProtoICMP, ip.Addr{}, dst, m.Marshal(), 0, 0); err != nil {
		// Unroutable ICMP is silently dropped.
		_ = err
	}
}

// sendICMPError raises an error about a received datagram, applying
// the RFC 1122 suppression rules.
func (s *Stack) sendICMPError(typ, code uint8, about *ip.Packet) {
	if about.FragOff != 0 {
		return // only the first fragment
	}
	if about.Dst.IsBroadcast() || about.Src.IsZero() || about.Src.IsBroadcast() {
		return
	}
	if about.Proto == ip.ProtoICMP {
		if m, err := icmp.Unmarshal(about.Payload); err == nil {
			switch m.Type {
			case icmp.TypeEcho, icmp.TypeEchoReply:
				// Errors about echo are fine.
			default:
				return // never error about an ICMP error
			}
		}
	}
	s.sendICMP(about.Src, icmp.NewError(typ, code, about))
}

// --- Ping helper --------------------------------------------------------

type pingCtx struct {
	sent     map[uint16]sim.Time
	callback func(seq uint16, rtt time.Duration, from ip.Addr)
	open     bool // PingOpen context: survives replies, closed explicitly
}

// Ping sends one echo request to dst with the given payload size; the
// callback fires when (if) the matching reply arrives. Returns the
// id/seq used. The echo context is one-shot: it is released when the
// reply arrives, so long-running simulations (the scale worlds ping
// millions of times) do not exhaust the 16-bit ID space. A reply that
// never comes leaks the id; use PingOpen/ClosePing for long-lived
// probing.
func (s *Stack) Ping(dst ip.Addr, size int, cb func(seq uint16, rtt time.Duration, from ip.Addr)) (id, seq uint16) {
	return s.ping(dst, size, cb, false)
}

// PingOpen is Ping with a persistent echo context: the id stays
// registered — surviving replies and losses — so the caller can keep
// issuing PingSeq follow-ups on it. Release it with ClosePing.
func (s *Stack) PingOpen(dst ip.Addr, size int, cb func(seq uint16, rtt time.Duration, from ip.Addr)) (id, seq uint16) {
	return s.ping(dst, size, cb, true)
}

func (s *Stack) ping(dst ip.Addr, size int, cb func(seq uint16, rtt time.Duration, from ip.Addr), open bool) (id, seq uint16) {
	id = uint16(len(s.pings) + 1)
	for tries := 0; s.pings[id] != nil; tries++ {
		if tries > 1<<16 {
			panic("ipstack: ping id space exhausted (65536 echo contexts outstanding)")
		}
		id++
	}
	ctx := &pingCtx{sent: map[uint16]sim.Time{}, callback: cb, open: open}
	s.pings[id] = ctx
	ctx.sent[0] = s.Sched.Now()
	payload := make([]byte, size)
	for i := range payload {
		payload[i] = byte(i)
	}
	s.sendICMP(dst, icmp.NewEcho(id, 0, payload))
	return id, 0
}

// PingSeq sends a follow-up echo on an existing (PingOpen) id.
func (s *Stack) PingSeq(dst ip.Addr, id, seq uint16, size int) {
	ctx := s.pings[id]
	if ctx == nil {
		return
	}
	ctx.sent[seq] = s.Sched.Now()
	payload := make([]byte, size)
	s.sendICMP(dst, icmp.NewEcho(id, seq, payload))
}

// ClosePing releases an echo context created with PingOpen.
func (s *Stack) ClosePing(id uint16) { delete(s.pings, id) }

func (s *Stack) pingReply(pkt *ip.Packet, m *icmp.Message) {
	ctx := s.pings[m.ID]
	if ctx == nil {
		return
	}
	t0, ok := ctx.sent[m.Seq]
	if !ok {
		return
	}
	delete(ctx.sent, m.Seq)
	// One-shot contexts are released before the callback runs, so a
	// callback that immediately pings again may reuse the id.
	if !ctx.open {
		delete(s.pings, m.ID)
	}
	if ctx.callback != nil {
		ctx.callback(m.Seq, s.Sched.Now().Sub(t0), pkt.Src)
	}
}

func (s *Stack) String() string {
	return fmt.Sprintf("stack(%s, %d ifs, fwd=%v)", s.Hostname, len(s.ifs), s.Forwarding)
}
