package ipstack

import (
	"testing"
	"time"

	"packetradio/internal/icmp"
	"packetradio/internal/ip"
	"packetradio/internal/netif"
	"packetradio/internal/sim"
)

// wire is a minimal test interface connecting two stacks directly.
type wire struct {
	name  string
	mtu   int
	sched *sim.Scheduler
	peer  *Stack
	drop  func(*ip.Packet) bool
	stats netif.Stats
}

func (w *wire) Name() string        { return w.name }
func (w *wire) MTU() int            { return w.mtu }
func (w *wire) Up() bool            { return true }
func (w *wire) Init() error         { return nil }
func (w *wire) Stats() *netif.Stats { return &w.stats }
func (w *wire) Output(pkt *ip.Packet, _ ip.Addr) error {
	if w.drop != nil && w.drop(pkt) {
		return nil
	}
	buf, err := pkt.Marshal()
	if err != nil {
		return err
	}
	w.sched.At(w.sched.Now(), func() { w.peer.Input(buf, "wire0") })
	return nil
}

func pairUp(t *testing.T, mtu int) (*sim.Scheduler, *Stack, *Stack, *wire, *wire) {
	t.Helper()
	s := sim.NewScheduler(1)
	a := New(s, "a")
	b := New(s, "b")
	wa := &wire{name: "wire0", mtu: mtu, sched: s, peer: b}
	wb := &wire{name: "wire0", mtu: mtu, sched: s, peer: a}
	a.AddInterface(wa, ip.MustAddr("10.0.0.1"), ip.MaskClassC)
	b.AddInterface(wb, ip.MustAddr("10.0.0.2"), ip.MaskClassC)
	return s, a, b, wa, wb
}

func TestLocalLoopback(t *testing.T) {
	s, a, _, _, _ := pairUp(t, 1500)
	got := false
	a.RegisterProto(99, func(pkt *ip.Packet, ifName string) {
		got = pkt.Src == a.Addr() && pkt.Dst == a.Addr() && ifName == "lo0"
	})
	if err := a.Send(99, ip.Addr{}, a.Addr(), []byte("self"), 0, 0); err != nil {
		t.Fatal(err)
	}
	s.RunFor(time.Second)
	if !got {
		t.Fatal("loopback delivery failed")
	}
}

func TestEchoAcrossWire(t *testing.T) {
	s, a, _, _, _ := pairUp(t, 1500)
	var rtt time.Duration
	a.Ping(ip.MustAddr("10.0.0.2"), 32, func(_ uint16, d time.Duration, _ ip.Addr) { rtt = d })
	s.RunFor(time.Second)
	if rtt < 0 || a.Stats.ICMPIn == 0 {
		t.Fatal("no echo reply")
	}
}

func TestProtoUnreachable(t *testing.T) {
	s, a, b, _, _ := pairUp(t, 1500)
	a.Send(123, ip.Addr{}, ip.MustAddr("10.0.0.2"), []byte("x"), 0, 0)
	s.RunFor(time.Second)
	if b.Stats.NoProto != 1 {
		t.Fatalf("NoProto = %d", b.Stats.NoProto)
	}
	if a.Stats.ICMPIn == 0 {
		t.Fatal("no protocol-unreachable error came back")
	}
}

func TestProtoErrorHandlerInvoked(t *testing.T) {
	s, a, b, _, _ := pairUp(t, 1500)
	_ = b
	var gotDst ip.Addr
	var gotType uint8
	a.RegisterProtoError(123, func(dst ip.Addr, m *icmp.Message) {
		gotDst = dst
		gotType = m.Type
	})
	a.Send(123, ip.Addr{}, ip.MustAddr("10.0.0.2"), []byte("x"), 0, 0)
	s.RunFor(time.Second)
	if gotDst != ip.MustAddr("10.0.0.2") || gotType != icmp.TypeDestUnreachable {
		t.Fatalf("error handler: dst=%v type=%d", gotDst, gotType)
	}
}

func TestSendFragmentsAtSource(t *testing.T) {
	s, a, b, _, _ := pairUp(t, 256)
	var got int
	b.RegisterProto(99, func(pkt *ip.Packet, _ string) { got = len(pkt.Payload) })
	a.Send(99, ip.Addr{}, ip.MustAddr("10.0.0.2"), make([]byte, 1000), 0, 0)
	s.RunFor(time.Minute)
	if got != 1000 {
		t.Fatalf("reassembled %d bytes, want 1000", got)
	}
	if a.Stats.FragsOut == 0 || b.Stats.Reassembled != 1 {
		t.Fatalf("frag stats: out=%d reass=%d", a.Stats.FragsOut, b.Stats.Reassembled)
	}
}

func TestReassemblyTimeoutCleansUp(t *testing.T) {
	s, a, b, wa, _ := pairUp(t, 256)
	_ = a
	// Drop the last fragment so reassembly can never finish.
	frags := 0
	wa.drop = func(pkt *ip.Packet) bool {
		if pkt.FragOff > 0 || pkt.MF {
			frags++
			return !pkt.MF // the last fragment has MF clear
		}
		return false
	}
	a.Send(99, ip.Addr{}, ip.MustAddr("10.0.0.2"), make([]byte, 1000), 0, 0)
	s.RunFor(time.Second)
	if b.reass.PendingCount() != 1 {
		t.Fatalf("pending = %d", b.reass.PendingCount())
	}
	s.RunFor(2 * time.Minute)
	if b.reass.PendingCount() != 0 {
		t.Fatal("reassembly state leaked past timeout")
	}
	if s.Pending() != 0 {
		t.Fatal("expiry timer leaked")
	}
}

// Regression for the event-pool aliasing hazard: after an expiry tick
// fires with nothing pending, the scheduler recycles the event object.
// If the stack kept the stale handle, a recycled event reused by any
// other timer would make scheduleReassemblyExpiry think a tick was
// still pending, and later incomplete datagrams would never expire.
func TestReassemblyExpiryReschedulesAfterRecycledEvent(t *testing.T) {
	s, a, b, wa, _ := pairUp(t, 256)
	dropTail := func(pkt *ip.Packet) bool {
		if pkt.FragOff > 0 || pkt.MF {
			return !pkt.MF
		}
		return false
	}
	wa.drop = dropTail
	a.Send(99, ip.Addr{}, ip.MustAddr("10.0.0.2"), make([]byte, 1000), 0, 0)
	s.RunFor(2 * time.Minute) // first expiry fires, PendingCount()==0
	if b.reass.PendingCount() != 0 {
		t.Fatal("first reassembly did not expire")
	}
	// Occupy the recycled event object with an unrelated live timer.
	ev := s.After(time.Hour, func() {})
	defer s.Cancel(ev)
	// A second incomplete datagram must still get an expiry tick.
	a.Send(99, ip.Addr{}, ip.MustAddr("10.0.0.2"), make([]byte, 1000), 0, 0)
	s.RunFor(time.Second)
	if b.reass.PendingCount() != 1 {
		t.Fatalf("pending = %d, want 1", b.reass.PendingCount())
	}
	s.RunFor(2 * time.Minute)
	if b.reass.PendingCount() != 0 {
		t.Fatal("second incomplete datagram never expired: expiry tick was not rescheduled")
	}
}

func TestNoRouteError(t *testing.T) {
	_, a, _, _, _ := pairUp(t, 1500)
	if err := a.Send(99, ip.Addr{}, ip.MustAddr("192.168.9.9"), nil, 0, 0); err == nil {
		t.Fatal("send to unroutable destination succeeded")
	}
}

func TestHostIgnoresTransit(t *testing.T) {
	s, a, b, _, _ := pairUp(t, 1500)
	// a sends to an address that is NOT b but routes via the wire.
	a.Routes.AddNet(ip.MustAddr("10.0.1.0"), ip.MaskClassC, ip.MustAddr("10.0.0.2"), "wire0")
	a.Send(99, ip.Addr{}, ip.MustAddr("10.0.1.5"), []byte("transit"), 0, 0)
	s.RunFor(time.Second)
	if b.Stats.Forwarded != 0 {
		t.Fatal("host forwarded")
	}
	if b.Stats.Received == 0 {
		t.Fatal("packet never arrived at b")
	}
}

func TestBadPacketCounted(t *testing.T) {
	_, a, _, _, _ := pairUp(t, 1500)
	a.Input([]byte{0xFF, 0x00}, "wire0")
	if a.Stats.BadPackets != 1 {
		t.Fatalf("BadPackets = %d", a.Stats.BadPackets)
	}
}

func TestTapObservesDirections(t *testing.T) {
	s, a, _, _, _ := pairUp(t, 1500)
	dirs := map[string]int{}
	a.Taps = append(a.Taps, func(dir string, pkt *ip.Packet, ifName string) { dirs[dir]++ })
	a.Ping(ip.MustAddr("10.0.0.2"), 8, nil)
	s.RunFor(time.Second)
	if dirs["out"] == 0 || dirs["in"] == 0 {
		t.Fatalf("tap: %v", dirs)
	}
}

func TestICMPHookConsumes(t *testing.T) {
	s, a, b, _, _ := pairUp(t, 1500)
	_ = a
	hooked := 0
	b.ICMPHook = func(pkt *ip.Packet, m *icmp.Message, ifName string) bool {
		hooked++
		return true // consume everything, even echo
	}
	got := false
	a.Ping(ip.MustAddr("10.0.0.2"), 8, func(uint16, time.Duration, ip.Addr) { got = true })
	s.RunFor(time.Second)
	if hooked == 0 {
		t.Fatal("hook never ran")
	}
	if got {
		t.Fatal("hook consumed echo but reply still sent")
	}
}

func TestIfAddrAndInterface(t *testing.T) {
	_, a, _, wa, _ := pairUp(t, 1500)
	addr, mask, ok := a.IfAddr("wire0")
	if !ok || addr != ip.MustAddr("10.0.0.1") || mask != ip.MaskClassC {
		t.Fatalf("IfAddr: %v %v %v", addr, mask, ok)
	}
	ifc, ok := a.Interface("wire0")
	if !ok || ifc != netif.Interface(wa) {
		t.Fatal("Interface lookup")
	}
	if _, ok := a.Interface("nope"); ok {
		t.Fatal("bogus interface found")
	}
}

func TestDirectedBroadcastIsLocal(t *testing.T) {
	s, a, b, _, _ := pairUp(t, 1500)
	_ = a
	got := false
	b.RegisterProto(99, func(pkt *ip.Packet, _ string) { got = true })
	// 10.0.0.255 is the directed broadcast of the /24.
	a.Send(99, ip.Addr{}, ip.MustAddr("10.0.0.255"), []byte("all"), 0, 0)
	s.RunFor(time.Second)
	// a treats it as local (delivers to itself via loopback); this
	// matches hosts accepting their net's directed broadcast.
	_ = got
	if a.Stats.Delivered == 0 && !got {
		t.Fatal("directed broadcast dropped everywhere")
	}
}

func TestRedirectInstallsHostRoute(t *testing.T) {
	// Topology: host A and routers R1, R2 all on one wire-mesh; A
	// routes net 20.0.0.0/24 via R1, but R1 reaches it via R2 on the
	// same interface, so R1 forwards and emits a redirect (§4.2's
	// mechanism for steering traffic to the right regional gateway).
	s := sim.NewScheduler(1)
	a := New(s, "a")
	r1 := New(s, "r1")
	r2 := New(s, "r2")
	r1.Forwarding = true
	r2.Forwarding = true
	a.AcceptRedirects = true

	// A tiny broadcast wire connecting all three stacks.
	stacks := []*Stack{a, r1, r2}
	mkIf := func(self *Stack) *wire {
		w := &wire{name: "wire0", mtu: 1500, sched: s}
		w.drop = func(pkt *ip.Packet) bool {
			buf, err := pkt.Marshal()
			if err != nil {
				return true
			}
			for _, st := range stacks {
				if st != self {
					st := st
					s.At(s.Now(), func() { st.Input(buf, "wire0") })
				}
			}
			return true // we delivered it ourselves
		}
		return w
	}
	a.AddInterface(mkIf(a), ip.MustAddr("10.0.0.1"), ip.MaskClassC)
	r1.AddInterface(mkIf(r1), ip.MustAddr("10.0.0.2"), ip.MaskClassC)
	r2.AddInterface(mkIf(r2), ip.MustAddr("10.0.0.3"), ip.MaskClassC)

	// The distant destination hangs directly off R2 (loop it back).
	dest := ip.MustAddr("20.0.0.5")
	r2.RegisterProto(99, func(*ip.Packet, string) {})
	r2Dest := &wire{name: "stub0", mtu: 1500, sched: s, peer: r2}
	r2.AddInterface(r2Dest, ip.MustAddr("20.0.0.1"), ip.MaskClassC)

	a.Routes.AddNet(ip.MustAddr("20.0.0.0"), ip.MaskClassC, ip.MustAddr("10.0.0.2"), "wire0")
	r1.Routes.AddNet(ip.MustAddr("20.0.0.0"), ip.MaskClassC, ip.MustAddr("10.0.0.3"), "wire0")

	a.Send(99, ip.Addr{}, dest, []byte("x"), 0, 0)
	s.RunFor(time.Second)
	if r1.Stats.RedirectsOut != 1 {
		t.Fatalf("r1 sent %d redirects", r1.Stats.RedirectsOut)
	}
	if a.Stats.RedirectsIn != 1 {
		t.Fatalf("a accepted %d redirects", a.Stats.RedirectsIn)
	}
	// A must now have a host route for dest via R2.
	ent, err := a.Routes.Lookup(dest)
	if err != nil {
		t.Fatal(err)
	}
	if ent.Gateway != ip.MustAddr("10.0.0.3") || ent.Mask != ip.MaskHost {
		t.Fatalf("route after redirect: %v", ent)
	}
	// Subsequent lookups keep resolving to the redirected host route.
	// (The shared test wire is an unaddressed broadcast medium, so
	// asserting on what R1 overhears would be meaningless.)
	ent2, err := a.Routes.Lookup(dest)
	if err != nil || ent2 != ent {
		t.Fatalf("lookup after redirect: %v, %v", ent2, err)
	}
}

func TestRedirectIgnoredByDefaultAndFromStrangers(t *testing.T) {
	s := sim.NewScheduler(1)
	a := New(s, "a")
	w := &wire{name: "wire0", mtu: 1500, sched: s, peer: a}
	a.AddInterface(w, ip.MustAddr("10.0.0.1"), ip.MaskClassC)
	a.Routes.AddNet(ip.MustAddr("20.0.0.0"), ip.MaskClassC, ip.MustAddr("10.0.0.2"), "wire0")

	mkRedirect := func(src ip.Addr) []byte {
		quoted := &ip.Packet{Header: ip.Header{TTL: 30, Proto: 99, Src: ip.MustAddr("10.0.0.1"), Dst: ip.MustAddr("20.0.0.5")}}
		m := icmp.NewError(icmp.TypeRedirect, 1, quoted)
		m.Gateway = ip.MustAddr("10.0.0.9")
		pkt := &ip.Packet{
			Header:  ip.Header{TTL: 30, Proto: ip.ProtoICMP, ID: 7, Src: src, Dst: ip.MustAddr("10.0.0.1")},
			Payload: m.Marshal(),
		}
		buf, _ := pkt.Marshal()
		return buf
	}

	// AcceptRedirects false: ignored.
	a.Input(mkRedirect(ip.MustAddr("10.0.0.2")), "wire0")
	if a.Stats.RedirectsIn != 0 {
		t.Fatal("redirect accepted with AcceptRedirects=false")
	}
	// Enabled, but from a host that is not our gateway for the
	// destination: ignored (anti-spoofing sanity check).
	a.AcceptRedirects = true
	a.Input(mkRedirect(ip.MustAddr("10.0.0.66")), "wire0")
	if a.Stats.RedirectsIn != 0 {
		t.Fatal("redirect accepted from a stranger")
	}
	// From the real gateway: accepted.
	a.Input(mkRedirect(ip.MustAddr("10.0.0.2")), "wire0")
	if a.Stats.RedirectsIn != 1 {
		t.Fatal("legitimate redirect ignored")
	}
}

// TestIPIDPerDestination: each destination has its own ID sequence, so
// the IDs toward one peer do not depend on how traffic toward others
// interleaves with it.
func TestIPIDPerDestination(t *testing.T) {
	_, a, _, _, _ := pairUp(t, 1500)
	ids := map[ip.Addr][]uint16{}
	a.Taps = append(a.Taps, func(dir string, pkt *ip.Packet, _ string) {
		if dir == "out" {
			ids[pkt.Dst] = append(ids[pkt.Dst], pkt.ID)
		}
	})
	b, c := ip.MustAddr("10.0.0.2"), ip.MustAddr("10.0.0.3")
	for _, dst := range []ip.Addr{b, c, c, b, c} {
		if err := a.Send(99, ip.Addr{}, dst, []byte("x"), 0, 0); err != nil {
			t.Fatal(err)
		}
	}
	if got := ids[b]; len(got) != 2 || got[0] != 1 || got[1] != 2 {
		t.Fatalf("IDs toward %v: %v, want [1 2]", b, got)
	}
	if got := ids[c]; len(got) != 3 || got[0] != 1 || got[2] != 3 {
		t.Fatalf("IDs toward %v: %v, want [1 2 3]", c, got)
	}
	a.lastID[b] = 0xFFFF
	a.Send(99, ip.Addr{}, b, []byte("x"), 0, 0)
	if got := ids[b][2]; got != 1 {
		t.Fatalf("ID after 0xFFFF: %d, want 1 (0 is skipped)", got)
	}
}
