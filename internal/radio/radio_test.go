package radio

import (
	"bytes"
	"testing"
	"time"

	"packetradio/internal/sim"
)

// fastParams removes CSMA randomness for deterministic timing tests.
func fastParams() Params {
	return Params{TXDelay: 100 * time.Millisecond, SlotTime: 50 * time.Millisecond, Persist: 1.0}
}

type capture struct {
	frames  [][]byte
	damaged int
}

func (c *capture) rx(f []byte, _ *any, d bool) {
	if d {
		c.damaged++
		return
	}
	c.frames = append(c.frames, f)
}

func TestBroadcastDelivery(t *testing.T) {
	s := sim.NewScheduler(1)
	ch := NewChannel(s, 1200)
	a := ch.Attach("a", fastParams())
	b := ch.Attach("b", fastParams())
	c := ch.Attach("c", fastParams())
	var rb, rc capture
	b.SetReceiver(rb.rx)
	c.SetReceiver(rc.rx)

	frame := []byte("hello radio")
	a.Send(frame)
	s.Run()
	if len(rb.frames) != 1 || len(rc.frames) != 1 {
		t.Fatalf("b got %d frames, c got %d, want 1 each", len(rb.frames), len(rc.frames))
	}
	if !bytes.Equal(rb.frames[0], frame) {
		t.Fatalf("b received %q", rb.frames[0])
	}
	if a.Stats.FramesSent != 1 {
		t.Fatalf("sender stats: %+v", a.Stats)
	}
}

func TestSenderDoesNotHearItself(t *testing.T) {
	s := sim.NewScheduler(1)
	ch := NewChannel(s, 1200)
	a := ch.Attach("a", fastParams())
	var ra capture
	a.SetReceiver(ra.rx)
	a.Send([]byte("echo?"))
	s.Run()
	if len(ra.frames) != 0 {
		t.Fatal("sender received its own frame")
	}
}

func TestAirtimeAt1200bps(t *testing.T) {
	s := sim.NewScheduler(1)
	ch := NewChannel(s, 1200)
	a := ch.Attach("a", fastParams())
	b := ch.Attach("b", fastParams())
	var at sim.Time
	b.SetReceiver(func([]byte, *any, bool) { at = s.Now() })
	// 148 bytes + 2 flags = 150 bytes = 1200 bits = 1 second, plus
	// 100 ms TXDELAY.
	a.Send(make([]byte, 148))
	s.Run()
	want := sim.Time(1100 * time.Millisecond)
	if at != want {
		t.Fatalf("delivery at %v, want %v", at, want)
	}
}

func TestCarrierSenseDefersSecondSender(t *testing.T) {
	s := sim.NewScheduler(1)
	ch := NewChannel(s, 1200)
	a := ch.Attach("a", fastParams())
	b := ch.Attach("b", fastParams())
	c := ch.Attach("c", fastParams())
	var rc capture
	c.SetReceiver(rc.rx)

	a.Send(make([]byte, 100))
	// b tries to send while a is on the air: must defer, both arrive.
	s.After(200*time.Millisecond, func() { b.Send(make([]byte, 100)) })
	s.Run()
	if len(rc.frames) != 2 {
		t.Fatalf("c received %d frames, want 2 (CSMA should avoid collision), damaged=%d", len(rc.frames), rc.damaged)
	}
	if b.Stats.CSMADeferrals == 0 {
		t.Fatal("b never deferred to carrier")
	}
	if ch.Stats.CollisionPairs != 0 {
		t.Fatalf("collisions = %d, want 0", ch.Stats.CollisionPairs)
	}
}

func TestSimultaneousSendersCollide(t *testing.T) {
	s := sim.NewScheduler(1)
	ch := NewChannel(s, 1200)
	a := ch.Attach("a", fastParams())
	b := ch.Attach("b", fastParams())
	c := ch.Attach("c", fastParams())
	var rc capture
	c.SetReceiver(rc.rx)

	// Both key up at t=0: carrier sense cannot help (decisions are
	// made at the same instant), so both frames are destroyed at c.
	a.Send(make([]byte, 100))
	b.Send(make([]byte, 100))
	s.Run()
	if len(rc.frames) != 0 {
		t.Fatalf("c received %d intact frames, want 0", len(rc.frames))
	}
	if rc.damaged != 2 {
		t.Fatalf("c saw %d damaged frames, want 2", rc.damaged)
	}
	if ch.Stats.CollisionPairs == 0 {
		t.Fatal("collision not counted")
	}
}

func TestHiddenTerminalCollision(t *testing.T) {
	s := sim.NewScheduler(1)
	ch := NewChannel(s, 1200)
	a := ch.Attach("a", fastParams())
	b := ch.Attach("b", fastParams())
	c := ch.Attach("c", fastParams())
	// a and b cannot hear each other; both hear c and vice versa.
	ch.SetReachable(a, b, false)
	ch.SetReachable(b, a, false)
	var rc capture
	c.SetReceiver(rc.rx)

	a.Send(make([]byte, 100))
	// b starts mid-transmission; carrier sense at b shows idle (hidden
	// terminal), so b transmits and destroys both frames at c.
	s.After(300*time.Millisecond, func() { b.Send(make([]byte, 100)) })
	s.Run()
	if len(rc.frames) != 0 || rc.damaged != 2 {
		t.Fatalf("intact=%d damaged=%d, want 0/2 (hidden terminal)", len(rc.frames), rc.damaged)
	}
	if b.Stats.CSMADeferrals != 0 {
		t.Fatal("b deferred despite not hearing a")
	}
}

func TestHiddenTerminalVictimOnlyAffectedIfHearsBoth(t *testing.T) {
	s := sim.NewScheduler(1)
	ch := NewChannel(s, 1200)
	a := ch.Attach("a", fastParams())
	b := ch.Attach("b", fastParams())
	c := ch.Attach("c", fastParams()) // hears only a
	d := ch.Attach("d", fastParams()) // hears both
	ch.SetReachable(a, b, false)
	ch.SetReachable(b, a, false)
	ch.SetReachable(b, c, false) // c cannot hear b
	var rc, rd capture
	c.SetReceiver(rc.rx)
	d.SetReceiver(rd.rx)

	a.Send(make([]byte, 100))
	s.After(200*time.Millisecond, func() { b.Send(make([]byte, 100)) })
	s.Run()
	// c hears only a's transmission: intact.
	if len(rc.frames) != 1 || rc.damaged != 0 {
		t.Fatalf("c: intact=%d damaged=%d, want 1/0", len(rc.frames), rc.damaged)
	}
	// d hears both: both damaged.
	if len(rd.frames) != 0 || rd.damaged != 2 {
		t.Fatalf("d: intact=%d damaged=%d, want 0/2", len(rd.frames), rd.damaged)
	}
}

func TestHalfDuplexMissesWhileTransmitting(t *testing.T) {
	s := sim.NewScheduler(1)
	ch := NewChannel(s, 1200)
	a := ch.Attach("a", fastParams())
	b := ch.Attach("b", fastParams())
	// b cannot hear a, so b's CSMA won't defer; a can hear b.
	ch.SetReachable(a, b, false)
	var ra capture
	a.SetReceiver(ra.rx)

	// a transmits a long frame; b transmits a short one in the middle.
	// a must miss b's frame entirely (half duplex).
	a.Send(make([]byte, 400)) // ~2.7s at 1200
	s.After(500*time.Millisecond, func() { b.Send(make([]byte, 50)) })
	s.Run()
	if len(ra.frames) != 0 {
		t.Fatalf("a received %d frames while transmitting, want 0", len(ra.frames))
	}
	if a.Stats.HalfDuplexMiss != 1 {
		t.Fatalf("HalfDuplexMiss = %d, want 1", a.Stats.HalfDuplexMiss)
	}
}

func TestQueueDrainsInOrder(t *testing.T) {
	s := sim.NewScheduler(1)
	ch := NewChannel(s, 1200)
	a := ch.Attach("a", fastParams())
	b := ch.Attach("b", fastParams())
	var rb capture
	b.SetReceiver(rb.rx)
	for i := 0; i < 5; i++ {
		a.Send([]byte{byte(i)})
	}
	if a.QueueLen() == 0 {
		t.Fatal("queue empty immediately after Send")
	}
	s.Run()
	if len(rb.frames) != 5 {
		t.Fatalf("received %d, want 5", len(rb.frames))
	}
	for i, f := range rb.frames {
		if f[0] != byte(i) {
			t.Fatalf("frame %d = %d, out of order", i, f[0])
		}
	}
}

func TestPersistenceCausesDeferrals(t *testing.T) {
	s := sim.NewScheduler(7)
	ch := NewChannel(s, 1200)
	p := Params{TXDelay: 100 * time.Millisecond, SlotTime: 50 * time.Millisecond, Persist: 0.1}
	a := ch.Attach("a", p)
	b := ch.Attach("b", fastParams())
	var rb capture
	b.SetReceiver(rb.rx)
	a.Send([]byte("low persistence"))
	s.Run()
	if len(rb.frames) != 1 {
		t.Fatal("frame never delivered")
	}
	if a.Stats.CSMADeferrals == 0 {
		t.Fatal("persist=0.1 should have deferred at least once with seed 7")
	}
}

func TestBitErrorRateDamagesFrames(t *testing.T) {
	s := sim.NewScheduler(3)
	ch := NewChannel(s, 1200)
	ch.BitErrorRate = 1e-3 // ~1 error per 1000 bits; 100-byte frames mostly damaged
	a := ch.Attach("a", fastParams())
	b := ch.Attach("b", fastParams())
	var rb capture
	b.SetReceiver(rb.rx)
	sendNext := func() {}
	n := 0
	sendNext = func() {
		if n < 50 {
			n++
			a.Send(make([]byte, 100))
			s.After(2*time.Second, sendNext)
		}
	}
	sendNext()
	s.Run()
	if rb.damaged == 0 {
		t.Fatal("no damage at BER 1e-3")
	}
	if len(rb.frames) == 0 {
		t.Fatal("every frame damaged; expected some survivors")
	}
}

func TestFullDuplexSkipsCarrierSense(t *testing.T) {
	s := sim.NewScheduler(1)
	ch := NewChannel(s, 1200)
	p := fastParams()
	p.FullDuplex = true
	a := ch.Attach("a", p)
	b := ch.Attach("b", fastParams())
	var rb capture
	b.SetReceiver(rb.rx)
	// b transmits; a sends mid-air anyway (full duplex ignores carrier).
	b.Send(make([]byte, 200))
	s.After(200*time.Millisecond, func() { a.Send(make([]byte, 50)) })
	s.Run()
	if a.Stats.CSMADeferrals != 0 {
		t.Fatal("full-duplex station deferred")
	}
	if ch.Stats.CollisionPairs == 0 {
		t.Fatal("expected a collision from ignoring carrier")
	}
}

func TestUtilizationAccounting(t *testing.T) {
	s := sim.NewScheduler(1)
	ch := NewChannel(s, 1200)
	a := ch.Attach("a", fastParams())
	b := ch.Attach("b", fastParams())
	b.SetReceiver(func([]byte, *any, bool) {})
	a.Send(make([]byte, 148)) // 1s airtime + 100ms txdelay
	s.Run()
	if ch.Stats.Airtime != 1100*time.Millisecond {
		t.Fatalf("airtime = %v", ch.Stats.Airtime)
	}
	u := ch.Utilization()
	if u != 1.0 {
		t.Fatalf("utilization = %v, want 1.0 (sim ends when channel goes idle)", u)
	}
}

func TestAirTimeFormula(t *testing.T) {
	ch := NewChannel(sim.NewScheduler(1), 9600)
	// (100+2)*8 = 816 bits at 9600 = 85ms
	if got := ch.AirTime(100); got != 85*time.Millisecond {
		t.Fatalf("AirTime(100) = %v, want 85ms", got)
	}
}

func TestDefaultBitRate(t *testing.T) {
	ch := NewChannel(sim.NewScheduler(1), 0)
	if ch.BitRate != DefaultBitRate {
		t.Fatalf("BitRate = %d", ch.BitRate)
	}
}

func TestPow1m(t *testing.T) {
	if got := pow1m(0, 1000); got != 1.0 {
		t.Fatalf("pow1m(0,1000) = %v", got)
	}
	got := pow1m(0.5, 2)
	if got < 0.2499 || got > 0.2501 {
		t.Fatalf("pow1m(0.5,2) = %v, want 0.25", got)
	}
}
