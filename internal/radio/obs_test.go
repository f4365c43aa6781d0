package radio

import (
	"testing"
	"time"

	"packetradio/internal/sim"
)

// These tests cover the observability-era MAC knobs: bounded transmit
// queues, CSMA patience budgets, the channel tap, and the airtime
// accounting across Retune.

func TestMaxQueueRefusesAndReportsDrops(t *testing.T) {
	s := sim.NewScheduler(1)
	ch := NewChannel(s, 1200)
	a := ch.Attach("a", fastParams())
	b := ch.Attach("b", fastParams())
	var rb capture
	b.SetReceiver(rb.rx)

	a.MaxQueue = 2
	var drops []string
	a.OnDrop = func(reason string, frame []byte) { drops = append(drops, reason) }
	for i := 0; i < 5; i++ {
		a.Send([]byte{byte(i), 1, 2, 3})
	}
	if a.Stats.QueueDrops != 3 {
		t.Fatalf("QueueDrops = %d, want 3", a.Stats.QueueDrops)
	}
	if len(drops) != 3 || drops[0] != "mac queue overflow" {
		t.Fatalf("OnDrop calls: %v", drops)
	}
	s.Run()
	if len(rb.frames) != 2 {
		t.Fatalf("b received %d frames, want the 2 admitted", len(rb.frames))
	}
	if a.Stats.FramesSent != 2 {
		t.Fatalf("FramesSent = %d", a.Stats.FramesSent)
	}
}

// jamParams keeps a station keyed up long enough that a p=1 contender
// never sees an idle slot boundary inside its patience budget.
func TestMaxDeferralsGivesUpEventDriven(t *testing.T) {
	s := sim.NewScheduler(1)
	ch := NewChannel(s, 1200)
	jam := ch.Attach("jam", Params{TXDelay: 100 * time.Millisecond, SlotTime: 50 * time.Millisecond, Persist: 1.0, FullDuplex: true})
	a := ch.Attach("a", Params{TXDelay: 100 * time.Millisecond, SlotTime: 50 * time.Millisecond, Persist: 0.5})
	var rb capture
	ch.Attach("b", fastParams()).SetReceiver(rb.rx)

	a.MaxDeferrals = 3
	var drops []string
	a.OnDrop = func(reason string, frame []byte) { drops = append(drops, reason) }

	// Keep the channel busy for a long time: back-to-back jam frames.
	long := make([]byte, 2000)
	for i := 0; i < 8; i++ {
		jam.Send(long)
	}
	a.Send([]byte("impatient"))
	s.Run()

	if a.Stats.CSMAGiveUps != 1 {
		t.Fatalf("CSMAGiveUps = %d, want 1 (deferrals seen: %d)", a.Stats.CSMAGiveUps, a.Stats.CSMADeferrals)
	}
	if len(drops) != 1 || drops[0] != "csma give-up" {
		t.Fatalf("OnDrop calls: %v", drops)
	}
	if a.Stats.FramesSent != 0 {
		t.Fatal("the abandoned frame was transmitted anyway")
	}
}

func TestMaxDeferralsGivesUpPerSlot(t *testing.T) {
	s := sim.NewScheduler(1)
	ch := NewChannel(s, 1200)
	jam := ch.Attach("jam", Params{TXDelay: 100 * time.Millisecond, SlotTime: 50 * time.Millisecond, Persist: 1.0, FullDuplex: true})
	a := ch.Attach("a", Params{TXDelay: 100 * time.Millisecond, SlotTime: 50 * time.Millisecond, Persist: 0.5, PerSlotCSMA: true})

	a.MaxDeferrals = 3
	var drops int
	a.OnDrop = func(string, []byte) { drops++ }

	long := make([]byte, 2000)
	for i := 0; i < 8; i++ {
		jam.Send(long)
	}
	a.Send([]byte("impatient"))
	s.Run()

	if a.Stats.CSMAGiveUps != 1 || drops != 1 {
		t.Fatalf("per-slot give-up: CSMAGiveUps=%d drops=%d, want 1/1", a.Stats.CSMAGiveUps, drops)
	}
	if a.Stats.FramesSent != 0 {
		t.Fatal("the abandoned frame was transmitted anyway")
	}
}

func TestChannelTapSeesOutcomes(t *testing.T) {
	s := sim.NewScheduler(1)
	ch := NewChannel(s, 1200)
	a := ch.Attach("a", fastParams())
	b := ch.Attach("b", fastParams())
	var rb capture
	b.SetReceiver(rb.rx)

	type tapEvent struct {
		sender, receiver string
		outcome          TapOutcome
	}
	var taps []tapEvent
	ch.Taps = append(ch.Taps, func(sender, receiver *Transceiver, payload []byte, memo *any, outcome TapOutcome, consumed bool) {
		taps = append(taps, tapEvent{sender.Name, receiver.Name, outcome})
	})

	a.Send([]byte("clean"))
	s.Run()
	if len(taps) != 1 || taps[0] != (tapEvent{"a", "b", TapOK}) {
		t.Fatalf("clean delivery taps: %+v", taps)
	}

	// Two hidden senders -> the receiver's copies collide.
	taps = nil
	ch.SetReachable(a, b, true)
	c := ch.Attach("c", fastParams())
	ch.SetReachable(a, c, false)
	ch.SetReachable(c, a, false)
	a.Send([]byte("one"))
	c.Send([]byte("two"))
	s.Run()
	sawCollision := false
	for _, te := range taps {
		if te.receiver == "b" && te.outcome == TapCollision {
			sawCollision = true
		}
	}
	if !sawCollision {
		t.Fatalf("hidden-terminal collision not tapped: %+v", taps)
	}
}

func TestRetuneRefundsUnairedAirtime(t *testing.T) {
	s := sim.NewScheduler(1)
	ch1 := NewChannel(s, 1200)
	ch2 := NewChannel(s, 1200)
	a := ch1.Attach("a", fastParams())
	ch1.Attach("b", fastParams())

	frame := make([]byte, 300) // 2 s of airtime at 1200 bps
	a.Send(frame)
	// Let the transmission start (TXDelay 100 ms), then cut it 500 ms
	// into the air run.
	s.RunFor(600 * time.Millisecond)
	if len(ch1.active) != 1 {
		t.Fatal("transmission did not start")
	}
	aired := s.Now().Sub(ch1.active[0].start)
	a.Retune(ch2)
	s.Run()

	// The sender's airtime stat must reflect only what was actually
	// keyed on ch1 before the cut — not the full frame length — and
	// the channel's aggregate must agree, or Utilization() drifts on
	// every MoveHost.
	if a.Stats.Airtime != aired {
		t.Fatalf("sender airtime = %v, want the %v actually aired before the cut", a.Stats.Airtime, aired)
	}
	if ch1.Stats.Airtime != aired {
		t.Fatalf("channel airtime = %v, want %v", ch1.Stats.Airtime, aired)
	}
}
