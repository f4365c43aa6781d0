package radio

import (
	"fmt"
	"testing"

	"packetradio/internal/sim"
)

// TestCollisionAddsNoAllocs is the zero-alloc gate for the channel's
// delivery path: a full CSMA collision (two overlapping key-ups and
// their completions to 200 damaged receivers) and an intact delivery
// to 200 receivers allocate nothing in radio. Send takes the caller's
// slice and every receiver reads the same bytes, so no case copies a
// frame. The senders are full duplex, so each keys up the instant it
// is handed a frame and every receiver hears both.
func TestCollisionAddsNoAllocs(t *testing.T) {
	s := sim.NewScheduler(1)
	ch := NewChannel(s, 1200)
	for i := 0; i < 200; i++ {
		ch.Attach(fmt.Sprintf("R%d", i), DefaultParams()).SetReceiver(func([]byte, *any, bool) {})
	}
	p := DefaultParams()
	p.FullDuplex = true
	a, b := ch.Attach("A", p), ch.Attach("B", p)
	frame := make([]byte, 100)
	for _, tc := range []struct {
		name string
		run  func()
	}{
		{"collision", func() { a.Send(frame); b.Send(frame); s.Run() }},
		{"intact", func() { a.Send(frame); s.Run() }},
	} {
		tc.run() // warm the event, transmission and queue pools
		if got := testing.AllocsPerRun(50, tc.run); got != 0 {
			t.Errorf("%s: a delivery to 200 receivers allocates %v times, want 0", tc.name, got)
		}
	}
	if a.Stats.FramesDamaged == 0 || b.Stats.FramesDamaged == 0 {
		t.Fatal("the senders' frames did not collide")
	}
	if ch.Stats.FramesHeard == 0 {
		t.Fatal("no intact delivery")
	}
}

// BenchmarkChannelCollision measures the channel hot path saturated:
// each op, all 200 stations on one channel queue a frame at once and
// the channel runs until every queue drains, through CSMA deferrals
// and repeated collisions delivered to every receiver.
func BenchmarkChannelCollision(b *testing.B) {
	s := sim.NewScheduler(1)
	ch := NewChannel(s, 1200)
	rfs := make([]*Transceiver, 200)
	for i := range rfs {
		rfs[i] = ch.Attach(fmt.Sprintf("S%d", i), DefaultParams())
		rfs[i].SetReceiver(func([]byte, *any, bool) {})
	}
	frame := make([]byte, 100)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		for _, rf := range rfs {
			rf.Send(frame)
		}
		s.Run()
	}
}
