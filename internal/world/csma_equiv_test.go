package world

import (
	"fmt"
	"testing"
	"time"
)

// The world-level CSMA equivalence regression: a full multi-channel
// scale world stepped under per-slot polling and under carrier-edge
// wakeups must agree on every observable — traffic delivered,
// per-station transmit and deferral counts, channel airtime — while
// the event-driven run fires several times fewer scheduler events. The
// N=200 row is E14's widest world (seed 1, 1-minute pings, 30 s warm-up
// plus 3 minutes); its channels run ~80% utilized, where the
// carrier-edge saving measures 1.5x.
func TestLargeWorldCSMAEquivalence(t *testing.T) {
	for _, tc := range []struct {
		stations  int
		interval  time.Duration
		run       time.Duration
		minFactor float64 // per-slot events / event-driven events, at least
	}{
		{40, 30 * time.Second, 8 * time.Minute, 2},
		{200, time.Minute, 3*time.Minute + 30*time.Second, 1.3},
	} {
		t.Run(fmt.Sprintf("n%d", tc.stations), func(t *testing.T) {
			type outcome struct {
				trace  string
				events uint64
			}
			run := func(perSlot bool) outcome {
				lw := NewLarge(LargeConfig{
					Seed:         1,
					Stations:     tc.stations,
					PingInterval: tc.interval,
				})
				useReferencePaths(t, lw.W, false, perSlot)
				lw.W.Run(tc.run)
				var tr string
				tr += fmt.Sprintf("sent=%d replies=%d\n", lw.Sent, lw.Replies)
				for i, st := range lw.Stations {
					p := st.Radio("pr0")
					tr += fmt.Sprintf("st%d sent=%d heard=%d damaged=%d deferrals=%d queue=%d\n",
						i, p.RF.Stats.FramesSent, p.RF.Stats.FramesHeard, p.RF.Stats.FramesDamaged,
						p.RF.CSMADeferrals(), p.RF.QueueLen())
				}
				// Waiters() is deliberately not compared: a station
				// mid-defer at the cutoff instant sits on the
				// event-driven wait-list by design, while the per-slot
				// path has no wait-list at all. The drain-to-zero
				// property is asserted at quiescence in internal/radio.
				for c, ch := range lw.Channels {
					tr += fmt.Sprintf("ch%d started=%d heard=%d damaged=%d collisions=%d airtime=%v\n",
						c, ch.Stats.FramesStarted, ch.Stats.FramesHeard, ch.Stats.FramesDamaged,
						ch.Stats.CollisionPairs, ch.Stats.Airtime)
				}
				return outcome{trace: tr, events: lw.W.Sched.Fired()}
			}
			old := run(true)
			ev := run(false)
			if old.trace != ev.trace {
				t.Fatalf("CSMA modes diverge on the %d-station world:\n-- per-slot --\n%s\n-- event-driven --\n%s",
					tc.stations, old.trace, ev.trace)
			}
			if float64(ev.events)*tc.minFactor > float64(old.events) {
				t.Fatalf("event-driven world fired %d events vs %d per-slot — want at least %.1fx fewer",
					ev.events, old.events, tc.minFactor)
			}
		})
	}
}
