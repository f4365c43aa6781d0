package world

import (
	"bytes"
	"strings"
	"testing"
	"time"
)

// TestRegistryCoversEveryLayer sweeps a built world and checks the
// hierarchical names land for every layer the issue's netstat view
// promises: channel, MAC controller, and per-host ip/driver/tnc/rf/arp.
func TestRegistryCoversEveryLayer(t *testing.T) {
	lw := NewLarge(LargeConfig{
		Seed: 1, Stations: 4, Channels: 1,
		PingInterval: time.Minute, MAC: MACDAMA,
	})
	lw.W.Run(2 * time.Minute)
	r := lw.W.Registry()
	for _, name := range []string{
		"radio.145_01.frames_started",
		"radio.145_01.collision_pairs",
		"radio.145_01.utilization",
		"dama.145_01.elections",
		"host.gw1.ip.forwarded",
		"host.gw1.pr0.drv.ipq_drops",
		"host.gw1.pr0.tnc.from_host",
		"host.gw1.pr0.rf.frames_sent",
		"host.gw1.pr0.rf.polls_sent",
		"host.gw1.pr0.arp.learned",
		"host.st1.pr0.rf.csma_give_ups",
	} {
		if _, ok := r.Value(name); !ok {
			t.Errorf("registry missing %q", name)
		}
	}
	// The views are live, not copies: the gateway forwarded traffic.
	if v, _ := r.Value("host.gw1.ip.forwarded"); v == 0 {
		t.Error("gateway forwarded counter reads zero through the registry")
	}
	var buf bytes.Buffer
	lw.W.Netstat(&buf, "radio.")
	if !strings.Contains(buf.String(), "radio.145_01.frames_started") {
		t.Errorf("Netstat output missing channel stats:\n%s", buf.String())
	}
	if strings.Contains(buf.String(), "host.") {
		t.Error("Netstat prefix filter leaked other groups")
	}
}

// TestCountersSurviveChurn pins the satellite fix: per-layer counters
// are owned by objects that persist across Retune, MoveHost and
// FailLink, so topology churn never resets or double-counts them. The
// one deliberate exception is airtime, which Retune *refunds* for the
// unaired tail of a cut transmission — so duration metrics are
// excluded from the monotonicity sweep.
func TestCountersSurviveChurn(t *testing.T) {
	lw := NewLarge(LargeConfig{
		Seed: 3, Stations: 8, Channels: 2,
		PingInterval: 30 * time.Second, MAC: MACDAMA,
	})
	r := lw.W.Registry()
	lw.W.Run(2 * time.Minute)

	monotonic := func(snap map[string]float64) {
		t.Helper()
		for name, was := range snap {
			if strings.Contains(name, "airtime") || strings.Contains(name, "utilization") {
				continue
			}
			now, ok := r.Value(name)
			if !ok {
				t.Fatalf("metric %q vanished after churn", name)
			}
			if now < was {
				t.Errorf("%s went backwards across churn: %v -> %v", name, was, now)
			}
		}
	}
	snapAll := func() map[string]float64 {
		out := make(map[string]float64)
		for _, s := range r.Snapshot() {
			out[s.Name] = s.Value
		}
		return out
	}

	mover := lw.Stations[0]
	moverRF := mover.Radio("pr0").RF
	sentBefore := moverRF.Stats.FramesSent
	if sentBefore == 0 {
		t.Fatal("mover never transmitted in the warm-up; churn test is vacuous")
	}

	// Churn: move st0 to the other channel, sever st1 from its
	// gateway, run, heal, move back, run again.
	before := snapAll()
	lw.W.MoveHost(mover.Name, "pr0", lw.Channels[1])
	lw.W.FailLink(lw.Stations[1].Name, lw.Gateways[0].Name)
	lw.W.Run(time.Minute)
	monotonic(before)

	before = snapAll()
	lw.W.HealLink(lw.Stations[1].Name, lw.Gateways[0].Name)
	lw.W.MoveHost(mover.Name, "pr0", lw.Channels[0])
	lw.W.Run(2 * time.Minute)
	monotonic(before)

	// The mover's transmit counter carried across both retunes and
	// kept counting — a reset (fresh transceiver) or a re-attach
	// double-count would both break the strict continuation.
	if moverRF.Stats.FramesSent <= sentBefore {
		t.Fatalf("mover FramesSent %d after churn, was %d before — counter reset or station wedged",
			moverRF.Stats.FramesSent, sentBefore)
	}
	// The registry still reads the same (persistent) transceiver.
	if v, _ := r.Value("host.st1.pr0.rf.frames_sent"); uint64(v) != moverRF.Stats.FramesSent {
		t.Fatalf("registry view diverged from the live counter: %v vs %d", v, moverRF.Stats.FramesSent)
	}

	// Airtime stays physical after cut transmissions: each channel's
	// utilization cannot exceed the number of stations that could key
	// up, and is not negative.
	for _, ch := range lw.Channels {
		if u := ch.Utilization(); u < 0 || u > float64(len(ch.Stations())) {
			t.Fatalf("channel utilization %v out of physical range after churn", u)
		}
	}
}

// TestJournalBuffersBounded runs the regional world — 200 stations on
// 8 channels with the ping ledger — for 4 sim-h in 10-min windows. The
// journal flushes into the ledger at the end of every Run, so after
// each window no lane holds a record, and the lanes' buffers stay the
// size of one window's records however long the run goes.
func TestJournalBuffersBounded(t *testing.T) {
	lw := NewLarge(LargeConfig{Seed: 1, Stations: 200, Channels: 8, PingInterval: time.Minute})
	led := lw.W.AttachPingLedger()
	if lw.W.AttachPingLedger() != led {
		t.Fatal("AttachPingLedger is not idempotent")
	}
	lw.W.Run(30 * time.Second)
	var firstHour int
	for k := 1; k <= 24; k++ {
		lw.W.Run(10 * time.Minute)
		held, capacity := lw.W.jnl.Buffered()
		if held != 0 {
			t.Fatalf("window %d: the journal holds %d records after Run", k, held)
		}
		if k == 6 {
			firstHour = capacity
		}
		if k > 6 && capacity > 2*firstHour {
			t.Fatalf("window %d: lane capacity %d, more than twice the first hour's %d", k, capacity, firstHour)
		}
	}
	if led.Sent() < 40000 || led.Delivered() == 0 {
		t.Fatalf("ledger saw %d sent, %d delivered: too little traffic to test anything", led.Sent(), led.Delivered())
	}
}

// TestOneJournalWhateverIsAttached checks that the ledger and the
// tracer share one journal and one set of core taps — each stack and
// channel gains one tap, whichever observer comes first and however
// often either is attached — and that both attach calls are
// idempotent.
func TestOneJournalWhateverIsAttached(t *testing.T) {
	for _, ledgerFirst := range []bool{true, false} {
		s := NewSeattle(SeattleConfig{Seed: 1, NumPCs: 2})
		attach := []func(){func() { s.W.AttachPingLedger() }, func() { s.W.AttachTracer() }}
		if !ledgerFirst {
			attach[0], attach[1] = attach[1], attach[0]
		}
		attach[0]()
		j := s.W.jnl
		attach[1]()
		led, tr := s.W.AttachPingLedger(), s.W.AttachTracer()
		if s.W.jnl != j || s.W.AttachPingLedger() != led || s.W.AttachTracer() != tr {
			t.Fatalf("ledgerFirst=%v: a second attach built a new journal or observer", ledgerFirst)
		}
		if n := len(s.Channel.Taps); n != 1 {
			t.Fatalf("ledgerFirst=%v: channel has %d taps, want the journal's one", ledgerFirst, n)
		}
		for name, h := range s.W.hosts {
			if n := len(h.Stack.Taps); n != 1 {
				t.Fatalf("ledgerFirst=%v: %s's stack has %d taps, want the journal's one", ledgerFirst, name, n)
			}
		}
	}
}
