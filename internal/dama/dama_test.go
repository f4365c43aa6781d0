package dama

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"packetradio/internal/radio"
	"packetradio/internal/sim"
)

// testNet is a small raw-radio DAMA network for protocol-level tests:
// no TNCs or IP, just transceivers sending tagged frames so every
// delivery is attributable.
type testNet struct {
	s   *sim.Scheduler
	ch  *radio.Channel
	ctl *Controller
	rfs map[string]*radio.Transceiver
	// heard[station] lists "payload@T+…" for every intact delivery.
	heard map[string][]string
}

func newTestNet(seed int64, cfg Config, names ...string) *testNet {
	n := &testNet{
		s:     sim.NewScheduler(seed),
		rfs:   make(map[string]*radio.Transceiver),
		heard: make(map[string][]string),
	}
	n.ch = radio.NewChannel(n.s, 1200)
	n.ctl = New(n.ch, cfg)
	for _, name := range names {
		name := name
		rf := n.ch.Attach(name, radio.DefaultParams())
		rf.SetReceiver(func(f []byte, _ *any, damaged bool) {
			if !damaged {
				n.heard[name] = append(n.heard[name], fmt.Sprintf("%s@%v", f, n.s.Now()))
			}
		})
		n.ctl.Join(rf)
		n.rfs[name] = rf
	}
	return n
}

// fastCfg keeps test runs short: quick election, tight idle pacing.
func fastCfg() Config {
	return Config{
		ElectionTimeout: 2 * time.Second,
		ElectionStep:    time.Second,
		IdleGap:         500 * time.Millisecond,
		MaxFrame:        300,
	}
}

func TestElectionPicksLowestID(t *testing.T) {
	n := newTestNet(1, fastCfg(), "CHI", "ALPHA", "BRAVO")
	n.s.RunFor(10 * time.Second)
	m := n.ctl.Master()
	if m == nil || m.Name != "ALPHA" {
		t.Fatalf("master = %v, want ALPHA (lowest callsign)", m)
	}
	if n.ctl.Stats.Elections != 1 {
		t.Fatalf("elections = %d, want exactly 1 (rank stagger must prevent duels)", n.ctl.Stats.Elections)
	}
	// Only ALPHA's election timer is retired; the slaves' stay armed
	// against master death, plus at most one master action timer (none
	// while a poll is in flight — TxDone re-arms it).
	if got := n.ctl.PendingTimers(); got < 2 || got > 3 {
		t.Fatalf("pending timers = %d, want 2 slave election timers + at most 1 master action", got)
	}
}

func TestPolledDeliveryIsCollisionFree(t *testing.T) {
	n := newTestNet(2, fastCfg(), "GW", "S1", "S2", "S3")
	// Everyone piles traffic on at once — the exact pattern that makes
	// CSMA collide — including before a master even exists.
	for i, name := range []string{"S1", "S2", "S3"} {
		rf := n.rfs[name]
		for j := 0; j < 5; j++ {
			payload := []byte(fmt.Sprintf("%s-f%d", name, j))
			at := sim.Time(time.Duration(i) * 100 * time.Millisecond)
			n.s.At(at, func() { rf.Send(payload) })
		}
	}
	n.s.RunFor(4 * time.Minute)
	if n.ch.Stats.CollisionPairs != 0 {
		t.Fatalf("polled channel saw %d collision pairs, want 0", n.ch.Stats.CollisionPairs)
	}
	for _, name := range []string{"S1", "S2", "S3"} {
		if q := n.rfs[name].QueueLen(); q != 0 {
			t.Fatalf("%s still queues %d frames", name, q)
		}
		if sent := n.rfs[name].Stats.FramesSent; sent != 5 {
			t.Fatalf("%s transmitted %d data frames, want 5", name, sent)
		}
	}
	// The master heard every frame exactly once, unwrapped.
	got := n.heard["GW"]
	want := 15
	count := 0
	for _, h := range got {
		if strings.Contains(h, "-f") {
			count++
		}
	}
	if count != want {
		t.Fatalf("master heard %d data frames, want %d:\n%s", count, want, strings.Join(got, "\n"))
	}
	seen := map[string]int{}
	for _, h := range got {
		key := strings.SplitN(h, "@", 2)[0]
		seen[key]++
	}
	for k, c := range seen {
		if c > 1 {
			t.Fatalf("frame %q delivered %d times to the master", k, c)
		}
	}
	if n.ch.Waiters() != 0 {
		t.Fatalf("CSMA wait-list has %d entries on a DAMA channel", n.ch.Waiters())
	}
}

// Demand piggybacking: a station with a deep queue stays in the demand
// ring until drained, and the counters expose the poll economics.
func TestDemandWeightedService(t *testing.T) {
	cfg := fastCfg()
	cfg.Burst = 2
	n := newTestNet(3, cfg, "GW", "S1", "S2")
	rf := n.rfs["S1"]
	for j := 0; j < 7; j++ {
		rf.Send([]byte(fmt.Sprintf("S1-f%d", j)))
	}
	n.s.RunFor(3 * time.Minute)
	if rf.QueueLen() != 0 {
		t.Fatalf("S1 still queues %d frames", rf.QueueLen())
	}
	// 7 frames at Burst=2 need at least 4 reserved turns.
	if rf.Stats.PollsHeard < 4 {
		t.Fatalf("S1 heard %d polls, want >= 4 (Burst=2 over 7 frames)", rf.Stats.PollsHeard)
	}
	gw := n.rfs["GW"]
	if gw.Stats.PollsSent == 0 || gw.Stats.PollTimeouts != 0 {
		t.Fatalf("master polls=%d timeouts=%d, want >0 and 0", gw.Stats.PollsSent, gw.Stats.PollTimeouts)
	}
	// Fairness surface: airtime shares are visible without touching
	// internals, and control overhead is accounted on the channel.
	if gw.Stats.Airtime == 0 || rf.Stats.Airtime == 0 {
		t.Fatal("per-station airtime counters stayed zero")
	}
	if n.ch.Stats.ControlAirtime == 0 || n.ch.Stats.ControlFrames == 0 {
		t.Fatal("channel control-overhead counters stayed zero")
	}
	if n.ch.Stats.ControlAirtime >= n.ch.Stats.Airtime {
		t.Fatal("control airtime exceeds total airtime")
	}
	// Per-station shares must tile the channel's utilization exactly.
	var sum float64
	for _, r := range n.rfs {
		sum += r.AirtimeShare()
	}
	if u := n.ch.Utilization(); sum < u*0.999 || sum > u*1.001 {
		t.Fatalf("airtime shares sum to %.4f, channel utilization %.4f", sum, u)
	}
}

// The master's own traffic obeys the Burst cap: slaves are served even
// while the master has a standing backlog.
func TestMasterDoesNotStarveSlaves(t *testing.T) {
	cfg := fastCfg()
	cfg.Burst = 2
	n := newTestNet(4, cfg, "GW", "S1")
	gw, s1 := n.rfs["GW"], n.rfs["S1"]
	n.s.RunFor(10 * time.Second) // let GW take mastership
	for j := 0; j < 12; j++ {
		gw.Send([]byte(fmt.Sprintf("GW-f%d", j)))
	}
	s1.Send([]byte("S1-urgent"))
	n.s.RunFor(2 * time.Minute)
	if s1.QueueLen() != 0 {
		t.Fatal("slave frame never served while master drained its own queue")
	}
	// The slave's frame must land before the master's 12-frame backlog
	// finishes (Burst=2 forces a poll at least every 2 own frames).
	var slaveAt, lastGwAt string
	for _, h := range n.heard["GW"] {
		if strings.HasPrefix(h, "S1-urgent@") {
			slaveAt = h
		}
	}
	for _, h := range n.heard["S1"] {
		if strings.HasPrefix(h, "GW-f11@") {
			lastGwAt = h
		}
	}
	if slaveAt == "" || lastGwAt == "" {
		t.Fatalf("missing deliveries: slave=%q lastGw=%q", slaveAt, lastGwAt)
	}
	parse := func(s string) time.Duration {
		d, err := time.ParseDuration(strings.TrimPrefix(strings.SplitN(s, "@", 2)[1], "T+"))
		if err != nil {
			t.Fatalf("bad trace stamp %q: %v", s, err)
		}
		return d
	}
	if parse(slaveAt) > parse(lastGwAt) {
		t.Fatalf("slave served at %v, after the master's whole backlog (%v) — starvation", slaveAt, lastGwAt)
	}
}
