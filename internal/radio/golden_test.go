package radio

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math/rand"
	"testing"
	"time"

	"packetradio/internal/sim"
)

// channelOutcomeDigest pinned from the map-keyed channel bookkeeping
// that preceded station slots and hearer bitsets; any change to who
// hears what, when, and in which order changes it.
const channelOutcomeDigest = "af1d5acd29ed02c65d31f616d5d96517dc787d0731f932d23fa477f4fa6400c7"

// TestChannelOutcomeDigest pins every per-receiver outcome of a busy
// 70-station channel (so hearer bitsets span two 64-bit words) to a
// digest: asymmetric reachability cuts and heals land mid-frame, BER
// noise runs, one receiver retunes away and back during a frame that
// has already collided, a newcomer arrives mid-collision, and a sender
// is cut mid-frame by its own retune.
func TestChannelOutcomeDigest(t *testing.T) {
	if got := outcomeDigest(); got != channelOutcomeDigest {
		t.Fatalf("channel outcome digest = %s, want %s", got, channelOutcomeDigest)
	}
}

func outcomeDigest() string {
	const n = 70
	s := sim.NewScheduler(20250)
	ch := NewChannel(s, 1200)
	ch.BitErrorRate = 2e-4
	ch2 := NewChannel(s, 1200)
	h := sha256.New()
	tap := func(name string) func(sender, receiver *Transceiver, payload []byte, memo *any, outcome TapOutcome, consumed bool) {
		return func(sender, receiver *Transceiver, payload []byte, memo *any, outcome TapOutcome, consumed bool) {
			fmt.Fprintf(h, "%s %d %s>%s %v %v %d\n", name, s.Now(), sender.Name, receiver.Name, outcome, consumed, len(payload))
		}
	}
	ch.Taps = append(ch.Taps, tap("ch1"))
	ch2.Taps = append(ch2.Taps, tap("ch2"))

	rng := rand.New(rand.NewSource(7))
	var all []*Transceiver
	rfs := make([]*Transceiver, n)
	for i := range rfs {
		p := DefaultParams()
		p.Persist = []float64{0.25, 0.5, 1}[i%3]
		p.FullDuplex = i%17 == 5
		rfs[i] = ch.Attach(fmt.Sprintf("S%02d", i), p)
		all = append(all, rfs[i])
	}
	away := ch2.Attach("AWAY", DefaultParams())
	newcomer := ch2.Attach("NEW", DefaultParams())
	hub := ch2.Attach("HUB", DefaultParams())
	all = append(all, away, newcomer, hub)
	for _, rf := range all {
		name := rf.Name
		rf.SetReceiver(func(fr []byte, _ *any, damaged bool) {
			fmt.Fprintf(h, "rx %d %s %d %v\n", s.Now(), name, len(fr), damaged)
		})
	}

	// Background traffic: every station queues a few frames at random
	// instants over ten simulated minutes.
	for _, rf := range rfs {
		rf := rf
		for k := 0; k < 4; k++ {
			at := sim.Time(time.Duration(rng.Int63n(int64(600 * time.Second))))
			size := 20 + rng.Intn(200)
			s.At(at, func() { rf.Send(make([]byte, size)) })
		}
	}

	// Asymmetric cuts and heals at random instants, straddling the
	// word boundary at slot 64.
	for k := 0; k < 60; k++ {
		from, to := rfs[rng.Intn(n)], rfs[rng.Intn(n)]
		at := sim.Time(time.Duration(rng.Int63n(int64(600 * time.Second))))
		ok := k%3 == 2
		s.At(at, func() { ch.SetReachable(from, to, ok) })
	}
	s.At(sim.Time(100*time.Second), func() {
		ch.SetReachable(rfs[66], rfs[3], false)
		ch.SetReachable(rfs[3], rfs[69], false)
		ch.SetReachable(away, rfs[1], false) // set while AWAY is on ch2
		// Cuts on S40 that its retune at 700.6 s must heal.
		ch.SetReachable(rfs[40], rfs[2], false)
		ch.SetReachable(rfs[7], rfs[40], false)
	})

	// A forced collision: two full-duplex stations key up together at
	// 700 s; mid-frame, S40 retunes away and back (keeping its damage),
	// NEW arrives for the first time, and AWAY arrives carrying its
	// cut from 100 s.
	s.At(sim.Time(700*time.Second), func() {
		rfs[5].Send(make([]byte, 150))
		rfs[22].Send(make([]byte, 120))
	})
	s.At(sim.Time(700*time.Second+600*time.Millisecond), func() {
		rfs[40].Retune(ch2)
		newcomer.Retune(ch)
		away.Retune(ch)
	})
	s.At(sim.Time(700*time.Second+900*time.Millisecond), func() { rfs[40].Retune(ch) })
	s.At(sim.Time(701*time.Second), func() { ch.SetReachable(rfs[22], rfs[65], false) })

	// A sender cut mid-frame by its own retune, after which it talks on
	// ch2 and comes back.
	s.At(sim.Time(720*time.Second), func() { rfs[68].Send(make([]byte, 200)) })
	s.At(sim.Time(721*time.Second), func() { rfs[68].Retune(ch2) })
	s.At(sim.Time(722*time.Second), func() { rfs[68].Send(make([]byte, 40)) })
	s.At(sim.Time(740*time.Second), func() {
		rfs[68].Retune(ch)
		rfs[68].Send(make([]byte, 60))
		for _, rf := range rfs[:10] {
			rf.Send(make([]byte, 30))
		}
	})
	s.Run()

	for _, rf := range all {
		fmt.Fprintf(h, "stats %s %+v\n", rf.Name, rf.Stats)
	}
	fmt.Fprintf(h, "ch1 %+v\nch2 %+v\n", ch.Stats, ch2.Stats)
	return hex.EncodeToString(h.Sum(nil))
}
