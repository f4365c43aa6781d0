package world

import (
	"fmt"
	"testing"
	"time"
)

// World-level DAMA integration: the full Figure-1 chain (driver →
// serial → KISS TNC → transceiver) running over polled access instead
// of CSMA, on the saturated single-channel world E16 measures.

// damaWorld steps N stations on one channel under the given MAC and
// returns (delivery trace, replies).
func damaWorld(n int, mac MACMode, minutes int) (string, uint64, *Large) {
	lw := NewLarge(LargeConfig{
		Seed:         1,
		Stations:     n,
		Channels:     1,
		PingInterval: time.Minute,
		MAC:          mac,
	})
	lw.W.Run(time.Duration(minutes) * time.Minute)
	tr := fmt.Sprintf("sent=%d replies=%d\n", lw.Sent, lw.Replies)
	for i, st := range lw.Stations {
		p := st.Radio("pr0")
		tr += fmt.Sprintf("st%d sent=%d heard=%d polled=%d queue=%d\n",
			i, p.RF.Stats.FramesSent, p.RF.Stats.FramesHeard, p.RF.Stats.PollsHeard, p.RF.QueueLen())
	}
	ch := lw.Channels[0]
	tr += fmt.Sprintf("ch started=%d heard=%d collisions=%d airtime=%v control=%v\n",
		ch.Stats.FramesStarted, ch.Stats.FramesHeard, ch.Stats.CollisionPairs,
		ch.Stats.Airtime, ch.Stats.ControlAirtime)
	return tr, lw.Replies, lw
}

func TestDAMAWorldBeatsCSMAPastKnee(t *testing.T) {
	// 30 stations on one 1200 bps channel is past the E10/E14 knee:
	// CSMA collapses into collisions, polling must not.
	const n, minutes = 30, 6
	_, csmaReplies, csmaLW := damaWorld(n, MACCSMA, minutes)
	damaTr, damaReplies, damaLW := damaWorld(n, MACDAMA, minutes)

	if damaLW.Channels[0].Stats.CollisionPairs != 0 {
		t.Fatalf("DAMA channel saw %d collision pairs, want 0",
			damaLW.Channels[0].Stats.CollisionPairs)
	}
	if csmaLW.Channels[0].Stats.CollisionPairs == 0 {
		t.Fatal("CSMA control run saw no collisions; the world is not saturated and the comparison is vacuous")
	}
	if damaReplies <= csmaReplies {
		t.Fatalf("DAMA delivered %d replies vs CSMA %d on the saturated channel — polling must lift the knee",
			damaReplies, csmaReplies)
	}
	// The gateway (lowest callsign) is the natural master.
	gw := damaLW.Gateways[0].Radio("pr0").RF
	if gw.Stats.PollsSent == 0 {
		t.Fatal("the gateway issued no polls; someone else mastered the channel")
	}
	// Determinism: the full observable trace reproduces bit-for-bit.
	again, _, _ := damaWorld(n, MACDAMA, minutes)
	if damaTr != again {
		t.Fatalf("DAMA world diverges across identical seeds:\n-- one --\n%s\n-- two --\n%s", damaTr, again)
	}
}

// MoveHost re-joins a DAMA port on the destination channel's polling
// domain: the mobile keeps being served after the move.
func TestMoveHostRejoinsDAMA(t *testing.T) {
	lw := NewLarge(LargeConfig{
		Seed:         3,
		Stations:     8,
		Channels:     2,
		PingInterval: 30 * time.Second,
		MAC:          MACDAMA,
	})
	lw.W.Run(2 * time.Minute)
	mover := lw.Stations[0] // st0 sits on channel 0
	before := lw.W.DAMA(lw.Channels[0]).Members()
	lw.W.MoveHost(mover.Name, "pr0", lw.Channels[1])
	if got := lw.W.DAMA(lw.Channels[0]).Members(); got != before-1 {
		t.Fatalf("old channel roster %d after move, want %d", got, before-1)
	}
	rf := mover.Radio("pr0").RF
	polled := rf.Stats.PollsHeard
	lw.W.Run(3 * time.Minute)
	if rf.Stats.PollsHeard <= polled {
		t.Fatal("moved station never polled on the destination channel")
	}
	if rf.QueueLen() != 0 {
		t.Fatalf("moved station wedged with %d queued frames", rf.QueueLen())
	}
}
