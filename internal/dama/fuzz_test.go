package dama

import (
	"fmt"
	"testing"
	"time"

	"packetradio/internal/radio"
	"packetradio/internal/sim"
)

// FuzzDAMA drives random demand and churn schedules through a polled
// channel — sends, directed reachability flips, retunes off and back
// onto the channel (with re-Join) — and checks the two properties no
// schedule may break: a frame is never delivered intact twice to the
// same receiver, and once the topology heals the poll loop serves
// every queue dry (no deadlock, no leaked waiters).
func FuzzDAMA(f *testing.F) {
	f.Add(int64(1), []byte{2, 0, 1, 4, 1, 2, 3, 2, 0, 8, 0, 1, 2})
	f.Add(int64(9), []byte{3, 2, 3, 1, 1, 0, 6, 2, 2, 2, 0, 3, 9, 1, 1, 0})
	f.Add(int64(42), []byte{1, 2, 5, 5, 2, 1, 7, 2, 1, 7, 0, 0, 1})
	f.Fuzz(func(t *testing.T, seed int64, prog []byte) {
		if len(prog) == 0 {
			return
		}
		if len(prog) > 64 {
			prog = prog[:64] // bound one exec
		}
		header, ops := prog[0], prog[1:]
		stations := 2 + int(header&0x3)

		s := sim.NewScheduler(seed)
		ch := radio.NewChannel(s, 1200)
		far := radio.NewChannel(s, 1200) // where retuned stations roam
		ctl := New(ch, Config{
			ElectionTimeout: 2 * time.Second,
			ElectionStep:    time.Second,
			IdleGap:         500 * time.Millisecond,
			Burst:           2,
		})
		rfs := make([]*radio.Transceiver, stations)
		away := make([]bool, stations)
		// heard[i][payload] counts intact deliveries at station i.
		heard := make([]map[string]int, stations)
		for i := range rfs {
			rfs[i] = ch.Attach(fmt.Sprintf("S%d", i), radio.DefaultParams())
			heard[i] = make(map[string]int)
			i := i
			rfs[i].SetReceiver(func(fr []byte, _ *any, damaged bool) {
				if damaged {
					return
				}
				heard[i][string(fr)]++
			})
			ctl.Join(rfs[i])
		}
		frameID := 0
		edgeCut := make(map[[2]int]bool) // directed cuts in force
		for o := 0; o+2 < len(ops); o += 3 {
			cmd, x, y := ops[o], int(ops[o+1]), ops[o+2]
			s.RunFor(time.Duration(y) * 300 * time.Millisecond)
			st := x % stations
			switch cmd % 4 {
			case 0, 1: // queue a uniquely tagged frame
				frameID++
				rfs[st].Send([]byte(fmt.Sprintf("f%d-from-S%d", frameID, st)))
			case 2: // flip one directed reachability edge
				to := int(y) % stations
				if to != st {
					key := [2]int{st, to}
					edgeCut[key] = !edgeCut[key]
					ch.SetReachable(rfs[st], rfs[to], !edgeCut[key])
				}
			case 3: // retune away / back (with re-Join)
				if away[st] {
					rfs[st].Retune(ch)
					ctl.Join(rfs[st])
				} else {
					rfs[st].Retune(far)
				}
				away[st] = !away[st]
			}
		}
		// Heal: everyone back on the channel, full mesh restored.
		for i, rf := range rfs {
			if away[i] {
				rf.Retune(ch)
				ctl.Join(rf)
			}
			for _, other := range rfs {
				if other != rf {
					ch.SetReachable(rf, other, true)
				}
			}
		}
		s.RunFor(15 * time.Minute)

		for i, rf := range rfs {
			if q := rf.QueueLen(); q != 0 {
				t.Fatalf("S%d wedged with %d queued frames after heal — poll loop deadlock", i, q)
			}
			for payload, cnt := range heard[i] {
				if cnt > 1 {
					t.Fatalf("S%d received %q intact %d times", i, payload, cnt)
				}
			}
		}
		if ch.Waiters() != 0 {
			t.Fatalf("wait-list leaked %d entries", ch.Waiters())
		}
		if ctl.Master() == nil {
			t.Fatal("no master on a healed, fully populated channel")
		}
	})
}
