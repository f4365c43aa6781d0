package radio

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"packetradio/internal/sim"
)

// FuzzContention cross-checks the event-driven contention engine
// against the seed per-slot polling path on arbitrary traffic
// programs, the way FuzzDecoder cross-checks bulk KISS decode against
// PutByte. The fuzz input is a tiny byte-coded schedule of triples
// (op, arg, gap). An op byte below 0x80 queues one frame of 16+arg
// bytes from station op; 0x80|x flips the directed reachability edge
// arg→x mid-schedule; 0xC0|x retunes station arg to a second channel,
// or back if it is away. A header byte picks the station count (above
// 64 with 0x20, so hearer bitsets span two words), bit-error rate and
// an optional hidden pair. Both modes must produce the identical
// delivery trace and drain the wait-list.
func FuzzContention(f *testing.F) {
	f.Add(int64(1), []byte{3, 0, 0, 50, 1, 1, 60, 2, 2, 80, 3})
	f.Add(int64(7), []byte{0x85, 0, 200, 0, 1, 200, 0, 2, 200, 0, 3, 200, 0})
	f.Add(int64(42), []byte{0x43, 0, 10, 5, 1, 120, 0, 1, 30, 2, 0, 90, 7})
	f.Add(int64(3), []byte{0x21, 0, 40, 0, 65, 90, 0, 0x80 | 2, 66, 1, 0xC0, 65, 2, 64, 30, 0, 0xC0, 65, 9, 0x80 | 2, 66, 0, 3, 10, 0})
	f.Add(int64(5), []byte{0x62, 1, 200, 0, 0xC0, 1, 1, 2, 20, 0, 0x80 | 1, 2, 3, 0xC0, 1, 4, 0x80 | 1, 2, 0})
	f.Fuzz(func(t *testing.T, seed int64, prog []byte) {
		if len(prog) == 0 {
			return
		}
		if len(prog) > 64 {
			prog = prog[:64] // bound the schedule so one exec stays cheap
		}
		header, ops := prog[0], prog[1:]
		stations := 2 + int(header&0x3)
		if header&0x20 != 0 {
			stations += 64
		}
		noisy := header&0x40 != 0
		hidden := header&0x80 != 0

		run := func(perSlot bool) string {
			s := sim.NewScheduler(seed)
			ch := NewChannel(s, 1200)
			if noisy {
				ch.BitErrorRate = 1e-4
			}
			far := NewChannel(s, 1200)
			var tr strings.Builder
			far.Attach("FAR", DefaultParams()).SetReceiver(func(fr []byte, _ *any, damaged bool) {
				fmt.Fprintf(&tr, "%v FAR len=%d damaged=%v\n", s.Now(), len(fr), damaged)
			})
			rfs := make([]*Transceiver, stations)
			for i := range rfs {
				p := DefaultParams()
				p.PerSlotCSMA = perSlot
				rfs[i] = ch.Attach(fmt.Sprintf("S%d", i), p)
				i := i
				rfs[i].SetReceiver(func(fr []byte, _ *any, damaged bool) {
					fmt.Fprintf(&tr, "%v S%d len=%d damaged=%v\n", s.Now(), i, len(fr), damaged)
				})
			}
			if hidden {
				ch.SetReachable(rfs[0], rfs[1], false)
				ch.SetReachable(rfs[1], rfs[0], false)
			}
			at := time.Duration(0)
			cut := make(map[[2]int]bool)
			for o := 0; o+2 < len(ops); o += 3 {
				op, arg := ops[o], int(ops[o+1])
				at += time.Duration(ops[o+2]) * 100 * time.Millisecond
				// Reachability and tuning changes land off the 100 ms
				// send grid, so no op ties with a slot instant.
				mid := sim.Time(at + 37*time.Millisecond)
				switch {
				case op < 0x80:
					st, size := rfs[int(op)%stations], 16+arg
					s.At(sim.Time(at), func() { st.Send(make([]byte, size)) })
				case op < 0xC0:
					edge := [2]int{arg % stations, int(op&0x3F) % stations}
					cut[edge] = !cut[edge]
					from, to, ok := rfs[edge[0]], rfs[edge[1]], !cut[edge]
					s.At(mid, func() { ch.SetReachable(from, to, ok) })
				default:
					st := rfs[arg%stations]
					s.At(mid, func() {
						// The per-slot path keeps a mid-defer contender's
						// slot grid across a retune; the event-driven path
						// re-anchors it. Retune only outside a deferral,
						// where the two agree (a transmission in flight is
						// cut either way).
						if st.AccessPending() {
							return
						}
						if st.Channel() == ch {
							st.Retune(far)
						} else {
							st.Retune(ch)
						}
					})
				}
			}
			s.Run()
			for i, rf := range rfs {
				fmt.Fprintf(&tr, "final S%d %+v queue=%d\n", i, rf.Stats, rf.QueueLen())
			}
			fmt.Fprintf(&tr, "channel %+v\n", ch.Stats)
			if ch.Waiters() != 0 {
				t.Fatalf("wait-list leaked %d entries (perSlot=%v)", ch.Waiters(), perSlot)
			}
			for i, rf := range rfs {
				if rf.QueueLen() != 0 {
					t.Fatalf("S%d wedged with %d queued frames (perSlot=%v)", i, rf.QueueLen(), perSlot)
				}
			}
			return tr.String()
		}
		old, ev := run(true), run(false)
		if old != ev {
			ol, el := strings.Split(old, "\n"), strings.Split(ev, "\n")
			for i := 0; i < len(ol) && i < len(el); i++ {
				if ol[i] != el[i] {
					t.Fatalf("modes diverge at line %d:\n per-slot: %s\n event:    %s", i, ol[i], el[i])
				}
			}
			t.Fatalf("trace lengths differ: %d vs %d lines", len(ol), len(el))
		}
	})
}
