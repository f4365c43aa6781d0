package radio

import (
	"fmt"
	"testing"

	"packetradio/internal/ax25"
	"packetradio/internal/sim"
)

// uiFrame is an FCS-suffixed AX.25 UI frame, as a TNC keys it up.
func uiFrame(t *testing.T, info string) []byte {
	t.Helper()
	enc, err := ax25.NewUI(ax25.MustAddr("DST"), ax25.MustAddr("SRC"), ax25.PIDNone, []byte(info)).Encode(nil)
	if err != nil {
		t.Fatal(err)
	}
	return ax25.AppendFCS(enc)
}

// TestOneVerdictPerTransmission: every receiver of one transmission
// and the channel tap read the same ax25 verdict — pointer-equal, so
// the FCS and the decode ran once — while the next transmission gets a
// verdict of its own, and a receiver judging other bytes never
// disturbs the shared one.
func TestOneVerdictPerTransmission(t *testing.T) {
	s := sim.NewScheduler(1)
	ch := NewChannel(s, 1200)
	a := ch.Attach("A", fastParams())
	var seen []*ax25.Verdict
	for i := 0; i < 5; i++ {
		ch.Attach(fmt.Sprintf("R%d", i), fastParams()).SetReceiver(func(fr []byte, memo *any, damaged bool) {
			if damaged {
				t.Error("unexpected damage")
			}
			seen = append(seen, ax25.Judge(memo, fr, damaged))
		})
	}
	// A receiver holding a copy of the bytes is not handed the shared
	// verdict, and the slot keeps it.
	ch.Attach("COPY", fastParams()).SetReceiver(func(fr []byte, memo *any, _ bool) {
		own := ax25.Judge(memo, append([]byte(nil), fr...), false)
		if own == (*memo).(*ax25.Verdict) || own.Frame == nil {
			t.Error("a copy of the bytes read the shared verdict, or failed to decode")
		}
	})
	ch.Taps = append(ch.Taps, func(_, _ *Transceiver, payload []byte, memo *any, _ TapOutcome, _ bool) {
		seen = append(seen, ax25.Judge(memo, payload, false))
	})

	for _, info := range []string{"one", "two"} {
		seen = nil
		a.Send(uiFrame(t, info))
		s.Run()
		if len(seen) != 5+6 { // five receivers, six taps
			t.Fatalf("%s: %d judgements, want 11", info, len(seen))
		}
		for i, v := range seen {
			if v != seen[0] {
				t.Fatalf("%s: judgement %d is a different verdict", info, i)
			}
		}
		if v := seen[0]; !v.OK || v.Frame == nil || string(v.Frame.Info) != info {
			t.Fatalf("%s: verdict %+v", info, v)
		}
	}
}

// TestMemoClearedOnRelease: a pooled transmission record never hands
// its next transmission what a receiver left in the last one's memo,
// whether the last one completed or was cut short by a Retune.
func TestMemoClearedOnRelease(t *testing.T) {
	s := sim.NewScheduler(1)
	ch := NewChannel(s, 1200)
	away := NewChannel(s, 1200)
	a := ch.Attach("A", fastParams())
	n := 0
	ch.Attach("B", fastParams()).SetReceiver(func(_ []byte, memo *any, _ bool) {
		if *memo != nil {
			t.Fatalf("transmission %d arrived with memo %v", n, *memo)
		}
		*memo = n
		n++
	})
	for i := 0; i < 3; i++ {
		a.Send([]byte("frame"))
		s.Run()
	}
	// Cut the next one mid-frame: the truncated copy is delivered
	// damaged and the record returns to the pool.
	a.Send([]byte("cut"))
	s.RunFor(fastParams().TXDelay)
	a.Retune(away)
	a.Retune(ch)
	a.Send([]byte("after"))
	s.Run()
	if n != 5 {
		t.Fatalf("receiver saw %d transmissions, want 5", n)
	}
	if len(ch.txFree) != 1 {
		t.Fatalf("%d pooled records, want 1 reused throughout", len(ch.txFree))
	}
}
