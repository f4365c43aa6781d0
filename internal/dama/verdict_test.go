package dama

import (
	"bytes"
	"testing"
	"time"

	"packetradio/internal/ax25"
	"packetradio/internal/radio"
)

// TestMembersShareOneVerdict: a slave's wrapped data frame reaches
// every member unwrapped to the same bytes, so the members read one
// ax25 verdict keyed on that payload. A non-member is handed the raw
// wrapped bytes and judges them on its own — they fail the FCS —
// without disturbing the members' verdict.
func TestMembersShareOneVerdict(t *testing.T) {
	n := newTestNet(3, fastCfg(), "GW", "S1", "S2", "S3")
	out := n.ch.Attach("OUT", radio.DefaultParams())
	judged := map[string]*ax25.Verdict{}
	for name, rf := range map[string]*radio.Transceiver{"GW": n.rfs["GW"], "S2": n.rfs["S2"], "S3": n.rfs["S3"], "OUT": out} {
		name := name
		rf.SetReceiver(func(f []byte, memo *any, damaged bool) {
			if !damaged && bytes.Contains(f, []byte("dama data")) {
				judged[name] = ax25.Judge(memo, f, false)
			}
		})
	}
	n.s.RunFor(10 * time.Second) // elect a master
	enc, err := ax25.NewUI(ax25.MustAddr("GW"), ax25.MustAddr("S1"), ax25.PIDNone, []byte("dama data")).Encode(nil)
	if err != nil {
		t.Fatal(err)
	}
	n.rfs["S1"].Send(ax25.AppendFCS(enc))
	n.s.RunFor(time.Minute)

	if len(judged) != 4 {
		t.Fatalf("judged at %d receivers, want 4", len(judged))
	}
	shared := judged["GW"]
	if !shared.OK || shared.Frame == nil || string(shared.Frame.Info) != "dama data" {
		t.Fatalf("members' verdict %+v", shared)
	}
	if judged["S2"] != shared || judged["S3"] != shared {
		t.Fatal("members judged one transmission more than once")
	}
	if v := judged["OUT"]; v == shared || v.OK {
		t.Fatalf("the non-member's wrapped bytes got verdict %+v", v)
	}
}
