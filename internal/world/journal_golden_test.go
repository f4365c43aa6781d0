package world

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"testing"
	"time"

	"packetradio/internal/ip"
	"packetradio/internal/obs"
)

// Digests of the observer outputs, pinned from the ping ledger and the
// tracer as two separate recorders. Recording them through one packet
// journal must leave every byte of every output unchanged.
const (
	seattleFatesDigest = "ce863ccc403529d123581816a3f3621dffbebd37a488fc1b7d2108ead1b4af4a"
	seattleSpansDigest = "2d45e05f21970705fdbb229020de17e0443f7b5e7694620b6e919eeb6cd8436a"
	seattleTraceDigest = "0133f6c16eb915e2a35f8681e0de96ae0a8b3f3a3913a8535eae34dfd90617a2"
	resetSpansDigest   = "4dffab0c4f916fc58f173e8b2ec8041f7eb509613d32363106e2a30f03fb6a8a"
)

func sha(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// writeSpans prints a span stream one span a line, every field.
func writeSpans(w io.Writer, spans []obs.Span) {
	for _, s := range spans {
		fmt.Fprintf(w, "%d %d %s %s [%s] %s\n", s.Start, s.End, s.Stage, s.Who, s.Arg, s.ID)
	}
}

// saturatedFatesDigests are E16-style one-channel CSMA cells: N=200,
// where nothing gets through, and N=40, just past the knee.
var saturatedFatesDigests = map[int]string{
	200: "3bda62a146a04ea5507672d98ba8974ba6148450916e4714ae691d30a17dd289",
	40:  "aff0a3ef14d52a381a6d2447b1db40e45fe919965db1d2122bb6d3811a348d5f",
}

// TestObserverOutputDigests pins the ping ledger's fate table, the
// tracer's span stream and the flight recorder's Chrome trace on three
// worlds:
//
//   - E16's saturated CSMA cells with the ledger and the tracer
//     co-attached, on both engines;
//   - the Seattle world under DAMA, whose on-air frames carry the poll
//     wrapper, with pings both ways across the gateway and a burst
//     that overflows the gateway's serial queue;
//   - a two-channel scale world whose tracer is Reset between the
//     warm-up and the measured window, as the scenario runner does.
func TestObserverOutputDigests(t *testing.T) {
	for n, want := range saturatedFatesDigests {
		for _, workers := range []int{0, 2} {
			lw := NewLarge(LargeConfig{Seed: 1, Stations: n, Channels: 1, PingInterval: time.Minute, Workers: workers})
			led := lw.W.AttachPingLedger()
			lw.W.AttachTracer()
			lw.W.Run(30 * time.Second)
			lw.W.Run(3 * time.Minute)
			var b bytes.Buffer
			led.WriteFates(&b)
			if got := sha(b.Bytes()); got != want {
				t.Errorf("N=%d workers=%d: fate table digest %s, want %s\n%s", n, workers, got, want, b.String())
			}
		}
	}

	s := NewSeattle(SeattleConfig{Seed: 1, NumPCs: 3, MAC: MACDAMA})
	led := s.W.AttachPingLedger()
	tr := s.W.AttachTracer()
	fr := s.W.EnableFlightRecorder(1 << 16)
	fr.SetSpanSource(tr.Spans)
	for k := 0; k < 12; k++ {
		s.W.Sched.After(time.Duration(k)*10*time.Second, func() {
			for _, pc := range s.PCs {
				pc.Stack.Ping(InternetIP, 56, func(uint16, time.Duration, ip.Addr) {})
			}
			s.Internet.Stack.Ping(PCIP(1), 32, func(uint16, time.Duration, ip.Addr) {})
		})
	}
	s.W.Sched.After(30*time.Second, func() {
		for k := 0; k < 20; k++ {
			s.Internet.Stack.Ping(PCIP(2), 200, func(uint16, time.Duration, ip.Addr) {})
		}
	})
	s.W.Run(time.Minute)
	s.W.Run(time.Minute)
	var fates, spans, chrome bytes.Buffer
	led.WriteFates(&fates)
	writeSpans(&spans, tr.Spans())
	if err := fr.WriteTrace(&chrome); err != nil {
		t.Fatal(err)
	}
	if got := sha(fates.Bytes()); got != seattleFatesDigest {
		t.Errorf("DAMA Seattle fate table digest %s, want %s\n%s", got, seattleFatesDigest, fates.String())
	}
	if got := sha(spans.Bytes()); got != seattleSpansDigest {
		t.Errorf("DAMA Seattle span stream digest %s, want %s", got, seattleSpansDigest)
	}
	if got := sha(chrome.Bytes()); got != seattleTraceDigest {
		t.Errorf("DAMA Seattle Chrome trace digest %s, want %s", got, seattleTraceDigest)
	}

	for _, workers := range []int{0, 2} {
		lw := NewLarge(LargeConfig{Seed: 3, Stations: 40, Channels: 2, PingInterval: 30 * time.Second, Workers: workers})
		tr := lw.W.AttachTracer()
		lw.W.Run(time.Minute)
		tr.Reset()
		lw.W.Run(2 * time.Minute)
		var b bytes.Buffer
		writeSpans(&b, tr.Spans())
		if got := sha(b.Bytes()); got != resetSpansDigest {
			t.Errorf("workers=%d: span stream after Reset digest %s, want %s", workers, got, resetSpansDigest)
		}
	}
}
