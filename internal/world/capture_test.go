package world

import (
	"bytes"
	"reflect"
	"strings"
	"testing"
	"time"

	"packetradio/internal/obs"
)

// observers selects what observedRun attaches.
type observers struct {
	ledger, tracer, capture bool
}

// observed is everything an observedRun's observers produced.
type observed struct {
	fates      string // the rendered fate table
	spans      []obs.Span
	kiss, ipv4 []byte // pcap streams: gw1's KISS seam, st4's IP layer
	events     uint64
}

// observedRun builds a 24-station, 3-channel world on the given engine,
// attaches the selected observers, and runs the standard 3-minute
// probe schedule. The captures sit on two different channel shards:
// gw1 on channel 0, st4 on channel 1.
func observedRun(t *testing.T, workers int, mac MACMode, with observers) observed {
	t.Helper()
	lw := NewLarge(LargeConfig{
		Seed:         7,
		Stations:     24,
		Channels:     3,
		PingInterval: time.Minute,
		MAC:          mac,
		Workers:      workers,
	})
	if workers > 1 {
		lw.W.Shards().SetWorkers(workers)
	}
	var led *obs.PingLedger
	var tr *obs.Tracer
	var kiss, ipv4 bytes.Buffer
	if with.ledger {
		led = lw.W.AttachPingLedger()
	}
	if with.tracer {
		tr = lw.W.AttachTracer()
	}
	if with.capture {
		if _, err := lw.W.CapturePort("gw1", "pr0", &kiss, nil); err != nil {
			t.Fatal(err)
		}
		if _, err := lw.W.CaptureIP("st4", &ipv4, nil); err != nil {
			t.Fatal(err)
		}
	}
	lw.W.Run(3 * time.Minute)
	out := observed{kiss: kiss.Bytes(), ipv4: ipv4.Bytes(), events: lw.W.EventsFired()}
	if led != nil {
		var b strings.Builder
		led.WriteFates(&b)
		out.fates = b.String()
	}
	if tr != nil {
		out.spans = tr.Spans()
	}
	return out
}

// TestCaptureEngineInvariance pins the capture clock: pcap records are
// stamped with the capturing host's own scheduler, so a KISS capture at
// a gateway port and an IP capture at a station are byte-identical on
// the single-loop engine and on the sharded engine at any worker count.
// Stamping with the world's scheduler — the backbone shard's on the
// sharded engine — fails here.
func TestCaptureEngineInvariance(t *testing.T) {
	ref := observedRun(t, 0, MACCSMA, observers{capture: true})
	if len(ref.kiss) <= 24 || len(ref.ipv4) <= 24 {
		t.Fatalf("captures recorded no packets (%d and %d bytes)", len(ref.kiss), len(ref.ipv4))
	}
	for _, workers := range []int{2, 4} {
		got := observedRun(t, workers, MACCSMA, observers{capture: true})
		if !bytes.Equal(got.kiss, ref.kiss) {
			t.Errorf("workers=%d: KISS pcap differs from the single-loop engine's", workers)
		}
		if !bytes.Equal(got.ipv4, ref.ipv4) {
			t.Errorf("workers=%d: IP pcap differs from the single-loop engine's", workers)
		}
	}
}

// TestObserversCoAttached attaches the ledger, the tracer and both
// captures to one world. They share the seams' observer lists and one
// frame-decode cache per shard, yet each must produce exactly what it
// produces attached alone — and none may add an event. Run on both
// engines, under CSMA and under DAMA (whose on-air frames the shared
// decoder unwraps).
func TestObserversCoAttached(t *testing.T) {
	for _, mac := range []MACMode{MACCSMA, MACDAMA} {
		for _, workers := range []int{0, 4} {
			bare := observedRun(t, workers, mac, observers{})
			led := observedRun(t, workers, mac, observers{ledger: true})
			tr := observedRun(t, workers, mac, observers{tracer: true})
			capt := observedRun(t, workers, mac, observers{capture: true})
			all := observedRun(t, workers, mac, observers{ledger: true, tracer: true, capture: true})
			if led.fates == "" || len(tr.spans) == 0 || len(capt.kiss) <= 24 || len(capt.ipv4) <= 24 {
				t.Fatalf("mac=%v workers=%d: an observer saw no traffic", mac, workers)
			}
			for _, run := range []observed{led, tr, capt, all} {
				if run.events != bare.events {
					t.Fatalf("mac=%v workers=%d: observed run fired %d events, bare run %d",
						mac, workers, run.events, bare.events)
				}
			}
			if all.fates != led.fates {
				t.Errorf("mac=%v workers=%d: fate table differs with co-attached observers:\n%s--- alone\n%s",
					mac, workers, all.fates, led.fates)
			}
			if !reflect.DeepEqual(all.spans, tr.spans) {
				t.Errorf("mac=%v workers=%d: span stream differs with co-attached observers", mac, workers)
			}
			if !bytes.Equal(all.kiss, capt.kiss) || !bytes.Equal(all.ipv4, capt.ipv4) {
				t.Errorf("mac=%v workers=%d: pcap bytes differ with co-attached observers", mac, workers)
			}
		}
	}
}
