package world

import "testing"

// useReferencePaths switches every radio port of a built world onto
// the seed-era reference datapaths its seams keep for the equivalence
// tests: per-byte serial delivery (serial.Line.PerByte) and per-slot
// CSMA polling (radio.Params.PerSlotCSMA, CSMA ports only — a DAMA
// port never contends). A line reads PerByte only at a Write and a
// transceiver reads PerSlotCSMA only when it starts contending, so the
// flip is exact on a world that has not run yet — unless a constructor
// already queued bytes or frames (a gateway's AnnounceARP writes during
// NewLarge), which fails the test rather than mixing the two paths.
func useReferencePaths(t *testing.T, w *World, perByte, perSlot bool) {
	t.Helper()
	for name, h := range w.hosts {
		for ifName, p := range h.radios {
			if perByte {
				if p.Host.QueueLen() != 0 || p.Line.QueueLen() != 0 {
					t.Fatalf("%s/%s: serial line already carries bytes; PerByte would switch mid-stream", name, ifName)
				}
				p.Host.Line().PerByte = true
			}
			if perSlot && p.MAC != MACDAMA {
				if p.RF.QueueLen() != 0 {
					t.Fatalf("%s/%s: radio already contending; PerSlotCSMA would switch mid-access", name, ifName)
				}
				p.RF.Params.PerSlotCSMA = true
			}
		}
	}
}
