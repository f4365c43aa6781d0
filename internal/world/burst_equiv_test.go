package world

import (
	"fmt"
	"testing"
	"time"

	"packetradio/internal/ax25"
	"packetradio/internal/ip"
)

// The end-to-end burst-equivalence regression: the whole Figure-1
// chain (driver → serial → TNC → radio and back) run once over the
// seed per-byte serial path and once over the burst path, with the
// same seed, must produce the identical sequence of link-layer frames
// at identical virtual timestamps, identical ping RTTs, and identical
// byte counters. This is the guarantee that lets every experiment keep
// its measured numbers after the datapath refactor.

type worldTrace struct {
	frames []string
	rtts   []time.Duration
	stats  string
}

func runSeattleTrace(t *testing.T, perByte bool) worldTrace {
	t.Helper()
	s := NewSeattle(SeattleConfig{Seed: 11, NumPCs: 2})
	useReferencePaths(t, s.W, perByte, false)
	var tr worldTrace
	// Monitor every frame (both directions) at the gateway and PC0
	// drivers, with timestamps.
	mon := func(host string) func(string, *ax25.Frame) {
		return func(dir string, f *ax25.Frame) {
			tr.frames = append(tr.frames, fmt.Sprintf("%v %s %s %s->%s pid=%#x len=%d",
				s.W.Sched.Now(), host, dir, f.Src, f.Dst, f.PID, len(f.Info)))
		}
	}
	s.Gateway.Radio("pr0").Driver.Monitor = mon("gw")
	s.PCs[0].Radio("pr0").Driver.Monitor = mon("pc1")

	ping := func(from *Host, dst ip.Addr, size int) {
		var rtt time.Duration
		got := false
		from.Stack.Ping(dst, size, func(_ uint16, d time.Duration, _ ip.Addr) {
			rtt = d
			got = true
			s.W.Sched.Halt()
		})
		s.W.Sched.RunUntil(s.W.Sched.Now().Add(5 * time.Minute))
		if !got {
			t.Fatalf("ping %s -> %v lost (perByte=%v)", from.Name, dst, perByte)
		}
		tr.rtts = append(tr.rtts, rtt)
	}

	// Cold-ARP ping, warm ping, a bigger payload, the reverse
	// direction, and a PC-to-PC exchange — enough traffic to cover
	// ARP, forwarding, and both serial directions on three hosts.
	ping(s.PCs[0], InternetIP, 8)
	ping(s.PCs[0], InternetIP, 64)
	ping(s.PCs[0], InternetIP, 216)
	ping(s.Internet, PCIP(1), 64)
	ping(s.PCs[1], PCIP(0), 32)
	s.W.Run(time.Minute) // let trailing frames drain

	for _, h := range []*Host{s.Gateway, s.PCs[0], s.PCs[1]} {
		p := h.Radio("pr0")
		tr.stats += fmt.Sprintf("%s host[s=%d r=%d] line[s=%d r=%d] drv[fed=%d kiss=%d ip=%d] tnc[up=%d down=%d]\n",
			h.Name, p.Host.BytesSent, p.Host.BytesReceived, p.Line.BytesSent, p.Line.BytesReceived,
			p.Driver.DStats.BytesFed, p.Driver.DStats.KISSFrames, p.Driver.DStats.IPIn,
			p.TNC.Stats.ToHost, p.TNC.Stats.FromHost)
	}
	return tr
}

func TestSeattleBurstEquivalence(t *testing.T) {
	old := runSeattleTrace(t, true)
	burst := runSeattleTrace(t, false)
	if len(old.frames) != len(burst.frames) {
		t.Fatalf("frame counts differ: %d per-byte vs %d burst", len(old.frames), len(burst.frames))
	}
	for i := range old.frames {
		if old.frames[i] != burst.frames[i] {
			t.Fatalf("frame %d differs:\n per-byte: %s\n burst:    %s", i, old.frames[i], burst.frames[i])
		}
	}
	for i := range old.rtts {
		if old.rtts[i] != burst.rtts[i] {
			t.Fatalf("ping %d RTT differs: %v per-byte vs %v burst", i, old.rtts[i], burst.rtts[i])
		}
	}
	if old.stats != burst.stats {
		t.Fatalf("counters differ:\n per-byte:\n%s\n burst:\n%s", old.stats, burst.stats)
	}
}

// The same equivalence on a corrupted serial line: the gateway's DZ
// line drops to 600 baud and damages one byte in ~500, so KISS frames
// get mangled in transit. Frame sequences, corruption counts and
// recovery behaviour must match the per-byte chain exactly (runs split
// at corruption points).
func TestSeattleBurstEquivalenceCorruptedLine(t *testing.T) {
	run := func(perByte bool) (string, uint64) {
		s := NewSeattle(SeattleConfig{Seed: 23, NumPCs: 1, Baud: 600})
		useReferencePaths(t, s.W, perByte, false)
		gw := s.Gateway.Radio("pr0")
		gw.Host.Line().CorruptRate = 0.002
		var log string
		s.Gateway.Radio("pr0").Driver.Monitor = func(dir string, f *ax25.Frame) {
			log += fmt.Sprintf("%v %s %s->%s len=%d\n", s.W.Sched.Now(), dir, f.Src, f.Dst, len(f.Info))
		}
		got := 0
		for i := 0; i < 8; i++ {
			s.PCs[0].Stack.Ping(InternetIP, 64, func(uint16, time.Duration, ip.Addr) { got++ })
			s.W.Run(90 * time.Second)
		}
		log += fmt.Sprintf("replies=%d corrupt=%d+%d bad=%d crc=%d",
			got, gw.Host.Corrupted, gw.Line.Corrupted,
			gw.Driver.DStats.BadFrames, gw.TNC.Stats.CRCErrors)
		return log, gw.Host.Corrupted + gw.Line.Corrupted
	}
	oldLog, oldCorrupt := run(true)
	burstLog, _ := run(false)
	if oldCorrupt == 0 {
		t.Fatal("corruption rate produced no damaged bytes; test is vacuous")
	}
	if oldLog != burstLog {
		t.Fatalf("corrupted-line traces differ:\n per-byte:\n%s\n burst:\n%s", oldLog, burstLog)
	}
}

// Burst mode must actually be cheaper: the same scenario fires far
// fewer scheduler events.
func TestBurstModeFiresFewerEvents(t *testing.T) {
	count := func(perByte bool) uint64 {
		s := NewSeattle(SeattleConfig{Seed: 31, NumPCs: 1})
		useReferencePaths(t, s.W, perByte, false)
		got := false
		s.PCs[0].Stack.Ping(InternetIP, 64, func(uint16, time.Duration, ip.Addr) { got = true })
		s.W.Run(2 * time.Minute)
		if !got {
			t.Fatal("ping lost")
		}
		return s.W.Sched.Fired()
	}
	old, burst := count(true), count(false)
	if burst*5 > old {
		t.Fatalf("burst fired %d events vs %d per-byte — want at least a 5x reduction", burst, old)
	}
}
