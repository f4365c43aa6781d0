package world

import (
	"reflect"
	"sort"
	"strings"
	"testing"
	"time"

	"packetradio/internal/obs"
	"packetradio/internal/radio"
	"packetradio/internal/sim"
)

// largeRun builds a multi-channel NewLarge on the given engine and runs
// the standard probe schedule: 1-minute pings, 3 simulated minutes.
func largeRun(t *testing.T, workers, stations, channels int) *Large {
	t.Helper()
	lw := NewLarge(LargeConfig{
		Seed:         7,
		Stations:     stations,
		Channels:     channels,
		PingInterval: time.Minute,
		Workers:      workers,
	})
	if workers > 1 {
		// The constructor caps executors at GOMAXPROCS; tests force the
		// count so CI's -race job exercises real concurrency even on a
		// single-core runner.
		lw.W.Shards().SetWorkers(workers)
	}
	lw.W.Run(3 * time.Minute)
	return lw
}

// TestShardedMatchesSequential is the engine-equivalence regression:
// the same seed on the single-loop and sharded engines must produce the
// same traffic — equal probes sent, equal replies, and the identical
// multiset of RTTs — over every probe transport and under DAMA. The
// construction-order derive trick (NewLarge doc) is what makes this
// exact rather than statistical. Both engines run one physics, so they
// also fire the same events: equal totals, and the same flight-recorder
// stream as a multiset of (T, Cat, Name, Arg) (the engines interleave
// same-instant events of different shards differently, so the merged
// order is not compared). The DAMA row lines its polls up across
// channels, so echo requests from two channels reach the Internet host
// at the same instant and the engines hand them over in different
// orders; per-destination IP IDs keep that order out of the replies.
func TestShardedMatchesSequential(t *testing.T) {
	for _, tc := range []struct {
		name      string
		transport TransportMode
		mac       MACMode
	}{
		{"icmp", TransportICMP, MACCSMA},
		{"tcp", TransportTCP, MACCSMA},
		{"rdm", TransportRDM, MACCSMA},
		{"dama", TransportICMP, MACDAMA},
	} {
		t.Run(tc.name, func(t *testing.T) {
			run := func(workers int) (*Large, []obs.FlightEvent) {
				lw := NewLarge(LargeConfig{
					Seed:         7,
					Stations:     60,
					Channels:     6,
					PingInterval: time.Minute,
					Workers:      workers,
					Transport:    tc.transport,
					MAC:          tc.mac,
				})
				fr := lw.W.EnableFlightRecorder(1 << 16)
				lw.W.Run(3 * time.Minute)
				if fr.Dropped() != 0 {
					t.Fatalf("workers=%d: flight recorder overwrote %d events; raise the capacity", workers, fr.Dropped())
				}
				evs := fr.Events()
				sort.Slice(evs, func(i, j int) bool {
					a, b := evs[i], evs[j]
					if a.T != b.T {
						return a.T < b.T
					}
					if a.Cat != b.Cat {
						return a.Cat < b.Cat
					}
					if a.Name != b.Name {
						return a.Name < b.Name
					}
					return a.Arg < b.Arg
				})
				return lw, evs
			}
			seq, seqEvs := run(0)
			shd, shdEvs := run(1)

			if seq.Sent != shd.Sent || seq.Replies != shd.Replies {
				t.Fatalf("engines disagree: sequential sent=%d replies=%d, sharded sent=%d replies=%d",
					seq.Sent, seq.Replies, shd.Sent, shd.Replies)
			}
			if seq.Replies == 0 {
				t.Fatal("no replies delivered — the scenario is not exercising the network")
			}
			// Channel-access accounting must agree too: both engines lose
			// the same probes to the same MAC fates, station by station.
			for i := range seq.Stations {
				sa := seq.Stations[i].Radio("pr0").RF.Stats
				sb := shd.Stations[i].Radio("pr0").RF.Stats
				if sa != sb {
					t.Fatalf("station %d TxStats differ:\nsequential %+v\nsharded    %+v", i, sa, sb)
				}
			}
			if seq.W.EventsFired() != shd.W.EventsFired() {
				t.Fatalf("event totals differ: sequential %d, sharded %d", seq.W.EventsFired(), shd.W.EventsFired())
			}
			a := append([]time.Duration(nil), seq.RTTs...)
			b := append([]time.Duration(nil), shd.RTTs...)
			sort.Slice(a, func(i, j int) bool { return a[i] < a[j] })
			sort.Slice(b, func(i, j int) bool { return b[i] < b[j] })
			if !reflect.DeepEqual(a, b) {
				t.Fatalf("RTT multisets differ: sequential %d samples, sharded %d", len(a), len(b))
			}
			if len(seqEvs) != len(shdEvs) {
				t.Fatalf("flight-recorder streams differ in length: sequential %d, sharded %d", len(seqEvs), len(shdEvs))
			}
			for i := range seqEvs {
				if seqEvs[i] != shdEvs[i] {
					t.Fatalf("flight-recorder streams differ at %d (sorted):\nsequential %+v\nsharded    %+v",
						i, seqEvs[i], shdEvs[i])
				}
			}
		})
	}
}

// TestEnginesAgreeAtScale runs the world where the engines once
// diverged: N=1000 on 40 channels, past the seventh simulated minute.
// There, echo requests from two channels reached the Internet host at
// the same instant, the engines handed them over in different orders,
// and the replies drew their IP IDs from one shared counter in that
// order; an ID that KISS escapes lengthened a frame. With IDs counted
// per destination the engines agree on every probe: replies, the RTT
// sequence, each station's radio accounting and the ping fate table.
func TestEnginesAgreeAtScale(t *testing.T) {
	if testing.Short() {
		t.Skip("N=1000 on 40 channels for 8 simulated minutes, on both engines")
	}
	run := func(workers int) (*Large, *obs.PingLedger) {
		lw := NewLarge(LargeConfig{Seed: 1, Stations: 1000, Channels: 40, PingInterval: time.Minute, Workers: workers})
		led := lw.W.AttachPingLedger()
		lw.W.Run(8 * time.Minute)
		return lw, led
	}
	seq, seqLed := run(0)
	shd, shdLed := run(2)
	if seq.Replies == 0 || seq.Replies != shd.Replies || seq.Sent != shd.Sent {
		t.Fatalf("sequential sent=%d replies=%d, sharded sent=%d replies=%d", seq.Sent, seq.Replies, shd.Sent, shd.Replies)
	}
	if !reflect.DeepEqual(seq.RTTs, shd.RTTs) {
		t.Fatal("the engines' RTT sequences differ")
	}
	for i := range seq.Stations {
		if sa, sb := seq.Stations[i].Radio("pr0").RF.Stats, shd.Stations[i].Radio("pr0").RF.Stats; sa != sb {
			t.Fatalf("station %d TxStats differ:\nsequential %+v\nsharded    %+v", i, sa, sb)
		}
	}
	if !reflect.DeepEqual(seqLed.Fates(), shdLed.Fates()) {
		t.Fatalf("fate tables differ:\nsequential %v\nsharded    %v", seqLed.Fates(), shdLed.Fates())
	}
}

// TestShardedWorkerInvariance pins the conservative protocol's core
// promise: results are bit-identical regardless of how many goroutines
// execute the windows — same counts AND the same merge order, so the
// unsorted RTT sequence matches element for element. Run under -race in
// CI this is also the data-race gate for the parallel executor.
func TestShardedWorkerInvariance(t *testing.T) {
	one := largeRun(t, 1, 100, 8)
	four := largeRun(t, 4, 100, 8)

	if one.Sent != four.Sent || one.Replies != four.Replies {
		t.Fatalf("worker count changed traffic: w1 sent=%d replies=%d, w4 sent=%d replies=%d",
			one.Sent, one.Replies, four.Sent, four.Replies)
	}
	if one.Replies == 0 {
		t.Fatal("no replies delivered")
	}
	if len(one.RTTs) != len(four.RTTs) {
		t.Fatalf("RTT count differs: w1 %d, w4 %d", len(one.RTTs), len(four.RTTs))
	}
	for i := range one.RTTs {
		if one.RTTs[i] != four.RTTs[i] {
			t.Fatalf("RTT order differs at %d: w1 %v, w4 %v", i, one.RTTs[i], four.RTTs[i])
		}
	}
	if one.W.EventsFired() != four.W.EventsFired() {
		t.Fatalf("event totals differ: w1 %d, w4 %d", one.W.EventsFired(), four.W.EventsFired())
	}
	// Per-shard counters are part of the determinism contract too.
	sa, sb := one.W.ShardStats(), four.W.ShardStats()
	for i := range sa {
		if sa[i] != sb[i] {
			t.Fatalf("shard %q stats differ across worker counts: %+v vs %+v", sa[i].Name, sa[i], sb[i])
		}
	}
}

// TestShardedLedgerMatchesSequential pins the ping fate ledger's
// engine independence: the per-shard lanes merge into the same fate
// table — and the same rendered report — on the single-loop engine and
// at any worker count.
func TestShardedLedgerMatchesSequential(t *testing.T) {
	run := func(workers int) *obs.PingLedger {
		lw := NewLarge(LargeConfig{
			Seed:         7,
			Stations:     60,
			Channels:     6,
			PingInterval: time.Minute,
			Workers:      workers,
		})
		if workers > 1 {
			lw.W.Shards().SetWorkers(workers)
		}
		led := lw.W.AttachPingLedger()
		lw.W.Run(3 * time.Minute)
		return led
	}
	ref := run(0)
	if ref.Sent() == 0 || ref.Delivered() == 0 {
		t.Fatalf("ledger saw no traffic: sent=%d delivered=%d", ref.Sent(), ref.Delivered())
	}
	var refReport strings.Builder
	ref.WriteFates(&refReport)
	for _, workers := range []int{1, 4} {
		led := run(workers)
		if led.Sent() != ref.Sent() || led.Delivered() != ref.Delivered() {
			t.Fatalf("workers=%d: sent/delivered %d/%d differ from sequential %d/%d",
				workers, led.Sent(), led.Delivered(), ref.Sent(), ref.Delivered())
		}
		if !reflect.DeepEqual(led.Fates(), ref.Fates()) {
			t.Fatalf("workers=%d fate table differs:\nsequential %v\nsharded    %v",
				workers, ref.Fates(), led.Fates())
		}
		var report strings.Builder
		led.WriteFates(&report)
		if report.String() != refReport.String() {
			t.Fatalf("workers=%d fate report differs:\n--- sequential\n%s--- sharded\n%s",
				workers, refReport.String(), report.String())
		}
	}
}

// TestRetuneMidTransmissionAcrossEngines retunes a station to another
// channel while one of its frames is on the air — the nastiest spot
// for a shard boundary, since the channel's delivery events and the
// station's MAC state race in wall-clock but must not in virtual time.
// Airtime accounting has to agree exactly across engines, and differ
// from an undisturbed control run (proving the retune actually landed
// mid-flight).
func TestRetuneMidTransmissionAcrossEngines(t *testing.T) {
	const stations, channels = 12, 1

	// Probe run: find when station 0's first frame keys up and how
	// long it airs, to aim the retune at the middle of that frame.
	var txStart sim.Time
	var frameLen int
	probe := NewLarge(LargeConfig{
		Seed: 11, Stations: stations, Channels: channels, PingInterval: time.Minute,
	})
	rf0 := probe.Stations[0].Radio("pr0").RF
	rf0.TraceMAC = func(event string, frame []byte, _ uint64) {
		if event == "tx-start" && frameLen == 0 {
			txStart = probe.Stations[0].Sched().Now()
			frameLen = len(frame)
		}
	}
	probe.W.Run(3 * time.Minute)
	if frameLen == 0 {
		t.Fatal("station 0 never transmitted in the probe run")
	}
	mid := txStart.Add(probe.Channels[0].AirTime(frameLen) / 2)

	type result struct {
		tx      radio.TxStats
		airtime time.Duration
	}
	run := func(workers int, retune bool) result {
		lw := NewLarge(LargeConfig{
			Seed: 11, Stations: stations, Channels: channels, PingInterval: time.Minute,
			Workers: workers,
		})
		if workers > 1 {
			lw.W.Shards().SetWorkers(workers)
		}
		st := lw.Stations[0]
		rf := st.Radio("pr0").RF
		if retune {
			extra := radio.NewChannel(st.Sched(), lw.Cfg.BitRate)
			st.Sched().At(mid, func() { rf.Retune(extra) })
		}
		lw.W.Run(3 * time.Minute)
		return result{tx: rf.Stats, airtime: lw.Channels[0].Stats.Airtime}
	}

	seq := run(0, true)
	control := run(0, false)
	if seq == control {
		t.Fatalf("retune at %v changed nothing — it did not land mid-transmission", mid)
	}
	for _, workers := range []int{1, 4} {
		shd := run(workers, true)
		if shd != seq {
			t.Fatalf("workers=%d diverges after mid-transmission retune:\nsequential %+v\nsharded    %+v",
				workers, seq, shd)
		}
	}
}

// TestShardedRerunDeterminism pins that a sharded run is a pure
// function of the seed: build twice, compare exactly.
func TestShardedRerunDeterminism(t *testing.T) {
	a := largeRun(t, 2, 50, 5)
	b := largeRun(t, 2, 50, 5)
	if a.Sent != b.Sent || a.Replies != b.Replies || len(a.RTTs) != len(b.RTTs) {
		t.Fatalf("reruns differ: %d/%d/%d vs %d/%d/%d",
			a.Sent, a.Replies, len(a.RTTs), b.Sent, b.Replies, len(b.RTTs))
	}
	for i := range a.RTTs {
		if a.RTTs[i] != b.RTTs[i] {
			t.Fatalf("rerun RTT[%d] differs: %v vs %v", i, a.RTTs[i], b.RTTs[i])
		}
	}
	if a.W.Shards().Crossings() != b.W.Shards().Crossings() {
		t.Fatalf("crossings differ: %d vs %d", a.W.Shards().Crossings(), b.W.Shards().Crossings())
	}
}

// TestShardedIdleChannelNoStall is the starvation case: with more
// channels than stations some shards hold no events at all, and an idle
// shard must contribute no horizon bound — the busy channels advance,
// traffic flows, and the run terminates.
func TestShardedIdleChannelNoStall(t *testing.T) {
	lw := NewLarge(LargeConfig{
		Seed:         3,
		Stations:     4,
		Channels:     8, // channels 5..8 have no stations: idle shards
		PingInterval: time.Minute,
		Workers:      2,
	})
	done := make(chan struct{})
	go func() {
		lw.W.Run(3 * time.Minute)
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("sharded run stalled — an idle shard is holding the horizon back")
	}
	if lw.Replies == 0 {
		t.Fatalf("no replies with idle channels present (sent=%d)", lw.Sent)
	}
}
