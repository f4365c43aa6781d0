// Simulator-core benchmarks: the deterministic cost of stepping the
// Figure-1 chain and the scale worlds, in scheduler events. Test
// WriteSimCoreBench regenerates BENCH_simcore.json so the repo carries
// the event trajectory of the simulator itself alongside the
// socket-layer numbers in BENCH_sockets.json. Every value is a pure
// function of the code and the fixed seeds (virtual clock), so
// regenerating the file on any machine leaves it unchanged unless the
// simulation itself changed; wall-clock figures live in perfbench,
// which reports medians with a machine fingerprint.
package packetradio

import (
	"encoding/json"
	"fmt"
	"os"
	"testing"
	"time"

	"packetradio/internal/experiments"
	"packetradio/internal/ip"
	"packetradio/internal/sim"
	"packetradio/internal/world"
)

// macCell measures one E16 cell (N stations, one channel, one MAC) for
// the bench JSON. Every field is deterministic.
func macCell(n int, mac world.MACMode) map[string]float64 {
	pt := experiments.MACRun(n, mac)
	return map[string]float64{
		"sent":             float64(pt.Sent),
		"replies":          float64(pt.Replies),
		"delivery_ratio":   pt.Delivery,
		"median_rtt_ms":    float64(pt.MedianRTT) / float64(time.Millisecond),
		"events_per_sim_s": pt.EventsPerSimS,
		"collisions":       float64(pt.Collisions),
		"deferrals":        float64(pt.Deferrals),
		"polls":            float64(pt.PollsSent),
		"poll_timeouts":    float64(pt.PollTimeouts),
		"control_share":    pt.ControlShare,
	}
}

// seattlePingIters is the iteration count behind the events/op numbers
// in BENCH_simcore.json. TestEventGate recomputes with the same count:
// the quotient depends on it (ARP refresh and ICMP id sequencing
// amortize differently over different windows), so gate and baseline
// must share it.
const seattlePingIters = 20000

// seattlePing steps iters warm pings through the full chain and
// returns the scheduler events per ping.
func seattlePing(iters int) float64 {
	s := world.NewSeattle(world.SeattleConfig{Seed: 1, NumPCs: 1})
	done := false
	s.PCs[0].Stack.Ping(world.GatewayIP, 8, func(uint16, time.Duration, ip.Addr) { done = true })
	s.W.Run(5 * time.Minute)
	if !done {
		panic("warmup ping failed")
	}
	firedBefore := s.W.Sched.Fired()
	for i := 0; i < iters; i++ {
		ok := false
		s.PCs[0].Stack.Ping(world.GatewayIP, 64, func(uint16, time.Duration, ip.Addr) { ok = true })
		s.W.Run(time.Minute)
		if !ok {
			panic("ping lost")
		}
	}
	return float64(s.W.Sched.Fired()-firedBefore) / float64(iters)
}

func schedulerAllocsPerOp() float64 {
	s := sim.NewScheduler(1)
	s.After(time.Microsecond, func() {})
	s.Step()
	return testing.AllocsPerRun(1000, func() {
		s.After(time.Microsecond, func() {})
		s.Step()
	})
}

// tracingEventsPerSimS steps the E14 N-station world (Seed 1,
// 1-minute pings) with or without the packet tracer attached and
// reports the timed window's event rate. The tracer's hooks ride
// existing events — they never schedule their own — so both numbers
// must be identical; BENCH_simcore.json carries the pair and
// TestEventGate holds it to exact equality.
func tracingEventsPerSimS(n int, traced bool) float64 {
	lw := world.NewLarge(world.LargeConfig{
		Seed: 1, Stations: n, PingInterval: time.Minute,
	})
	if traced {
		lw.W.AttachTracer()
	}
	lw.W.Run(30 * time.Second)
	before := lw.W.Sched.Fired()
	const simWindow = 3 * time.Minute
	lw.W.Run(simWindow)
	return float64(lw.W.Sched.Fired()-before) / simWindow.Seconds()
}

// TestWriteSimCoreBench regenerates BENCH_simcore.json and asserts
// the deterministic invariants behind it: the hot scheduler loop does
// not allocate, DAMA lifts the CSMA knee collision-free, both engines
// agree exactly, and the tracer perturbs nothing.
func TestWriteSimCoreBench(t *testing.T) {
	seattleEvents := seattlePing(seattlePingIters)
	allocs := schedulerAllocsPerOp()
	if allocs != 0 {
		t.Fatalf("scheduler After+Step allocates %.2f objects/op, want 0", allocs)
	}

	scaling := map[string]any{}
	for _, n := range []int{10, 50, 100, 200} {
		pt := experiments.ScaleRun(n)
		scaling[fmt.Sprintf("n%d", n)] = map[string]float64{
			"events_per_sim_s": pt.EventsPerSimS,
			"delivery_ratio":   pt.Delivery,
		}
	}

	// E16: the DAMA-vs-CSMA single-channel sweep. The acceptance bar
	// for the MAC subsystem is delivery strictly ahead at N=100, and a
	// collision-free channel at every saturation level.
	mac := map[string]any{}
	for _, n := range []int{10, 50, 100, 200} {
		c := macCell(n, world.MACCSMA)
		d := macCell(n, world.MACDAMA)
		if n == 100 && d["replies"] <= c["replies"] {
			t.Fatalf("N=100: DAMA delivered %.0f replies vs CSMA %.0f — the knee did not lift",
				d["replies"], c["replies"])
		}
		if d["collisions"] != 0 {
			t.Fatalf("N=%d: DAMA channel recorded %.0f collision pairs, want 0", n, d["collisions"])
		}
		mac[fmt.Sprintf("n%d", n)] = map[string]any{"csma": c, "dama": d}
	}

	// E17: the SOCK_RDM-vs-TCP transfer grid. Every field is a pure
	// function of the seed — packet and message counts gate exactly in
	// TestEventGate, like the E14/E16 cells above.
	xfer := map[string]any{}
	for _, mtu := range []int{256, 576} {
		for _, tr := range []string{"tcp", "rdm"} {
			pt := experiments.TransferRun(tr, mtu)
			xfer[fmt.Sprintf("%s_mtu%d", tr, mtu)] = map[string]float64{
				"seconds":     pt.Seconds,
				"goodput_bps": pt.GoodputBPS,
				"delivered":   float64(pt.Delivered),
				"pkts_out":    float64(pt.PktsOut),
				"resent":      float64(pt.Resent),
			}
		}
	}

	// E18: the sharded engine against the single-loop reference. Both
	// engines run the same physics, so every cell must agree exactly on
	// replies and on the event rate.
	par := map[string]any{}
	for _, cell := range experiments.E18Cells() {
		pt := experiments.ParallelRun(cell[0], cell[1], cell[2])
		if pt.ShardReplies != pt.SeqReplies || pt.ShardEventsPerSimS != pt.SeqEventsPerSimS {
			t.Fatalf("N=%d c=%d: engines disagree — sequential %d replies at %v events/sim-s, sharded %d at %v",
				cell[0], cell[1], pt.SeqReplies, pt.SeqEventsPerSimS, pt.ShardReplies, pt.ShardEventsPerSimS)
		}
		par[fmt.Sprintf("n%d_c%d", cell[0], cell[1])] = map[string]float64{
			"events_per_sim_s":     pt.ShardEventsPerSimS,
			"events_per_sim_s_seq": pt.SeqEventsPerSimS,
			"replies":              float64(pt.ShardReplies),
			"delivery_ratio":       pt.Delivery,
			"crossings":            float64(pt.Crossings),
			"windows":              float64(pt.Windows),
		}
	}

	// Tracing overhead at the widest E14 point: attaching the packet
	// tracer must not change the event schedule at all.
	tracedRate := tracingEventsPerSimS(200, true)
	untracedRate := tracingEventsPerSimS(200, false)
	if tracedRate != untracedRate {
		t.Fatalf("tracing changed the event schedule: %.3f traced vs %.3f untraced events/sim-s",
			tracedRate, untracedRate)
	}

	report := map[string]any{
		"description":                "simulator-core benchmarks: every value is deterministic (virtual clock, fixed seeds); wall-clock figures are perfbench's",
		"seattle_ping_events_per_op": seattleEvents,
		"scheduler_allocs_per_op":    allocs,
		"tracing_overhead": map[string]float64{
			"events_per_sim_s_untraced_n200": untracedRate,
			"events_per_sim_s_traced_n200":   tracedRate,
		},
		"e14_scaling":  scaling,
		"e16_mac":      mac,
		"e17_transfer": xfer,
		"e18_parallel": par,
	}
	buf, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile("BENCH_simcore.json", append(buf, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
}

// BenchmarkShardedLarge steps the gated N=1000 world on the sharded
// engine — the target of the ISSUE's ">= 1 sim-s per wall-s at
// N=1000" line; divide 180 sim-s by ns/op to read the rate. Profile
// with -cpuprofile/-memprofile, or from the CLI via
// prsim -scale 1000 -workers 4 -cpuprofile.
func BenchmarkShardedLarge(b *testing.B) {
	for i := 0; i < b.N; i++ {
		b.StopTimer() // construction and warm-up are not the measurement
		lw := world.NewLarge(world.LargeConfig{
			Seed: 1, Stations: 1000, Channels: 40,
			PingInterval: time.Minute, Workers: 4,
		})
		lw.W.Run(30 * time.Second)
		b.StartTimer()
		lw.W.Run(3 * time.Minute)
	}
}

// TestTracingDisabledAddsNoAllocs pins the packet tracer's zero-cost
// contract: a world with no packet observer installs none of the
// trace hooks (MAC, ARP, stack, KISS, channel), so the hot loop still
// runs at exactly zero allocations per event. The nil-hook checks in
// the radio and ARP fast paths are the seam's only cost. A ping ledger
// brings the journal's core taps (stack, channel, drops) but must
// leave the tracer-only seams (MAC, ARP, KISS) unhooked.
func TestTracingDisabledAddsNoAllocs(t *testing.T) {
	s := world.NewSeattle(world.SeattleConfig{Seed: 1, NumPCs: 1})
	if s.W.Tracer() != nil {
		t.Fatal("world built with a tracer already attached")
	}
	port := s.Gateway.Radio("pr0")
	if len(s.Gateway.Stack.Taps) != 0 || len(s.Channel.Taps) != 0 {
		t.Fatal("stack or channel taps installed without a packet observer")
	}
	kissTaps := len(port.Driver.Taps)
	s.W.AttachPingLedger()
	if s.W.Tracer() != nil {
		t.Fatal("AttachPingLedger attached a tracer")
	}
	if port.RF.TraceMAC != nil {
		t.Fatal("MAC trace hook installed without AttachTracer")
	}
	if port.Driver.Resolver().Trace != nil {
		t.Fatal("ARP trace hook installed without AttachTracer")
	}
	if len(port.Driver.Taps) != kissTaps {
		t.Fatal("KISS trace tap installed without AttachTracer")
	}
	sched := s.W.Sched
	sched.After(time.Microsecond, func() {})
	sched.Step()
	allocs := testing.AllocsPerRun(1000, func() {
		sched.After(time.Microsecond, func() {})
		sched.Step()
	})
	if allocs != 0 {
		t.Fatalf("After+Step with tracing disabled allocates %.2f objects/op, want 0", allocs)
	}
}

// TestObsDisabledAddsNoAllocs pins DESIGN.md §3e's overhead contract:
// observability is read-side, so a world with a fully built metrics
// registry — but no sampling, no flight recorder, no taps — runs the
// scheduler hot loop (After + Step) at exactly zero allocations per
// event, same as a world with no registry at all. The nil-EventHook
// check in Step is the only cost of the flight-recorder seam.
func TestObsDisabledAddsNoAllocs(t *testing.T) {
	if a := schedulerAllocsPerOp(); a != 0 {
		t.Fatalf("bare scheduler allocates %.2f objects/op, want 0", a)
	}
	s := world.NewSeattle(world.SeattleConfig{Seed: 1, NumPCs: 1})
	if s.W.Registry().Len() == 0 {
		t.Fatal("registry swept no metrics; the disabled-path claim is vacuous")
	}
	if s.W.Sched.EventHook != nil {
		t.Fatal("building the registry installed an event hook")
	}
	sched := s.W.Sched
	sched.After(time.Microsecond, func() {})
	sched.Step()
	allocs := testing.AllocsPerRun(1000, func() {
		sched.After(time.Microsecond, func() {})
		sched.Step()
	})
	if allocs != 0 {
		t.Fatalf("After+Step with a built registry allocates %.2f objects/op, want 0", allocs)
	}
}
