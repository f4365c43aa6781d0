package experiments

import (
	"fmt"
	"io"
	"time"

	"packetradio/internal/world"
)

// ParallelPoint is one deterministic measurement of the sharded engine
// against the single-loop reference on the same seeded world (the E18
// instrument). The wall-clock rates and the speedup are machine-
// relative and never asserted; everything else — event rates, replies,
// crossings — is a pure function of the seed, and the event gate holds
// the sharded engine to the sequential engine's delivery and event rate
// exactly.
type ParallelPoint struct {
	Stations int
	Channels int
	Workers  int

	SeqSimSPerWallS   float64 // wall-dependent: never asserted or gated
	ShardSimSPerWallS float64 // wall-dependent: never asserted or gated
	Speedup           float64 // wall-dependent: never asserted or gated

	SeqEventsPerSimS   float64 // deterministic
	ShardEventsPerSimS float64 // deterministic: must equal SeqEventsPerSimS (gated)

	SeqReplies   uint64  // deterministic
	ShardReplies uint64  // deterministic: must equal SeqReplies (gated)
	Delivery     float64 // deterministic: sharded replies / requests

	Crossings uint64 // deterministic: cross-shard seam messages
	Windows   uint64 // deterministic: conservative synchronization rounds
}

// parallelMemo caches ParallelRun results per cell within one process
// (E18, the bench writer and the CI event gate all step the same
// deterministic worlds).
var parallelMemo = map[[3]int]ParallelPoint{}

// ParallelRun steps the standard scale world (N stations round-robin
// over the given channel count, one gateway per channel, one ping per
// station per minute) twice with the same seed: on the single-loop
// engine and on the sharded engine with the given worker count — 30 s
// warm-up untimed, 3 simulated minutes timed, exactly the E14
// protocol. Results are memoized per process.
func ParallelRun(n, channels, workers int) ParallelPoint {
	key := [3]int{n, channels, workers}
	if pt, ok := parallelMemo[key]; ok {
		return pt
	}
	pt := parallelRunFresh(n, channels, workers)
	parallelMemo[key] = pt
	return pt
}

func parallelRunFresh(n, channels, workers int) ParallelPoint {
	const simWindow = 3 * time.Minute
	step := func(w int) (*world.Large, float64, float64) {
		lw := world.NewLarge(world.LargeConfig{
			Seed:         1,
			Stations:     n,
			Channels:     channels,
			PingInterval: time.Minute,
			Workers:      w,
		})
		lw.W.Run(30 * time.Second) // warm-up: ARP + first ping wave, untimed
		firedBefore := lw.W.EventsFired()
		wallStart := time.Now()
		lw.W.Run(simWindow)
		wall := time.Since(wallStart)
		if wall <= 0 {
			wall = time.Nanosecond
		}
		return lw,
			simWindow.Seconds() / wall.Seconds(),
			float64(lw.W.EventsFired()-firedBefore) / simWindow.Seconds()
	}

	seq, seqRate, seqEv := step(0)
	shd, shdRate, shdEv := step(workers)
	pt := ParallelPoint{
		Stations:           n,
		Channels:           channels,
		Workers:            workers,
		SeqSimSPerWallS:    seqRate,
		ShardSimSPerWallS:  shdRate,
		Speedup:            shdRate / seqRate,
		SeqEventsPerSimS:   seqEv,
		ShardEventsPerSimS: shdEv,
		SeqReplies:         seq.Replies,
		ShardReplies:       shd.Replies,
		Delivery:           shd.DeliveryRatio(),
		Crossings:          shd.W.Shards().Crossings(),
		Windows:            shd.W.Shards().Windows(),
	}
	return pt
}

// E18Cells exposes the E18 sweep to the bench writer and the event
// gate, so all three agree on the cell list.
func E18Cells() [][3]int { return e18Cells }

// e18Cells is the sweep E18, the bench writer and the event gate all
// share: the N=200 world across widening channel counts (the
// near-linear-in-channels claim), plus the N=500 and N=1000 worlds at
// their default channel widths (the ≥1 sim-s/wall-s gate at N=1000).
var e18Cells = [][3]int{
	{200, 8, 4},
	{200, 25, 4},
	{200, 50, 4},
	{200, 100, 4},
	{500, 50, 4},
	{1000, 40, 4},
}

// E18 measures the sharded parallel engine (DESIGN.md §3g) against the
// single-loop reference. Both engines run the same physics — the
// Ethernet routes a unicast frame to its destination NIC alone on
// either — so they fire the same events and deliver the same traffic
// (by the construction-order seed argument in world.NewLarge); the
// table marks any divergence loudly, and the event gate pins both.
// What sharding buys is wall time: on multi-core hosts the windows
// execute shards concurrently (the workers knob; wall-clock only).
func E18(w io.Writer) *Result {
	r := newResult("E18", "sharded engine: sim-s/wall-s and events/sim-s vs the single-loop reference")
	t := newTable(w, "E18", "same seeded worlds on both engines, 3 simulated minutes per cell")
	t.row("stations", "channels", "workers", "sim-s/wall-s seq", "sim-s/wall-s shard", "speedup", "ev/sim-s seq", "ev/sim-s shard", "delivered", "crossings")

	for _, cell := range e18Cells {
		pt := ParallelRun(cell[0], cell[1], cell[2])
		key := fmt.Sprintf("_n%d_c%d", pt.Stations, pt.Channels)
		r.set("speedup"+key, pt.Speedup)
		r.set("sim_s_per_wall_s"+key, pt.ShardSimSPerWallS)
		r.set("sim_s_per_wall_s_seq"+key, pt.SeqSimSPerWallS)
		r.set("events_per_sim_s"+key, pt.ShardEventsPerSimS)
		r.set("events_per_sim_s_seq"+key, pt.SeqEventsPerSimS)
		r.set("delivery"+key, pt.Delivery)
		r.set("crossings"+key, float64(pt.Crossings))
		r.set("windows"+key, float64(pt.Windows))
		mark := ""
		if pt.ShardReplies != pt.SeqReplies || pt.ShardEventsPerSimS != pt.SeqEventsPerSimS {
			mark = " ENGINES-DIVERGE" // equivalence broken: make it loud
		}
		t.row(pt.Stations, pt.Channels, pt.Workers,
			fmt.Sprintf("%.0f", pt.SeqSimSPerWallS),
			fmt.Sprintf("%.0f", pt.ShardSimSPerWallS),
			fmt.Sprintf("%.2fx", pt.Speedup),
			fmt.Sprintf("%.1f", pt.SeqEventsPerSimS),
			fmt.Sprintf("%.1f", pt.ShardEventsPerSimS),
			fmt.Sprintf("%.0f%%%s", pt.Delivery*100, mark),
			pt.Crossings)
	}
	t.flush()
	fmt.Fprintln(w, "   (events and delivery are identical on both engines — sharding moves events")
	fmt.Fprintln(w, "    between schedulers, not physics; the speedup column is wall-clock only)")
	return r
}
