package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime/pprof"
	"strings"
	"time"

	"packetradio/internal/world"
)

// span is one timed call the benchmark made into the simulator.
type span struct {
	Name    string `json:"name"`
	StartNs int64  `json:"start_ns"`
	DurNs   int64  `json:"dur_ns"`
}

// maxSpans bounds the spans a traced run keeps: seattle-ping makes two
// per echo. Calls past it are still timed.
const maxSpans = 200000

// spans records the benchmark's own spans around its calls into each
// layer. A nil *spans times calls without recording them.
type spans struct {
	t0      time.Time
	list    []span
	dropped int
}

func (s *spans) on() bool { return s != nil }

// time runs fn and returns its wall time, recording a span when on.
func (s *spans) time(name string, fn func()) time.Duration {
	start := time.Now()
	fn()
	d := time.Since(start)
	switch {
	case s == nil:
	case len(s.list) < maxSpans:
		s.list = append(s.list, span{Name: name, StartNs: start.Sub(s.t0).Nanoseconds(), DurNs: d.Nanoseconds()})
	default:
		s.dropped++
	}
	return d
}

// write dumps the spans as JSON lines.
func (s *spans) write(path string) error {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	for _, sp := range s.list {
		if err := enc.Encode(sp); err != nil {
			return err
		}
	}
	return os.WriteFile(path, buf.Bytes(), 0o644)
}

// traced is the -trace 1 run: half the budget untraced, to give the
// tracing overhead its base, then half traced under a CPU profile. The
// per-layer metrics come from the traced reps.
func traced(r *runner, budget time.Duration, outDir, name string) (map[string]metric, error) {
	base := r.reps(budget/2, nil)

	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return nil, err
	}
	stem := filepath.Join(outDir, fmt.Sprintf("%s-seed%d", name, r.seed))
	var prof bytes.Buffer
	if err := pprof.StartCPUProfile(&prof); err != nil {
		return nil, err
	}
	sp := &spans{t0: time.Now()}
	reps := r.reps(budget/2, sp)
	pprof.StopCPUProfile()

	shares, err := moduleShares(prof.Bytes())
	if err != nil {
		return nil, fmt.Errorf("reading the CPU profile: %w", err)
	}
	if err := os.WriteFile(stem+".pprof", prof.Bytes(), 0o644); err != nil {
		return nil, err
	}
	if err := sp.write(stem + ".spans.jsonl"); err != nil {
		return nil, err
	}
	fmt.Printf("# traced: %d spans (%d past the cap not kept) in %s.spans.jsonl, CPU profile in %s.pprof\n",
		len(sp.list), sp.dropped, stem, stem)

	metrics := perLayer(reps)
	for _, mod := range wallModules {
		metrics[mod+".wall_share"] = metric{shares[mod], "ratio"}
	}
	var baseWall, tracedWall []float64
	for _, x := range base {
		baseWall = append(baseWall, x.wall.Seconds())
	}
	for _, x := range reps {
		tracedWall = append(tracedWall, x.wall.Seconds())
	}
	metrics["trace.overhead_share"] = metric{median(tracedWall)/median(baseWall) - 1, "ratio"}
	metrics["machine.calibration_ms"] = metric{r.slowdown() * float64(calibrationRef.Microseconds()) / 1e3, "ms"}

	diff := 0.0
	if r.wl.sequential != nil {
		diff = engineReplyDiff(r.wl.sequential, r.seed, reps[0].replies)
	}
	metrics["sim.engine_reply_diff"] = metric{diff, "count"}
	return metrics, nil
}

// wallModules are the layers CPU samples are charged to: the
// innermost packetradio/internal/<module> frame on the sample's stack,
// "runtime" when there is none, "other" for modules not listed here.
var wallModules = []string{
	"radio", "serial", "kiss", "ax25", "tnc", "core", "arp", "ip", "icmp",
	"ipstack", "ether", "obs", "sim", "world", "runtime", "other",
}

// counters are registry totals summed across hosts and channels, keyed
// "<seam>.<field>" ("rf.csma_deferrals", "radio.frames_heard").
type counters map[string]float64

// readCounters sums the worlds' registry snapshots by seam and field.
func readCounters(ws []*world.World) counters {
	c := counters{"worlds": float64(len(ws))}
	for _, w := range ws {
		c["events"] += float64(w.EventsFired())
		for _, s := range w.Registry().Snapshot() {
			p := strings.Split(s.Name, ".")
			switch {
			case p[0] == "radio" && len(p) == 3: // radio.<ch>.<field>
				c["radio."+p[2]] += s.Value
				if p[2] == "frames_started" {
					c["radio.channels"]++
				}
			case p[0] == "host" && len(p) == 5: // host.<h>.<if>.<seam>.<field>
				c[p[3]+"."+p[4]] += s.Value
			case p[0] == "host" && len(p) == 4: // host.<h>.ip.<field>
				c[p[2]+"."+p[3]] += s.Value
			case p[0] == "sim" && len(p) == 2: // sim.windows, sim.crossings
				c[s.Name] += s.Value
			}
		}
	}
	return c
}

// perLayer reduces the traced reps to per-layer metrics, each the
// median over reps of that rep's value. Counts are deltas over the
// timed span, per simulated second of it.
func perLayer(reps []*rep) map[string]metric {
	units := map[string]string{}
	vals := map[string][]float64{}
	put := func(name, unit string, v float64) {
		units[name] = unit
		vals[name] = append(vals[name], v)
	}
	for _, x := range reps {
		d := func(k string) float64 { return x.after[k] - x.before[k] }
		simS := x.sim.Seconds()
		rate := func(k string) float64 { return d(k) / simS }

		put("radio.frames_started_per_sim_s", "1/s", rate("radio.frames_started"))
		put("radio.collision_pairs_per_sim_s", "1/s", rate("radio.collision_pairs"))
		put("radio.heard_ratio", "ratio", ratio(d("radio.frames_heard"), d("radio.frames_heard")+d("radio.frames_damaged")))
		// simS sums the worlds' spans, so channel-seconds is simS times
		// the channels of one world.
		put("radio.utilization", "ratio", ratio(d("radio.airtime"), simS*x.after["radio.channels"]/x.after["worlds"]))
		put("radio.csma_deferrals_per_sim_s", "1/s", rate("rf.csma_deferrals"))
		put("radio.queue_drops", "count", d("rf.queue_drops"))
		put("tnc.to_host_per_sim_s", "1/s", rate("tnc.to_host"))
		put("tnc.filtered_share", "ratio", ratio(d("tnc.filtered"), d("tnc.filtered")+d("tnc.to_host")))
		put("core.kiss_frames_per_sim_s", "1/s", rate("drv.kiss_frames"))
		put("core.bytes_fed_per_sim_s", "B/s", rate("drv.bytes_fed"))
		put("core.out_drops", "count", d("drv.out_drops"))
		put("arp.hit_ratio", "ratio", ratio(d("arp.hits"), d("arp.hits")+d("arp.misses")))
		put("arp.requests_per_sim_s", "1/s", rate("arp.requests"))
		put("ipstack.forwarded_per_sim_s", "1/s", rate("ip.forwarded"))

		put("world.build_s", "s", x.build.Seconds())
		put("world.warmup_s", "s", x.warmUp.Seconds())
		put("world.run_end_ms", "ms", x.runEndMs)

		put("sim.events_per_sim_s", "1/s", rate("events"))
		put("sim.windows_per_sim_s", "1/s", rate("sim.windows"))
		put("sim.crossings_per_sim_s", "1/s", rate("sim.crossings"))
		put("sim.window_wall_us", "us", ratio(float64(x.wall.Microseconds()), d("sim.windows")))
		put("sim.cpu_per_wall", "ratio", ratio(x.cpu.Seconds(), x.wall.Seconds()))

		put("runtime.alloc_bytes_per_event", "B", ratio(float64(x.allocs), d("events")))
		put("runtime.gc_cycles", "count", float64(x.gcs))

		put("probe.delivery_ratio", "ratio", ratio(float64(x.replies), float64(x.sent)))
		put("probe.rtt_sim_ms_p50", "ms", x.rttP50)
		put("probe.rtt_sim_ms_p99", "ms", x.rttP99)
	}
	out := make(map[string]metric, len(vals))
	for name, vs := range vals {
		out[name] = metric{median(vs), units[name]}
	}
	return out
}

// ratio is a/b, 0 when b is.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// engineReplyDiff compares a sharded rep's replies with the same seed
// replayed on the sequential reference engine. The engines are meant
// to agree exactly; a nonzero count is a divergence, reported as
// measured.
func engineReplyDiff(sequential func(int64) uint64, seed int64, sharded uint64) float64 {
	n := sequential(seed)
	fmt.Printf("# engine check: sequential replies=%d sharded replies=%d\n", n, sharded)
	if n == sharded {
		return 0
	}
	fmt.Println("# KNOWN DEFECT: the sharded engine diverges from the sequential one on this seed")
	return math.Abs(float64(n) - float64(sharded))
}
