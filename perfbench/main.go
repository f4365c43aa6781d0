// Command perfbench is the simulator's benchmark. It builds one of
// four workloads under a seed, drives it through the public world API
// for a wall-clock budget, checks the simulated outcomes, and prints
// its metrics, the last line being one JSON object. With -trace 0
// those are the end-to-end metrics, timed in reference seconds (see
// calib.go); with -trace 1 a traced run reports the per-layer ones.
// README.md describes the workloads and metrics. Run it from the
// repository root:
//
//	python3 perfbench/run.py -workload regional -seed 1 -seconds 25 -trace 0
package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"syscall"
	"time"
)

// setupPasses is how many extra worlds a run builds and warms, untimed
// beyond their set-up, before its first rep: they warm the process and
// give setup_s a median over enough samples.
const setupPasses = 5

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of the output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	name := flag.String("workload", "", "workload: seattle-ping, regional, dense-csma or sharded-1000")
	seed := flag.Int64("seed", 1, "simulation seed")
	seconds := flag.Float64("seconds", 10, "wall-clock seconds the run measures")
	trace := flag.Int("trace", 0, "1 = traced run: per-layer metrics, spans and a CPU profile")
	out := flag.String("out", filepath.Join(".bench_build", "trace"), "directory for the traced run's spans and CPU profile")
	flag.Parse()
	wl, ok := workloads[*name]
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: want -workload one of %s, -seconds > 0, -trace 0 or 1\n", strings.Join(workloadNames(), ", "))
		os.Exit(2)
	}
	fmt.Printf("# perfbench workload=%s seed=%d seconds=%g trace=%d\n", *name, *seed, *seconds, *trace)
	fp, _ := json.Marshal(machineFingerprint())
	fmt.Printf("fingerprint %s\n", fp)

	r := &runner{wl: wl, seed: *seed}
	budget := time.Duration(*seconds * float64(time.Second))
	var metrics map[string]metric
	if *trace == 0 {
		r.reps(budget, nil)
		metrics = endToEnd(r)
	} else {
		var err error
		metrics, err = traced(r, budget, *out, *name)
		if err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
	}
	emit(r, metrics)
}

func workloadNames() []string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// rep is one built, warmed and measured world, reduced to the figures
// the metrics need so that a run's later reps do not carry its earlier
// ones' samples through the GC.
type rep struct {
	build, warmUp  time.Duration
	wall, sim      time.Duration // the timed span's wall and virtual time
	echoes         int
	echoP50        float64 // median wall µs per echo
	runEndMs       float64 // traced: median wall of the Run(0) calls
	sent, replies  uint64
	rttP50, rttP99 float64 // simulated RTT, ms
	heapMB         float64
	cpu            time.Duration // process CPU during the timed span
	allocs, gcs    uint64        // bytes allocated and GC cycles during the timed span
	before, after  counters      // traced: registry totals around the timed span
}

// runner accumulates one run's reps, calibrations and correctness
// verdicts.
type runner struct {
	wl      workload
	seed    int64
	setups  []time.Duration
	done    []*rep
	digest  string
	cals    []time.Duration
	lastCal time.Time

	attempted, failed int
}

// setUp builds and warms one world, timing both.
func (r *runner) setUp(sp *spans) (instance, time.Duration, time.Duration) {
	start := time.Now()
	inst := r.wl.build(r.seed, sp)
	built := time.Since(start)
	sp.time("warmup", inst.warmUp)
	total := time.Since(start)
	r.setups = append(r.setups, total)
	return inst, built, total - built
}

// reps runs reps while the next one, judged by the last, is expected
// to end no more than half a rep past budget; at least two. sp is nil
// for untraced reps.
func (r *runner) reps(budget time.Duration, sp *spans) []*rep {
	start := time.Now()
	if len(r.setups) == 0 {
		for i := 0; i < setupPasses; i++ {
			r.calibrate()
			runtime.GC()
			r.setUp(nil)
		}
	}
	var reps []*rep
	var last time.Duration
	for len(reps) < 2 || time.Since(start)+last/2 <= budget {
		t := time.Now()
		if t.Sub(r.lastCal) >= calibrateEvery {
			r.calibrate()
		}
		reps = append(reps, r.rep(sp))
		last = time.Since(t)
	}
	return reps
}

func (r *runner) calibrate() {
	r.cals = append(r.cals, calibrate())
	r.lastCal = time.Now()
}

// slowdown is the run's median calibration over calibrationRef: above
// 1 on a machine, or in a mode, slower than the reference.
func (r *runner) slowdown() float64 {
	return median(seconds(r.cals)) / calibrationRef.Seconds()
}

func (r *runner) rep(sp *spans) *rep {
	var ms0, ms1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&ms0)
	heap0 := ms0.HeapAlloc
	inst, build, warm := r.setUp(sp)
	ws := inst.worlds()
	x := &rep{build: build, warmUp: warm}
	if sp.on() {
		x.before = readCounters(ws)
	}
	runtime.GC()
	runtime.ReadMemStats(&ms0)
	cpu0 := cpuTime()
	m := inst.measure(sp)
	x.cpu = cpuTime() - cpu0
	runtime.ReadMemStats(&ms1)
	x.allocs, x.gcs = ms1.TotalAlloc-ms0.TotalAlloc, uint64(ms1.NumGC-ms0.NumGC)
	if sp.on() {
		x.after = readCounters(ws)
	}
	o := inst.outcome()
	runtime.GC()
	runtime.ReadMemStats(&ms1)
	x.heapMB = (float64(ms1.HeapAlloc) - float64(heap0)) / (1 << 20)
	runtime.KeepAlive(inst)

	x.wall, x.sim, x.echoes = m.wall, m.sim, m.echoes
	x.echoP50 = quantile(m.perEcho, 0.50)
	x.runEndMs = median(m.runEnd)
	x.sent, x.replies = o.sent, o.replies
	rtts := make([]float64, len(o.rtts))
	for i, rtt := range o.rtts {
		rtts[i] = float64(rtt) / float64(time.Millisecond)
	}
	x.rttP50, x.rttP99 = quantile(rtts, 0.50), quantile(rtts, 0.99)

	r.attempted += o.attempted
	r.failed += o.failed
	if m.runEndEvents != 0 {
		r.failed++
		o.problems = append(o.problems, fmt.Sprintf("Run(0) fired %d events", m.runEndEvents))
	}
	if r.digest == "" {
		r.digest = o.digest
		fmt.Printf("digest %s\n", r.digest)
	} else if o.digest != r.digest {
		r.failed++
		o.problems = append(o.problems, "digest differs from the first rep: "+o.digest)
	}
	for _, p := range o.problems {
		fmt.Printf("FAIL rep %d: %s\n", len(r.done)+1, p)
	}
	r.done = append(r.done, x)
	return x
}

// endToEnd reduces the reps to the end-to-end metrics, each the median
// over reps of that rep's value, with time in reference seconds (see
// calib.go); the echo-wall median is taken within each rep first. The
// raw wall figures are printed too. There is no tail percentile: on a
// shared machine the p99 echo wall tracks the neighbours' load (its
// spread across seeds reached half its median), not the simulator.
func endToEnd(r *runner) map[string]metric {
	var simRate, echoRate, p50, heap []float64
	for _, x := range r.done {
		simRate = append(simRate, x.sim.Seconds()/x.wall.Seconds())
		echoRate = append(echoRate, float64(x.echoes)/x.wall.Seconds())
		p50 = append(p50, x.echoP50)
		heap = append(heap, x.heapMB)
	}
	setup := median(seconds(r.setups))
	f := r.slowdown()
	fmt.Printf("# %d reps, %d set-ups, calibration_ms=%.4g (median of %d)\n",
		len(r.done), len(r.setups), f*float64(calibrationRef.Microseconds())/1e3, len(r.cals))
	fmt.Printf("# raw wall: setup_s=%.6g sim_s_per_wall_s=%.6g pings_per_wall_s=%.6g ping_wall_us_p50=%.6g\n",
		setup, median(simRate), median(echoRate), median(p50))
	return map[string]metric{
		"setup_s":         {setup / f, "s"},
		"sim_s_per_ref_s": {median(simRate) * f, "s/s"},
		"pings_per_ref_s": {median(echoRate) * f, "1/s"},
		"ping_ref_us_p50": {median(p50) / f, "us"},
		"live_heap_mb":    {median(heap), "MiB"},
	}
}

// emit prints every metric by name and unit, then the result line.
func emit(r *runner, metrics map[string]metric) {
	names := make([]string, 0, len(metrics))
	for n, m := range metrics {
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			m.Value = 0
			metrics[n] = m
		}
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Printf("metric %-36s %14.6g %s\n", n, metrics[n].Value, metrics[n].Unit)
	}
	line, err := json.Marshal(result{
		Correct:   r.failed == 0 && r.attempted > 0,
		Attempted: r.attempted,
		Failed:    r.failed,
		Metrics:   metrics,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

func seconds(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = d.Seconds()
	}
	return out
}

// median is the middle value of xs, or the mean of the middle two.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	return (s[(n-1)/2] + s[n/2]) / 2
}

// quantile is the nearest-rank q-quantile of xs (0 for none).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	if i < 0 {
		i = 0
	}
	return s[i]
}

// fingerprint is the provenance every result carries.
type fingerprint struct {
	GOMAXPROCS   int    `json:"gomaxprocs"`
	NumCPU       int    `json:"num_cpu"`
	CPUModel     string `json:"cpu_model"`
	GoVersion    string `json:"go_version"`
	GitCommit    string `json:"git_commit"`
	SourceSHA256 string `json:"source_sha256"`
}

func machineFingerprint() fingerprint {
	fp := fingerprint{
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
		CPUModel:   "unknown",
		GoVersion:  runtime.Version(),
		GitCommit:  "unknown",
	}
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				fp.CPUModel = strings.TrimSpace(v)
				break
			}
		}
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				fp.GitCommit = s.Value
			}
		}
	}
	fp.SourceSHA256 = sourceDigest(".")
	return fp
}

// sourceDigest hashes the path and contents of every Go source and
// go.mod file under root, skipping dot directories: it names the code
// a result measured even in a checkout without git metadata.
func sourceDigest(root string) string {
	h := sha256.New()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != root && strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") && d.Name() != "go.mod" {
			return nil
		}
		b, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		fmt.Fprintf(h, "%s %d\n", filepath.ToSlash(path), len(b))
		h.Write(b)
		return nil
	})
	if err != nil {
		return "unknown"
	}
	return hex.EncodeToString(h.Sum(nil))
}
