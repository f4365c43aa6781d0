package main

import (
	"fmt"
	"strings"
	"time"

	"packetradio/internal/ip"
	"packetradio/internal/obs"
	"packetradio/internal/world"
)

// A workload builds its worlds for a seed. Everything they run is
// generated in virtual time from this process; the benchmark only
// decides when to call World.Run. README.md says why each was chosen.
type workload struct {
	build func(seed int64, sp *spans) instance

	// sequential, when set, replays the timed span of a sharded world
	// on the sequential engine and returns its replies: the traced
	// run's engine-agreement check.
	sequential func(seed int64) uint64
}

// An instance is one built workload: warmUp finishes its set-up,
// measure runs the timed span, outcome checks what the span simulated.
type instance interface {
	worlds() []*world.World
	warmUp()
	measure(sp *spans) measured
	outcome() outcome
}

// measured is the wall-clock side of one timed span.
type measured struct {
	wall         time.Duration // the whole span, Run(0) calls included when traced
	sim          time.Duration // virtual time the span covered
	echoes       int           // echo requests issued during the span
	perEcho      []float64     // wall µs per echo: one per ping, or one per Run window
	runEnd       []float64     // traced: wall ms of each Run(0)
	runEndEvents uint64        // traced: events fired by the Run(0) calls (must be 0)
}

// outcome is the simulated side of one rep: what the correctness
// checks found and the digest that must repeat exactly for a seed.
type outcome struct {
	attempted, failed int
	problems          []string
	sent, replies     uint64
	rtts              []time.Duration
	digest            string
}

var workloads = map[string]workload{
	"seattle-ping": {build: newSeattlePing},
	"regional": {
		build: scaleBuilder(scaleSpec{
			cfg:    world.LargeConfig{Stations: 200, Channels: 8, PingInterval: time.Minute},
			ledger: true,
			window: 10 * time.Minute,
			span:   4 * time.Hour,
		}),
	},
	"dense-csma": {
		build: scaleBuilder(scaleSpec{
			// Strict RFC 826 ARP and a probe every 2 sim-min: with
			// auto-ARP or 1-min probes the saturated channel is
			// bistable, and its cost varies up to 5x from seed to
			// seed. Even so a quarter of seeds settle ~15% cheaper, so
			// a rep runs four worlds under seeds derived from the
			// run's.
			cfg:    world.LargeConfig{Stations: 200, Channels: 1, PingInterval: 2 * time.Minute, NoAutoARP: true},
			window: 5 * time.Minute,
			span:   40 * time.Minute,
			worlds: 4,
		}),
	},
	"sharded-1000": {
		build:      scaleBuilder(sharded1000),
		sequential: sequentialReplies(sharded1000),
	},
}

var sharded1000 = scaleSpec{
	cfg:    world.LargeConfig{Stations: 1000, Channels: 40, PingInterval: time.Minute, Workers: 2},
	window: 5 * time.Minute,
	span:   20 * time.Minute,
}

// --- seattle-ping -------------------------------------------------------

// seattlePings is the closed loop's length per rep: one client, each
// echo sent only after the previous one's Run window returned. Reps
// are short (~0.1 s) so that the medians over a run's ~10² reps shrug
// off the multi-millisecond stalls a shared machine injects.
const seattlePings = 5000

// seattlePing is the paper's Seattle world with one radio PC. The
// Ethernet host june pings pc1 through the gateway, so every echo
// crosses the Ethernet, the gateway's IP forwarding and ARP, its
// driver, serial line, KISS TNC and the radio channel, both ways.
type seattlePing struct {
	s        *world.Seattle
	sent     uint64
	replies  uint64
	badRTTs  int
	rtts     []time.Duration
	callback func(seq uint16, rtt time.Duration, from ip.Addr)
}

func newSeattlePing(seed int64, sp *spans) instance {
	p := &seattlePing{}
	sp.time("build", func() {
		p.s = world.NewSeattle(world.SeattleConfig{Seed: seed, NumPCs: 1})
	})
	p.callback = func(_ uint16, rtt time.Duration, _ ip.Addr) {
		p.replies++
		if rtt <= 0 {
			p.badRTTs++
		}
		p.rtts = append(p.rtts, rtt)
	}
	return p
}

func (p *seattlePing) worlds() []*world.World { return []*world.World{p.s.W} }

// ping sends one 64-byte echo and runs the world a simulated minute,
// which is far longer than the echo's round trip.
func (p *seattlePing) ping() {
	p.sent++
	p.s.Internet.Stack.Ping(world.PCIP(0), 64, p.callback)
	p.s.W.Run(time.Minute)
}

// warmUp is one ping: it fills both ARP caches.
func (p *seattlePing) warmUp() { p.ping() }

func (p *seattlePing) measure(sp *spans) measured {
	m := measured{echoes: seattlePings, sim: seattlePings * time.Minute, perEcho: make([]float64, 0, seattlePings)}
	start := time.Now()
	for i := 0; i < seattlePings; i++ {
		d := sp.time("ping", p.ping)
		m.perEcho = append(m.perEcho, float64(d.Nanoseconds())/1e3)
		if sp.on() {
			m.runEndCall(sp, p.s.W)
		}
	}
	m.wall = time.Since(start)
	return m
}

func (p *seattlePing) outcome() outcome {
	o := outcome{attempted: int(p.sent), sent: p.sent, replies: p.replies, rtts: p.rtts}
	if lost := int(p.sent - p.replies); lost != 0 {
		o.failed += lost
		o.problems = append(o.problems, fmt.Sprintf("%d of %d pings lost", lost, p.sent))
	}
	if p.badRTTs != 0 {
		o.failed += p.badRTTs
		o.problems = append(o.problems, fmt.Sprintf("%d replies with RTT <= 0", p.badRTTs))
	}
	o.digest = digest(p.s.W.EventsFired(), p.sent, p.replies, p.rtts)
	return o
}

// --- scale worlds -------------------------------------------------------

// warmUpSpan is the scale worlds' warm-up: ARP, the first half of the
// first probe wave.
const warmUpSpan = 30 * time.Second

// scaleSpec is one generated world: its config, whether the ping-fate
// ledger watches it, and the fixed Run window and span of the timed
// part. Every World.Run ends by re-sorting all RTT samples so far, so
// the window length is part of the workload. worlds > 1 makes a rep
// that many independent worlds, run one after another, under seeds
// seed·worlds+k.
type scaleSpec struct {
	cfg    world.LargeConfig
	ledger bool
	window time.Duration
	span   time.Duration
	worlds int
}

type scaleWorld struct {
	spec   scaleSpec
	lw     *world.Large
	ledger *obs.PingLedger
}

func scaleBuilder(spec scaleSpec) func(int64, *spans) instance {
	if spec.worlds <= 1 {
		return func(seed int64, sp *spans) instance { return mix{newScaleWorld(spec, seed, sp)} }
	}
	return func(seed int64, sp *spans) instance {
		m := make(mix, spec.worlds)
		for k := range m {
			m[k] = newScaleWorld(spec, seed*int64(spec.worlds)+int64(k), sp)
		}
		return m
	}
}

// sequentialReplies replays spec's warm-up and timed span on the
// sequential engine, untimed, and returns the replies.
func sequentialReplies(spec scaleSpec) func(int64) uint64 {
	spec.cfg.Workers = 0
	return func(seed int64) uint64 {
		s := newScaleWorld(spec, seed, nil)
		s.warmUp()
		s.measure(nil)
		return s.lw.Replies
	}
}

func newScaleWorld(spec scaleSpec, seed int64, sp *spans) *scaleWorld {
	spec.cfg.Seed = seed
	s := &scaleWorld{spec: spec}
	sp.time("build", func() { s.lw = world.NewLarge(spec.cfg) })
	if spec.ledger {
		sp.time("attach", func() { s.ledger = s.lw.W.AttachPingLedger() })
	}
	return s
}

func (s *scaleWorld) warmUp() { s.lw.W.Run(warmUpSpan) }

func (s *scaleWorld) measure(sp *spans) measured {
	w := s.lw.W
	m := measured{sim: s.spec.span}
	sent0 := s.lw.Sent
	start := time.Now()
	for done := time.Duration(0); done < s.spec.span; done += s.spec.window {
		before := s.lw.Sent
		d := sp.time("window", func() { w.Run(s.spec.window) })
		m.perEcho = append(m.perEcho, float64(d.Nanoseconds())/1e3/float64(s.lw.Sent-before))
		if sp.on() {
			m.runEndCall(sp, w)
		}
	}
	m.wall = time.Since(start)
	m.echoes = int(s.lw.Sent - sent0)
	return m
}

// mix is a scale workload's rep: one world, or several independent
// ones run one after another and measured as one.
type mix []*scaleWorld

func (m mix) worlds() []*world.World {
	var ws []*world.World
	for _, s := range m {
		ws = append(ws, s.lw.W)
	}
	return ws
}

func (m mix) warmUp() {
	for _, s := range m {
		s.warmUp()
	}
}

func (m mix) measure(sp *spans) measured {
	var all measured
	for _, s := range m {
		x := s.measure(sp)
		all.wall += x.wall
		all.sim += x.sim
		all.echoes += x.echoes
		all.perEcho = append(all.perEcho, x.perEcho...)
		all.runEnd = append(all.runEnd, x.runEnd...)
		all.runEndEvents += x.runEndEvents
	}
	return all
}

func (m mix) outcome() outcome {
	var all outcome
	var digests []string
	for _, s := range m {
		o := s.outcome()
		all.attempted += o.attempted
		all.failed += o.failed
		all.problems = append(all.problems, o.problems...)
		all.sent += o.sent
		all.replies += o.replies
		all.rtts = append(all.rtts, o.rtts...)
		digests = append(digests, o.digest)
	}
	all.digest = strings.Join(digests, " | ")
	return all
}

// runEndCall times a zero-length World.Run: it fires no events, so
// what it costs is the run-end work every window pays (the probe
// merge). Any event it fires is counted as a failure.
func (m *measured) runEndCall(sp *spans, w *world.World) {
	ev := w.EventsFired()
	d := sp.time("run0", func() { w.Run(0) })
	m.runEnd = append(m.runEnd, float64(d.Nanoseconds())/1e6)
	m.runEndEvents += w.EventsFired() - ev
}

// expectedSent is the probe schedule's count at the world's current
// time: station i of n first probes at PingInterval·i/n, then every
// PingInterval, and World.Run fires events due at exactly its end.
func (s *scaleWorld) expectedSent() uint64 {
	cfg := s.spec.cfg
	now := warmUpSpan + s.spec.span
	var want uint64
	for i := 0; i < cfg.Stations; i++ {
		phase := time.Duration(int64(cfg.PingInterval) * int64(i) / int64(cfg.Stations))
		if phase <= now {
			want += uint64((now-phase)/cfg.PingInterval) + 1
		}
	}
	return want
}

func (s *scaleWorld) outcome() outcome {
	lw := s.lw
	o := outcome{attempted: 1, sent: lw.Sent, replies: lw.Replies, rtts: lw.RTTs}
	fail := func(format string, args ...any) {
		o.problems = append(o.problems, fmt.Sprintf(format, args...))
	}
	if lw.Replies > lw.Sent {
		fail("replies %d > sent %d", lw.Replies, lw.Sent)
	}
	if uint64(len(lw.RTTs)) != lw.Replies {
		fail("%d RTT samples for %d replies", len(lw.RTTs), lw.Replies)
	}
	for _, rtt := range lw.RTTs {
		if rtt <= 0 {
			fail("RTT %v <= 0", rtt)
			break
		}
	}
	if want := s.expectedSent(); lw.Sent != want {
		fail("sent %d, probe schedule says %d", lw.Sent, want)
	}
	if s.ledger != nil {
		sum := 0
		for _, n := range s.ledger.Fates() {
			sum += n
		}
		if sum != s.ledger.Sent() || uint64(sum) != lw.Sent {
			fail("ledger fates sum to %d, ledger saw %d sent, world sent %d", sum, s.ledger.Sent(), lw.Sent)
		}
	}
	if len(o.problems) > 0 {
		o.failed = 1
	}
	o.digest = digest(lw.W.EventsFired(), lw.Sent, lw.Replies, lw.RTTs)
	return o
}

// digest is the simulated fingerprint of a rep; for one seed it must
// repeat exactly, traced or not, run after run.
func digest(events, sent, replies uint64, rtts []time.Duration) string {
	var sum time.Duration
	for _, r := range rtts {
		sum += r
	}
	return fmt.Sprintf("events=%d sent=%d replies=%d rtt_sum_ns=%d", events, sent, replies, int64(sum))
}
