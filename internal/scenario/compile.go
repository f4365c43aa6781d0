// Compiling a validated scenario into a runnable world. Compile is
// engine-agnostic by construction: everything it schedules lands on
// the scheduler of the shard that owns the state it touches (a
// station's probes on the station's shard, a channel's link churn on
// the channel's shard), which is the sharded engine's safety rule and
// a no-op on the single-loop engine — so the same scenario produces
// identical results at every -workers count.

package scenario

import (
	"fmt"
	"time"

	"packetradio/internal/ip"
	"packetradio/internal/obs"
	"packetradio/internal/radio"
	"packetradio/internal/sim"
	"packetradio/internal/world"
)

// Runner is one compiled (scenario, seed, engine) instance, ready to
// Run once. The exported fields let callers attach observability
// before running.
type Runner struct {
	Scenario *Scenario
	Seed     int64

	W        *world.World
	Large    *world.Large     // nil on the seattle base
	Seattle  *world.Seattle   // nil on the large base
	Channels []*radio.Channel // channel c at index c

	// Internet is the Ethernet host baseline probes target (inet or
	// june).
	Internet *world.Host

	// Tracer is the packet-journey tracer, attached by Compile when the
	// scenario declares span_latency gates (callers may also attach one
	// themselves via W.AttachTracer before running).
	Tracer *obs.Tracer

	probers []func() // baseline per-station probe, large or seattle
	slots   []pairSlot
	ran     bool

	// pairSent/pairReplies/pairRTTs are the pair-flow (and seattle
	// baseline) totals, rebuilt by mergePairs after every run window.
	pairSent, pairReplies uint64
	pairRTTs              []time.Duration
}

// pairSlot accumulates one shard's pair-flow (and seattle baseline)
// probe accounting, mirroring the per-shard slots inside world.Large.
type pairSlot struct {
	sent, replies uint64
	rtts          []pairSample
}

type pairSample struct {
	at  sim.Time
	rtt time.Duration
}

// Compile builds the scenario's world for one seed. workers selects
// the engine exactly as LargeConfig.Workers does: 0 is the single-loop
// reference, positive builds the sharded engine with that many window
// executors. The scenario must be normalized and valid (Load and
// Parse guarantee both).
func Compile(sc *Scenario, seed int64, workers int) (*Runner, error) {
	r := &Runner{Scenario: sc, Seed: seed}
	t := &sc.Topology
	if t.Base == "seattle" {
		if workers > 0 {
			return nil, fmt.Errorf("scenario %s: the seattle base runs on the single-loop engine only (got -workers %d)", sc.Name, workers)
		}
		mac, _ := world.ParseMACMode(t.MAC)
		se := world.NewSeattle(world.SeattleConfig{
			Seed:          seed,
			NumPCs:        t.Stations,
			BitRate:       t.BitRate,
			Baud:          t.Baud,
			MAC:           mac,
			SecondGateway: t.SecondGateway,
		})
		r.W, r.Seattle = se.W, se
		r.Channels = []*radio.Channel{se.Channel}
		r.Internet = se.Internet
		r.slots = make([]pairSlot, 2)
	} else {
		mac, _ := world.ParseMACMode(t.MAC)
		transport, _ := world.ParseTransportMode(sc.Traffic.Transport)
		lw := world.NewLarge(world.LargeConfig{
			Seed:      seed,
			Stations:  t.Stations,
			Channels:  t.Channels,
			BitRate:   t.BitRate,
			Baud:      t.Baud,
			MAC:       mac,
			Transport: transport,
			Workers:   workers,
			NoAutoARP: t.NoAutoARP,
			// PingInterval stays 0: the scenario owns the schedule and
			// drives lw.Probe itself.
		})
		r.W, r.Large = lw.W, lw
		r.Channels = lw.Channels
		r.Internet = lw.Internet
		r.slots = make([]pairSlot, 1+t.Channels)
	}
	r.W.OnRunEnd(r.mergePairs)
	r.armBaseline()
	r.scheduleTraffic()
	r.applyGeometry()
	if err := r.scheduleFailures(); err != nil {
		return nil, err
	}
	r.tagRegistry(workers)
	if sc.Gates != nil && len(sc.Gates.SpanLatency) > 0 {
		r.Tracer = r.W.AttachTracer()
	}
	return r, nil
}

// tagRegistry labels the world's metric registry with the run's
// identity and registers the scenario.* roll-ups, so -metrics and
// -netstat output from a scenario run is self-describing. The values
// read the merged totals, which refresh at each W.Run end.
func (r *Runner) tagRegistry(workers int) {
	reg := r.W.Registry()
	reg.SetLabel("scenario", r.Scenario.Name)
	reg.SetLabel("seed", fmt.Sprintf("%d", r.Seed))
	reg.SetLabel("engine_workers", fmt.Sprintf("%d", workers))
	sent := func() uint64 {
		n := r.pairSent
		if r.Large != nil {
			n += r.Large.Sent
		}
		return n
	}
	replies := func() uint64 {
		n := r.pairReplies
		if r.Large != nil {
			n += r.Large.Replies
		}
		return n
	}
	reg.RegisterFunc("scenario.sent", func() float64 { return float64(sent()) })
	reg.RegisterFunc("scenario.replies", func() float64 { return float64(replies()) })
	reg.RegisterFunc("scenario.delivery", func() float64 {
		if s := sent(); s > 0 {
			return float64(replies()) / float64(s)
		}
		return 0
	})
}

// stationSched returns station i's scheduler (its shard on the
// sharded engine).
func (r *Runner) stationSched(i int) *sim.Scheduler {
	if r.Seattle != nil {
		return r.Seattle.PCs[i].Sched()
	}
	return r.Large.Stations[i].Sched()
}

// stations reports the baseline station count.
func (r *Runner) stations() int { return r.Scenario.Topology.Stations }

// slotFor returns the accumulator for a probe sourced on the given
// radio channel (-1 = the Ethernet backbone). The layout matches the
// large world's: slot 0 is the backbone, 1+c is channel c, and the
// merge key is (virtual time, slot) — identical on both engines.
func (r *Runner) slotFor(channel int) *pairSlot {
	if channel < 0 {
		return &r.slots[0]
	}
	return &r.slots[1+channel]
}

// armBaseline builds r.probers: on the large base the world's own
// transport probers (ICMP/TCP/RDM); on seattle, per-PC persistent echo
// contexts to june, accounted in r.slots.
func (r *Runner) armBaseline() {
	n := r.stations()
	r.probers = make([]func(), n)
	if lw := r.Large; lw != nil {
		lw.ArmProbers()
		for i := 0; i < n; i++ {
			i := i
			r.probers[i] = func() { lw.Probe(i) }
		}
		return
	}
	for i, pc := range r.Seattle.PCs {
		p := &pairProber{slot: &r.slots[0], sched: pc.Sched(), st: pc,
			dst: world.InternetIP, size: 32}
		r.probers[i] = p.send
	}
}

// scheduleTraffic arms the baseline probe matrix (shaped by the
// diurnal curve), the flash crowds and the pair flows. All times are
// absolute virtual time from the start of the run.
func (r *Runner) scheduleTraffic() {
	sc := r.Scenario
	tr := &sc.Traffic
	n := r.stations()

	if base := tr.ProbeInterval.D(); base > 0 {
		rateAt := r.diurnalRate()
		for i := 0; i < n; i++ {
			probe := r.probers[i]
			sched := r.stationSched(i)
			phase := time.Duration(int64(base) * int64(i) / int64(n))
			var tick func()
			tick = func() {
				probe()
				sched.After(time.Duration(float64(base)/rateAt(sched.Now().Duration())), tick)
			}
			sched.After(phase, tick)
		}
	}

	for _, f := range tr.FlashCrowds {
		for k := 0; k < f.Stations; k++ {
			i := f.First + k
			probe := r.probers[i]
			sched := r.stationSched(i)
			start := f.At.D() + time.Duration(k)*f.Stagger.D()
			for j := 0; j < f.Probes; j++ {
				sched.After(start+time.Duration(j)*f.Spacing.D(), probe)
			}
		}
	}

	if len(tr.Pairs) > 0 {
		end := sc.End()
		for _, pf := range tr.Pairs {
			src, _ := sc.resolveHost(pf.From)
			p := &pairProber{
				slot:  r.slotFor(src.channel),
				sched: r.W.Host(pf.From).Sched(),
				st:    r.W.Host(pf.From),
				dst:   r.hostIP(pf.To),
				size:  pf.Size,
			}
			interval, stop := pf.Interval.D(), pf.Stop.D()
			if stop == 0 {
				stop = end
			}
			var tick func()
			tick = func() {
				if p.sched.Now().Duration() >= stop {
					return
				}
				p.send()
				p.sched.After(interval, tick)
			}
			p.sched.After(pf.Start.D(), tick)
		}
	}
}

// diurnalRate returns the piecewise-constant rate multiplier in
// effect at a given virtual time (1 before the first breakpoint).
func (r *Runner) diurnalRate() func(time.Duration) float64 {
	points := r.Scenario.Traffic.Diurnal
	return func(at time.Duration) float64 {
		rate := 1.0
		for _, p := range points {
			if at < p.At.D() {
				break
			}
			rate = p.Rate
		}
		return rate
	}
}

// applyGeometry severs the topology's initial cuts. Compile runs
// before the first event, so this mutates reachability directly.
func (r *Runner) applyGeometry() {
	for _, cut := range r.Scenario.Topology.Cuts {
		r.W.FailLink(cut.A, cut.B)
	}
}

// scheduleFailures turns the failure schedule into events on the
// owning channel's scheduler.
func (r *Runner) scheduleFailures() error {
	for _, f := range r.Scenario.Failures {
		switch f.Kind {
		case "flap":
			ref, _ := r.Scenario.resolveHost(f.A)
			sched := r.Channels[ref.channel].Scheduler()
			a, b := f.A, f.B
			until := f.Until.D()
			for t := f.From.D(); t < until; t += f.DownFor.D() + f.UpFor.D() {
				heal := t + f.DownFor.D()
				if heal > until {
					heal = until
				}
				sched.After(t, func() { r.W.FailLink(a, b) })
				sched.After(heal, func() { r.W.HealLink(a, b) })
			}
		case "partition":
			c := f.Channel - 1
			sched := r.Channels[c].Scheduler()
			links := r.gatewayLinks(c)
			sched.After(f.From.D(), func() {
				for _, l := range links {
					r.W.FailLink(l.A, l.B)
				}
			})
			sched.After(f.Until.D(), func() {
				for _, l := range links {
					r.W.HealLink(l.A, l.B)
				}
			})
		case "master_churn":
			c := f.Channel - 1
			ch := r.Channels[c]
			ctl := r.W.DAMA(ch)
			sched := ch.Scheduler()
			downFor := f.DownFor.D()
			for t := f.From.D(); t+downFor <= f.Until.D(); t += f.Every.D() {
				sched.After(t, func() {
					m := ctl.Master()
					if m == nil {
						return // mid-election already
					}
					var cut []*radio.Transceiver
					for _, s := range ch.Stations() {
						if s != m {
							ch.SetReachable(m, s, false)
							ch.SetReachable(s, m, false)
							cut = append(cut, s)
						}
					}
					sched.After(downFor, func() {
						for _, s := range cut {
							ch.SetReachable(m, s, true)
							ch.SetReachable(s, m, true)
						}
					})
				})
			}
		default:
			return fmt.Errorf("scenario %s: unreachable failure kind %q", r.Scenario.Name, f.Kind)
		}
	}
	return nil
}

// gatewayLinks lists the (gateway, station) host-name pairs on channel
// c — what a partition severs.
func (r *Runner) gatewayLinks(c int) []Link {
	var links []Link
	if se := r.Seattle; se != nil {
		gws := []string{"uw-gw"}
		if se.Gateway2 != nil {
			gws = append(gws, "uw-gw2")
		}
		for _, gw := range gws {
			for i := range se.PCs {
				links = append(links, Link{A: gw, B: fmt.Sprintf("pc%d", i+1)})
			}
		}
		return links
	}
	gw := fmt.Sprintf("gw%d", c+1)
	for i := 0; i < r.Scenario.Topology.Stations; i++ {
		if i%r.Scenario.Topology.Channels == c {
			links = append(links, Link{A: gw, B: fmt.Sprintf("st%d", i)})
		}
	}
	return links
}

// hostIP resolves a validated host name to the address pair flows
// target (gateways by their radio-side address).
func (r *Runner) hostIP(name string) ip.Addr {
	sc := r.Scenario
	if sc.Topology.Base == "seattle" {
		switch name {
		case "uw-gw":
			return world.GatewayIP
		case "uw-gw2":
			return world.Gateway2IP
		case "june":
			return world.InternetIP
		}
		i, _ := sc.stationIndex(name)
		return world.PCIP(i)
	}
	if name == "inet" {
		return world.LargeInternetIP
	}
	if i, ok := sc.stationIndex(name); ok {
		return r.Large.Cfg.LargeStationIP(i)
	}
	ref, _ := sc.resolveHost(name) // "gw<c>"
	return world.LargeGatewayRadioIP(ref.channel)
}

// pairProber keeps one persistent echo context for a pair flow (or a
// seattle baseline probe), mirroring the large world's icmpProber: the
// context opens lazily inside the first probe so it is created on the
// source host's own shard.
type pairProber struct {
	slot   *pairSlot
	sched  *sim.Scheduler
	st     *world.Host
	dst    ip.Addr
	size   int
	opened bool
	id     uint16
	seq    uint16
}

func (p *pairProber) send() {
	p.slot.sent++
	if !p.opened {
		p.opened = true
		p.id, _ = p.st.Stack.PingOpen(p.dst, p.size, func(_ uint16, rtt time.Duration, _ ip.Addr) {
			p.slot.replies++
			p.slot.rtts = append(p.slot.rtts, pairSample{at: p.sched.Now(), rtt: rtt})
		})
		return
	}
	p.seq++
	p.st.Stack.PingSeq(p.dst, p.id, p.seq, p.size)
}

// mergePairs rebuilds pairSent, pairReplies and pairRTTs from the
// slots after every run window, in deterministic (virtual time, shard)
// order — the same merge the large world applies to its own slots
// (sim.MergeLanes; each slot is appended by one scheduler, so it is in
// time order).
func (r *Runner) mergePairs() {
	r.pairSent, r.pairReplies = 0, 0
	for i := range r.slots {
		r.pairSent += r.slots[i].sent
		r.pairReplies += r.slots[i].replies
	}
	r.pairRTTs = r.pairRTTs[:0]
	sim.MergeLanes(r.slots, func(s pairSlot) []pairSample { return s.rtts },
		func(s *pairSample) sim.Time { return s.at },
		func(_ int, s *pairSample) { r.pairRTTs = append(r.pairRTTs, s.rtt) })
}
