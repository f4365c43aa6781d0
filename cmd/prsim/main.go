// Prsim runs the paper's Seattle deployment interactively: it builds
// the gateway, Ethernet and radio channel, runs a scripted workload,
// and prints a frame-level monitor trace — the closest thing to
// sitting at the MicroVAX console in 1988.
//
// Usage:
//
//	prsim                          # default: pings + a telnet session
//	prsim -bps 9600 -pcs 4 -acl    # faster channel, more PCs, §4.3 ACL
//	prsim -load 60                 # add 60% background channel load
//	prsim -mac dama -pcs 8         # polled access instead of CSMA
//
// The observability layer (internal/obs) hangs off flags that work in
// both modes:
//
//	prsim -pcap gw.pcap -filter "icmp"   # capture the gateway's KISS seam
//	prsim -trace run.json                # scheduler flight recorder -> Chrome trace
//	prsim -metrics run.csv -netstat      # 1 Hz metric samples + final netstat -s
//	prsim -stations 100 -mac dama        # E16-style scale world: N stations on
//	                                     # one channel, with a per-layer fate
//	                                     # ledger explaining every lost ping
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"packetradio/internal/ax25"
	"packetradio/internal/experiments"
	"packetradio/internal/ip"
	"packetradio/internal/obs"
	"packetradio/internal/radio"
	"packetradio/internal/scenario"
	"packetradio/internal/tcp"
	"packetradio/internal/telnet"
	"packetradio/internal/world"
)

// obsFlags are the observability attachments shared by the Seattle and
// scale modes.
type obsFlags struct {
	netstat bool
	pcap    string
	filter  string
	trace   string
	metrics string
	spans   bool
}

// attach wires the requested observers into a built world (gwHost
// names the host whose pr0 KISS seam the pcap tap watches) and returns
// a finish func that flushes files and prints the end-of-run reports.
func (o *obsFlags) attach(w *world.World, gwHost string) (func(), error) {
	var finishers []func()
	var tr *obs.Tracer
	if o.spans {
		tr = w.AttachTracer()
	}
	var flt *obs.Filter
	if o.filter != "" {
		f, err := obs.ParseFilter(o.filter)
		if err != nil {
			return nil, err
		}
		flt = f
	}
	if o.pcap != "" {
		f, err := os.Create(o.pcap)
		if err != nil {
			return nil, err
		}
		pw, err := w.CapturePort(gwHost, "pr0", f, flt)
		if err != nil {
			return nil, err
		}
		finishers = append(finishers, func() {
			fmt.Printf("# pcap: %d frames -> %s\n", pw.Count(), o.pcap)
			f.Close()
		})
	}
	if o.trace != "" {
		fr := w.EnableFlightRecorder(0)
		if tr != nil {
			fr.SetSpanSource(tr.Spans) // spans join the trace as flow events
		}
		finishers = append(finishers, func() {
			f, err := os.Create(o.trace)
			if err != nil {
				fmt.Fprintln(os.Stderr, err)
				return
			}
			fr.WriteTrace(f)
			f.Close()
			fmt.Printf("# trace: %d events (%d overwritten) -> %s\n", fr.Len(), fr.Dropped(), o.trace)
		})
	}
	if o.metrics != "" {
		reg := w.Registry()
		reg.StartSampling(w.Sched, time.Second)
		finishers = append(finishers, func() {
			f, err := os.Create(o.metrics)
			if err != nil {
				fmt.Fprintln(os.Stderr, err)
				return
			}
			reg.WriteCSV(f)
			f.Close()
			fmt.Printf("# metrics: %d series -> %s\n", reg.Len(), o.metrics)
		})
	}
	if o.spans {
		finishers = append(finishers, func() {
			bd := tr.Breakdown()
			// Fold the per-stage histograms into the registry so a
			// -netstat alongside -spans summarizes them too.
			bd.Register(w.Registry(), "trace.span.")
			fmt.Printf("# packet journeys: %d traced, %d incomplete\n", bd.Traces, bd.Incomplete)
			bd.WriteText(os.Stdout)
			fmt.Println("# span stream:")
			for _, s := range tr.Spans() {
				arg := ""
				if s.Arg != "" {
					arg = " [" + s.Arg + "]"
				}
				fmt.Printf("%12.6f %12.6f %-10s %-8s%s | %s\n",
					s.Start.Seconds(), s.End.Seconds(), s.Stage, s.Who, arg, s.ID)
			}
		})
	}
	if o.netstat {
		finishers = append(finishers, func() {
			fmt.Println("# netstat -s:")
			w.Netstat(os.Stdout, "")
		})
	}
	return func() {
		for _, f := range finishers {
			f()
		}
	}, nil
}

func main() {
	bps := flag.Int("bps", 1200, "radio channel bit rate")
	baud := flag.Int("baud", 9600, "host-TNC serial speed")
	pcs := flag.Int("pcs", 2, "radio PCs")
	acl := flag.Bool("acl", false, "enable the §4.3 access-control table")
	load := flag.Int("load", 0, "background channel load percent")
	dur := flag.Duration("dur", 10*time.Minute, "simulated duration")
	seed := flag.Int64("seed", 1, "simulation seed")
	quiet := flag.Bool("q", false, "suppress the frame monitor")
	macFlag := flag.String("mac", "csma", "channel access: csma (p-persistent) or dama (polled)")
	scenarioFlag := flag.String("scenario", "", "scenario mode: run this declarative scenario file (.json or .toml, see SCENARIOS.md) across -seeds seeds on the -workers engine and check its gates")
	stations := flag.Int("stations", 0, "scale mode: N stations on one channel with a ping-fate ledger (0 = Seattle scenario)")
	transportFlag := flag.String("transport", "icmp", "scale mode probe transport: icmp, tcp or rdm")
	channels := flag.Int("channels", 1, "scale mode: radio channels, stations spread round-robin, one gateway each")
	workersFlag := flag.Int("workers", 0, "scale mode: run on the sharded engine with this many window executors (0 = single-loop reference)")
	seeds := flag.Int("seeds", 0, "Monte-Carlo mode: step the scale world under this many independent seeds and report delivery/RTT percentiles (runs -workers seeds concurrently)")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile of the run to this file")
	memprofile := flag.String("memprofile", "", "write a heap profile at the end of the run to this file")
	var of obsFlags
	flag.BoolVar(&of.netstat, "netstat", false, "print every metric in the registry at the end of the run")
	flag.StringVar(&of.pcap, "pcap", "", "capture the gateway's KISS seam to this pcap file")
	flag.StringVar(&of.filter, "filter", "", "pcap capture filter, e.g. \"icmp or host 44.24.0.10\"")
	flag.StringVar(&of.trace, "trace", "", "record scheduler+MAC events to this Chrome trace JSON file")
	flag.StringVar(&of.metrics, "metrics", "", "sample every metric at 1 Hz of virtual time to this CSV file")
	flag.BoolVar(&of.spans, "spans", false, "trace every packet's journey and print the span stream plus the per-stage latency breakdown (joins -trace output as flow events)")
	flag.Parse()

	mac, err := world.ParseMACMode(*macFlag)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}

	transport, err := world.ParseTransportMode(*transportFlag)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		defer func() {
			pprof.StopCPUProfile()
			f.Close()
			fmt.Printf("# cpuprofile -> %s\n", *cpuprofile)
		}()
	}
	if *memprofile != "" {
		defer func() {
			f, err := os.Create(*memprofile)
			if err != nil {
				fmt.Fprintln(os.Stderr, err)
				return
			}
			runtime.GC()
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(os.Stderr, err)
			}
			f.Close()
			fmt.Printf("# memprofile -> %s\n", *memprofile)
		}()
	}

	if *scenarioFlag != "" {
		runScenario(*scenarioFlag, *seeds, *workersFlag, &of)
		return
	}
	if *seeds > 0 {
		runSweep(*seeds, *stations, *channels, *workersFlag, *dur)
		return
	}
	if *stations > 0 {
		runScale(*stations, *channels, *workersFlag, mac, transport, *seed, *bps, *dur, &of)
		return
	}

	s := world.NewSeattle(world.SeattleConfig{
		Seed: *seed, NumPCs: *pcs, BitRate: *bps, Baud: *baud, WithACL: *acl, MAC: mac,
	})
	finish, err := of.attach(s.W, "uw-gw")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	defer finish()

	if !*quiet {
		s.Gateway.Radio("pr0").Driver.Monitor = func(dir string, f *ax25.Frame) {
			fmt.Printf("%10.3f gw %-2s %v\n", s.W.Sched.Now().Seconds(), dir, f)
		}
	}
	if *load > 0 {
		addChatter(s, *load)
	}

	// Workload 1: the paper's first test, ICMP-level.
	fmt.Printf("# %d bps channel, %d baud serial, %d PCs, acl=%v, load=%d%%, mac=%v\n",
		*bps, *baud, *pcs, *acl, *load, mac)
	fmt.Println("# pc1 pings the Internet host through the gateway")
	for i := 0; i < 3; i++ {
		seq := i
		s.PCs[0].Stack.Ping(world.InternetIP, 64, func(_ uint16, rtt time.Duration, from ip.Addr) {
			fmt.Printf("%10.3f ping %d: reply from %v in %.2fs\n",
				s.W.Sched.Now().Seconds(), seq, from, rtt.Seconds())
		})
		s.W.Run(time.Minute)
	}

	// Workload 2: a telnet session radio -> Internet.
	fmt.Println("# pc1 telnets to the Internet host")
	inetSL := s.Internet.Sockets()
	inetSL.StreamDefaults = tcp.Config{MSS: 216}
	telnet.Serve(inetSL, &telnet.Server{Hostname: "june"})
	cl := telnet.DialClient(s.PCs[0].Sockets(), world.InternetIP)
	s.W.Run(2 * time.Minute)
	cl.SendLine("uname")
	s.W.Run(2 * time.Minute)
	cl.SendLine("logout")
	s.W.Run(*dur)

	fmt.Println("# telnet transcript:")
	for _, line := range strings.Split(cl.Output.String(), "\n") {
		if strings.TrimSpace(line) != "" {
			fmt.Println("  |", strings.TrimRight(line, "\r"))
		}
	}

	gw := s.Gateway
	fmt.Printf("# gateway stats: forwarded=%d fragsOut=%d ttlDrops=%d filterDrops=%d\n",
		gw.Stack.Stats.Forwarded, gw.Stack.Stats.FragsOut,
		gw.Stack.Stats.TTLDrops, gw.Stack.Stats.FilterDrops)
	port := gw.Radio("pr0")
	fmt.Printf("# gateway radio: ipIn=%d notForUs=%d serialBytes=%d tncDrops=%d\n",
		port.Driver.DStats.IPIn, port.Driver.DStats.NotForUs,
		port.Driver.DStats.BytesFed, port.TNC.Stats.HostDrops)
	fmt.Printf("# channel: utilization=%.1f%% collisions=%d\n",
		s.Channel.Utilization()*100, s.Channel.Stats.CollisionPairs)
	if mac == world.MACDAMA {
		fmt.Printf("# dama: polls=%d timeouts=%d controlAirtime=%v (%.1f%% of airtime)\n",
			port.RF.Stats.PollsSent, port.RF.Stats.PollTimeouts, s.Channel.Stats.ControlAirtime,
			100*float64(s.Channel.Stats.ControlAirtime)/float64(s.Channel.Stats.Airtime))
	}
	if s.GatewayGW.ACL != nil {
		fmt.Printf("# acl: %+v\n", s.GatewayGW.ACL.Stats)
	}
	_ = os.Stdout
}

// runScale is the E16-style scale mode: N stations spread over
// -channels radio channels (default one), each channel behind its own
// gateway, each station probing the Internet host once a minute. With
// the default ICMP transport an obs.PingLedger watches every seam and
// accounts for every ping ever sent — delivered, lost to a named drop
// reason, or still pending at a named stage. With -transport tcp or rdm the same probe schedule
// rides a real transport instead, so losses become latency and the
// summary reports transport counters in place of the fate ledger.
// With -workers > 0 the world runs on the sharded engine (DESIGN.md
// §3g) — results, including the fate ledger (whose taps record into
// per-shard lanes merged by virtual time), are identical, and big
// worlds step much faster.
func runScale(n, channels, workers int, mac world.MACMode, transport world.TransportMode, seed int64, bps int, dur time.Duration, of *obsFlags) {
	lw := world.NewLarge(world.LargeConfig{
		Seed: seed, Stations: n, Channels: channels, BitRate: bps,
		PingInterval: time.Minute, MAC: mac, Transport: transport,
		Workers: workers,
	})
	var ledger *obs.PingLedger
	if transport == world.TransportICMP {
		ledger = lw.W.AttachPingLedger()
	}
	finish, err := of.attach(lw.W, "gw1")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	engine := "single-loop"
	if workers > 0 {
		engine = fmt.Sprintf("sharded (%d shards, %d workers)", len(lw.W.Shards().Shards()), lw.W.Shards().Workers())
	}
	fmt.Printf("# scale mode: %d stations, %d x %d bps channels, mac=%v, transport=%v, %s engine, 60 s probe interval\n",
		n, channels, bps, mac, transport, engine)
	lw.W.Run(30 * time.Second) // warm-up: ARP, first probe wave, DAMA election
	lw.W.Run(dur)

	fmt.Printf("# probes: sent=%d replies=%d delivery=%.0f%%\n",
		lw.Sent, lw.Replies, lw.DeliveryRatio()*100)
	util, coll := 0.0, uint64(0)
	for _, ch := range lw.Channels {
		util += ch.Utilization()
		coll += ch.Stats.CollisionPairs
	}
	fmt.Printf("# channels: mean utilization=%.1f%% collisions=%d\n",
		util/float64(len(lw.Channels))*100, coll)
	if workers > 0 {
		g := lw.W.Shards()
		fmt.Printf("# sharded engine: events=%d windows=%d crossings=%d\n",
			lw.W.EventsFired(), g.Windows(), g.Crossings())
	}
	switch transport {
	case world.TransportICMP:
		fmt.Println("# ping fates (first thing that went wrong, most common first):")
		ledger.WriteFates(os.Stdout)
	case world.TransportTCP:
		if tp := lw.Internet.Sockets().TCPActive(); tp != nil {
			fmt.Printf("# inet tcp: segsIn=%d segsOut=%d accepts=%d\n",
				tp.Stats.SegsIn, tp.Stats.SegsOut, tp.Stats.Accepts)
		}
	case world.TransportRDM:
		if rm := lw.Internet.Sockets().RDMActive(); rm != nil {
			s := rm.Stats
			fmt.Printf("# inet rdm: delivered=%d sent=%d resent=%d acksOut=%d naksOut=%d failed=%d\n",
				s.Delivered, s.Sent, s.Resent, s.AcksOut, s.NaksOut, s.Failed)
		}
	}
	finish()
}

// runScenario is the declarative mode: load a scenario file, sweep it
// across seeds on the selected engine (-workers picks the engine for
// every run, not the sweep concurrency — independent seeds always run
// up to GOMAXPROCS at a time), print the per-seed results and the gate
// verdicts, and exit 1 if a gate fails. The report is deterministic at
// any -workers count, so CI diffs the two engines' output byte for
// byte. With observability flags set the mode switches to a single
// instrumented run of seed 1 instead (a sweep has no one world to tap)
// and checks no gates.
func runScenario(path string, seeds, workers int, of *obsFlags) {
	sc, err := scenario.Load(path)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	if of.netstat || of.pcap != "" || of.trace != "" || of.metrics != "" || of.spans {
		r, err := scenario.Compile(sc, 1, workers)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		gwHost := "gw1"
		if sc.Topology.Base == "seattle" {
			gwHost = "uw-gw"
		}
		finish, err := of.attach(r.W, gwHost)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		fmt.Println(sc.Summary())
		fmt.Println("# single instrumented run (seed 1); gates not checked")
		st := r.Run()
		fmt.Printf("# probes: sent=%d replies=%d delivery=%.3f rtt_p50=%s rtt_p95=%s control_share=%.3f\n",
			st.Sent, st.Replies, st.Delivery, st.RTTPercentile(50), st.RTTPercentile(95), st.ControlShare)
		finish()
		return
	}
	rep, err := scenario.Evaluate(sc, seeds, workers)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	rep.WriteText(os.Stdout)
	if !rep.Pass() {
		os.Exit(1)
	}
}

// runSweep is the Monte-Carlo mode: the same scale world stepped under
// -seeds independent seeds, up to -workers of them concurrently (each
// world is itself single-loop — independent seeds are embarrassingly
// parallel, no conservative protocol needed). Reports the delivery and
// RTT distributions a single deterministic run cannot show.
func runSweep(seeds, stations, channels, workers int, dur time.Duration) {
	if stations <= 0 {
		stations = 200
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	fmt.Printf("# monte-carlo: %d seeds x %d stations / %d channels, %d concurrent runs, %v timed\n",
		seeds, stations, channels, workers, dur)
	start := time.Now()
	pt := experiments.Sweep(seeds, stations, channels, workers, dur)
	fmt.Printf("# delivery: median=%.1f%% p95-worst=%.1f%% min=%.1f%%\n",
		pt.DeliveryMedian*100, pt.DeliveryP95*100, pt.DeliveryMin*100)
	fmt.Printf("# rtt:      median=%.2fs p95=%.2fs\n",
		pt.RTTMedian.Seconds(), pt.RTTP95.Seconds())
	fmt.Printf("# wall: %.1fs\n", time.Since(start).Seconds())
}

func addChatter(s *world.Seattle, loadPct int) {
	params := radio.DefaultParams()
	a := s.Channel.Attach("CHAT1", params)
	b := s.Channel.Attach("CHAT2", params)
	a.SetReceiver(func([]byte, *any, bool) {})
	b.SetReceiver(func([]byte, *any, bool) {})
	f := ax25.NewUI(ax25.MustAddr("CHAT2"), ax25.MustAddr("CHAT1"), ax25.PIDNone, make([]byte, 120))
	enc, _ := f.Encode(nil)
	framed := ax25.AppendFCS(enc)
	per := s.Channel.AirTime(len(framed)) + params.TXDelay
	interval := time.Duration(float64(per) * 100 / float64(loadPct))
	s.W.Sched.Every(interval, func() {
		if a.QueueLen() < 4 {
			a.Send(framed)
		}
	})
}
