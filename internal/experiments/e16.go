package experiments

import (
	"fmt"
	"io"
	"sort"
	"time"

	"packetradio/internal/world"
)

// MACPoint is one deterministic measurement of an N-station,
// single-channel world under a channel-access policy (the E16
// instrument). Everything here is a pure function of the seed — the
// virtual clock, fixed seeds and RNG-free DAMA make every field
// gateable, and the CI event gate pins the delivery counts exactly.
type MACPoint struct {
	Stations int

	Sent, Replies uint64
	Delivery      float64
	MedianRTT     time.Duration // of delivered pings (0 when none)
	EventsPerSimS float64

	Deferrals    uint64  // CSMA: slot deferrals, all stations
	PollsSent    uint64  // DAMA: polls issued by all masters
	PollTimeouts uint64  // DAMA: polls that went unanswered
	ControlShare float64 // DAMA: control airtime / total airtime
	Collisions   uint64  // overlapping-transmission pairs
	Utilization  float64

	// Fates explains every ping by its outcome — "delivered", or for
	// the rest the first thing that went wrong ("req: collision",
	// "pending: rep in gateway queue", ...), from the obs.PingLedger
	// attached to the run. The counts sum to Sent and the "delivered"
	// bucket equals Replies, so nothing escapes the accounting.
	Fates map[string]int
}

// macMemo mirrors scaleMemo: E16, the bench writer and the CI event
// gate all step the same deterministic worlds.
var macMemo = map[struct {
	n   int
	mac world.MACMode
}]MACPoint{}

// MACRun steps the E16 world — N stations on ONE 1200 bps channel
// behind one gateway, every station pinging the Internet host once a
// minute — for three simulated minutes after a 30 s warm-up, under the
// given MAC. One channel (unlike E14's N/25) is the point: it
// sweeps stations-per-channel straight through the CSMA saturation
// knee, which is exactly where polled access must keep delivering.
func MACRun(n int, mac world.MACMode) MACPoint {
	memoKey := struct {
		n   int
		mac world.MACMode
	}{n, mac}
	if pt, ok := macMemo[memoKey]; ok {
		return pt
	}
	pt := macRunFresh(n, mac)
	macMemo[memoKey] = pt
	return pt
}

func macRunFresh(n int, mac world.MACMode) MACPoint {
	lw := world.NewLarge(world.LargeConfig{
		Seed:         1,
		Stations:     n,
		Channels:     1,
		PingInterval: time.Minute,
		MAC:          mac,
		// Scale worlds default to the NOS-style ARP conveniences:
		// without them a blocking request/reply exchange per station
		// dominates the polled channel's cold start, and the
		// comparison would mostly measure ARP, not channel access.
	})
	// The ledger watches from t=0 so every ping ever sent is accounted
	// for; its taps schedule no events, so the CI event gate still pins
	// the same counts.
	ledger := lw.W.AttachPingLedger()
	// Warm-up covers ARP, the first ping wave, and (under DAMA) the
	// gateway's master election.
	lw.W.Run(30 * time.Second)
	firedBefore := lw.W.Sched.Fired()
	const simWindow = 3 * time.Minute
	lw.W.Run(simWindow)

	ch := lw.Channels[0]
	pt := MACPoint{
		Stations:      n,
		Sent:          lw.Sent,
		Replies:       lw.Replies,
		Delivery:      lw.DeliveryRatio(),
		EventsPerSimS: float64(lw.W.Sched.Fired()-firedBefore) / simWindow.Seconds(),
		Collisions:    ch.Stats.CollisionPairs,
		Utilization:   ch.Utilization(),
	}
	if len(lw.RTTs) > 0 {
		rtts := append([]time.Duration(nil), lw.RTTs...)
		sort.Slice(rtts, func(i, j int) bool { return rtts[i] < rtts[j] })
		pt.MedianRTT = rtts[len(rtts)/2]
	}
	if ch.Stats.Airtime > 0 {
		pt.ControlShare = float64(ch.Stats.ControlAirtime) / float64(ch.Stats.Airtime)
	}
	for _, h := range append(append([]*world.Host(nil), lw.Stations...), lw.Gateways...) {
		rf := h.Radio("pr0").RF
		pt.Deferrals += rf.CSMADeferrals()
		pt.PollsSent += rf.Stats.PollsSent
		pt.PollTimeouts += rf.Stats.PollTimeouts
	}
	pt.Fates = ledger.Fates()
	return pt
}

// E16 compares the two channel-access policies on the saturated
// single-channel world: p-persistent CSMA (carrier-edge engine, the
// paper's MAC) against DAMA polled access (internal/dama). Below the
// knee the policies tie — CSMA even wins on latency, since a poll
// cycle costs round trips an idle carrier-sense channel never pays.
// Past the knee (N ≳ 25 on one channel) CSMA's offered load exceeds
// the airtime budget, collisions eat the channel and delivery
// collapses, while the polled channel stays collision-free by
// construction and keeps delivering at its capacity; the acceptance
// bar is DAMA strictly ahead at N=100. The overhead columns price the
// trade: CSMA pays in deferrals and collisions, DAMA in poll airtime
// and timeout windows.
func E16(w io.Writer) *Result {
	r := newResult("E16", "DAMA vs CSMA: delivery past the saturation knee")
	t := newTable(w, "E16", "N stations, ONE 1200 bps channel, 60 s ping interval, 3 simulated minutes per cell")
	t.row("stations", "mac", "delivered", "replies", "median rtt", "ev/sim-s", "collisions", "overhead")

	for _, n := range []int{10, 50, 100, 200} {
		key := fmt.Sprintf("_n%d", n)
		c := MACRun(n, world.MACCSMA)
		d := MACRun(n, world.MACDAMA)
		r.set("replies_csma"+key, float64(c.Replies))
		r.set("replies_dama"+key, float64(d.Replies))
		r.set("delivery_csma"+key, c.Delivery)
		r.set("delivery_dama"+key, d.Delivery)
		r.set("median_rtt_ms_csma"+key, float64(c.MedianRTT)/float64(time.Millisecond))
		r.set("median_rtt_ms_dama"+key, float64(d.MedianRTT)/float64(time.Millisecond))
		r.set("events_per_sim_s_csma"+key, c.EventsPerSimS)
		r.set("events_per_sim_s_dama"+key, d.EventsPerSimS)
		r.set("deferrals_csma"+key, float64(c.Deferrals))
		r.set("polls_dama"+key, float64(d.PollsSent))
		r.set("poll_timeouts_dama"+key, float64(d.PollTimeouts))
		r.set("control_share_dama"+key, d.ControlShare)
		r.set("collisions_csma"+key, float64(c.Collisions))
		r.set("collisions_dama"+key, float64(d.Collisions))
		t.row(n, "csma", fmt.Sprintf("%.0f%%", c.Delivery*100), c.Replies, sec(c.MedianRTT)+"s",
			fmt.Sprintf("%.1f", c.EventsPerSimS), c.Collisions,
			fmt.Sprintf("%d deferrals", c.Deferrals))
		t.row("", "dama", fmt.Sprintf("%.0f%%", d.Delivery*100), d.Replies, sec(d.MedianRTT)+"s",
			fmt.Sprintf("%.1f", d.EventsPerSimS), d.Collisions,
			fmt.Sprintf("%d polls, %d timeouts, %.0f%% ctl air", d.PollsSent, d.PollTimeouts, d.ControlShare*100))
	}
	t.flush()
	fmt.Fprintln(w, "   (one channel on purpose: N sweeps stations-per-channel through the E14 knee;")
	fmt.Fprintln(w, "    DAMA's zero collision column is the collision-free-by-construction argument,")
	fmt.Fprintln(w, "    and its control overhead is the price of owning the schedule)")

	// The ledger's answer to "where did the missing pings go": every
	// undelivered ping at the saturation-knee cell, by the first thing
	// that went wrong with it. The counts sum to sent minus replies —
	// no ping goes unexplained.
	fmt.Fprintln(w, "\n   N=100 undelivered-ping fates (obs.PingLedger):")
	for _, mp := range []struct {
		mac string
		pt  MACPoint
	}{{"csma", MACRun(100, world.MACCSMA)}, {"dama", MACRun(100, world.MACDAMA)}} {
		fmt.Fprintf(w, "     %s: %d sent, %d delivered, %d undelivered\n",
			mp.mac, mp.pt.Sent, mp.pt.Replies, mp.pt.Sent-mp.pt.Replies)
		for _, fc := range sortedFates(mp.pt.Fates) {
			if fc.reason == "delivered" {
				continue
			}
			fmt.Fprintf(w, "       %5d  %s\n", fc.n, fc.reason)
			r.set(fmt.Sprintf("fate_%s_n100[%s]", mp.mac, fc.reason), float64(fc.n))
		}
	}
	return r
}

// sortedFates orders a fate map most-common-first (ties by name) for
// stable printing.
func sortedFates(fates map[string]int) []struct {
	reason string
	n      int
} {
	out := make([]struct {
		reason string
		n      int
	}, 0, len(fates))
	for reason, n := range fates {
		out = append(out, struct {
			reason string
			n      int
		}{reason, n})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].n != out[j].n {
			return out[i].n > out[j].n
		}
		return out[i].reason < out[j].reason
	})
	return out
}
