package experiments

import (
	"fmt"
	"io"
	"strings"
	"testing"
	"time"

	"packetradio/internal/world"
)

// These tests assert the *shape* of each reproduced result — who wins,
// by roughly what factor, where the crossovers fall — which is what
// EXPERIMENTS.md commits to.

func TestF1StagesExplainOneWayLatency(t *testing.T) {
	r := F1(io.Discard)
	oneWay := r.Get("one_way_ms")
	sum := r.Get("stage_sum_ms")
	if oneWay <= 0 || sum <= 0 {
		t.Fatalf("missing metrics: %+v", r.Metrics)
	}
	// The analytic stages must account for most of the measured time
	// (the remainder is CSMA persistence and per-byte rounding).
	if sum > oneWay || sum < 0.5*oneWay {
		t.Fatalf("stage sum %.0fms vs measured %.0fms", sum, oneWay)
	}
	// Airtime must be the single largest component (the §3 claim).
	if r.Get("airtime_ms") < 0.4*sum {
		t.Fatalf("airtime %.0fms is not dominant in %.0fms", r.Get("airtime_ms"), sum)
	}
}

func TestF2KeystrokeOverheadIsBrutal(t *testing.T) {
	r := F2(io.Discard)
	if r.Get("keystroke_onair_bytes") < 55 {
		t.Fatalf("keystroke bytes = %.0f", r.Get("keystroke_onair_bytes"))
	}
	if eff := r.Get("block_efficiency_pct"); eff < 70 || eff > 90 {
		t.Fatalf("block efficiency = %.1f%%", eff)
	}
}

func TestE1TransmissionTimeDominatesAt1200(t *testing.T) {
	r := E1(io.Discard)
	// At 1200 bps a 256-byte ping's RTT is mostly airtime...
	if share := r.Get("airtime_share_1200_256"); share < 0.35 {
		t.Fatalf("airtime share at 1200 bps = %.2f, want dominant", share)
	}
	// ...and raising the link speed collapses the RTT.
	if r.Get("rtt_1200_256_ms") < 1.5*r.Get("rtt_9600_256_ms") {
		t.Fatalf("1200 bps RTT %.0fms not much slower than 9600 %.0fms",
			r.Get("rtt_1200_256_ms"), r.Get("rtt_9600_256_ms"))
	}
}

func TestE2PromiscuousTNCSlowsGateway(t *testing.T) {
	r := E2(io.Discard)
	// At 60% background load the promiscuous gateway must be far
	// slower than the filtered one (the §3 observation + fix).
	prom := r.Get("rtt_s_load60_promiscuous")
	filt := r.Get("rtt_s_load60_filtered")
	if prom < 2*filt {
		t.Fatalf("promiscuous %.1fs vs filtered %.1fs at 60%% load: no slowdown", prom, filt)
	}
	if r.Get("drops_load60_promiscuous") == 0 {
		t.Fatal("no TNC drops in promiscuous mode at 60% load")
	}
	if r.Get("drops_load60_filtered") != 0 {
		t.Fatal("filtered mode dropped frames")
	}
	// Idle channel: both modes equal.
	if r.Get("rtt_s_load0_promiscuous") != r.Get("rtt_s_load0_filtered") {
		t.Fatal("modes differ on an idle channel")
	}
}

func TestE3AdaptiveRTOBeatsFixed(t *testing.T) {
	r := E3(io.Discard)
	if r.Get("dup_bytes_fixed-1.5s") <= r.Get("dup_bytes_adaptive") {
		t.Fatalf("fixed RTO wasted %.0fB vs adaptive %.0fB: no pathology",
			r.Get("dup_bytes_fixed-1.5s"), r.Get("dup_bytes_adaptive"))
	}
	if r.Get("rexmit_fixed-1.5s") <= r.Get("rexmit_adaptive") {
		t.Fatal("fixed RTO did not retransmit more")
	}
	if r.Get("time_s_adaptive") > r.Get("time_s_fixed-1.5s") {
		t.Fatal("adaptive transfer slower than fixed")
	}
}

func TestE4SingleRouteStretch(t *testing.T) {
	r := E4(io.Discard)
	if r.Get("stretch") < 1.15 {
		t.Fatalf("path stretch = %.2f, want > 1.15", r.Get("stretch"))
	}
}

func TestE5ACLLifecycle(t *testing.T) {
	r := E5(io.Discard)
	if r.Get("lifecycle_correct") != 1 {
		t.Fatal("§4.3 life cycle did not behave as specified")
	}
	if r.Get("blocked_total") < 3 {
		t.Fatalf("blocked = %.0f", r.Get("blocked_total"))
	}
}

func TestE6LatencyGrowsPerHop(t *testing.T) {
	r := E6(io.Discard)
	prev := 0.0
	for _, k := range []string{"rtt_s_0digis", "rtt_s_1digis", "rtt_s_2digis", "rtt_s_4digis", "rtt_s_8digis"} {
		v := r.Get(k)
		if v == 0 {
			t.Fatalf("%s missing (ping lost)", k)
		}
		if v <= prev {
			t.Fatalf("%s = %.1fs not greater than previous %.1fs", k, v, prev)
		}
		prev = v
	}
	// Eight hops must cost several times the direct path.
	if r.Get("rtt_s_8digis") < 4*r.Get("rtt_s_0digis") {
		t.Fatal("8-digi path suspiciously cheap")
	}
}

func TestE7ColdARPCostsOneExchange(t *testing.T) {
	r := E7(io.Discard)
	if r.Get("cold_rtt_s") <= r.Get("warm_rtt_s") {
		t.Fatal("cold resolution not slower than warm")
	}
	if r.Get("arp_requests") != 2 {
		t.Fatalf("ARP requests = %.0f, want 2 (cold + after expiry)", r.Get("arp_requests"))
	}
}

func TestE8BackboneCarriesIP(t *testing.T) {
	r := E8(io.Discard)
	if r.Get("cross_rtt_s") == 0 {
		t.Fatal("cross-coast ping lost")
	}
	if r.Get("convergence_s") <= 0 || r.Get("convergence_s") > 600 {
		t.Fatalf("convergence = %.0fs", r.Get("convergence_s"))
	}
	if r.Get("mid_forwards") == 0 {
		t.Fatal("mid node never forwarded")
	}
	if r.Get("cross_rtt_s") < 3*r.Get("local_rtt_s") {
		t.Fatal("four-radio-hop path suspiciously cheap")
	}
}

func TestE9AllServicesWork(t *testing.T) {
	r := E9(io.Discard)
	if r.Get("smtp_out_ok") != 1 || r.Get("smtp_in_ok") != 1 {
		t.Fatal("SMTP failed in some direction")
	}
	if r.Get("telnet_echo_s") <= 0 || r.Get("telnet_echo_s") > 60 {
		t.Fatalf("telnet echo = %.1fs", r.Get("telnet_echo_s"))
	}
	if r.Get("ftp_goodput_bps") <= 0 || r.Get("ftp_goodput_bps") > 1200 {
		t.Fatalf("ftp goodput = %.0f bit/s (must fit the 1200 bps channel)", r.Get("ftp_goodput_bps"))
	}
}

func TestE10CSMASaturates(t *testing.T) {
	r := E10(io.Discard)
	// Light load passes through...
	if g := r.Get("goodput_at_10"); g < 0.08 || g > 0.13 {
		t.Fatalf("goodput at 10%% offered = %.2f", g)
	}
	// ...but the channel caps out well below 100%.
	if g := r.Get("goodput_at_120"); g > 0.95 {
		t.Fatalf("goodput at 120%% offered = %.2f, no saturation", g)
	}
	if r.Get("goodput_at_120") < r.Get("goodput_at_10") {
		t.Fatal("goodput collapsed below light-load level")
	}
}

func TestRunAllProducesReadableReport(t *testing.T) {
	var sb strings.Builder
	results := RunAll(&sb)
	if len(results) != 19 {
		t.Fatalf("got %d results", len(results))
	}
	out := sb.String()
	for _, id := range []string{"F1", "F2a", "F2b", "E1", "E2", "E3", "E4", "E5", "E6", "E7", "E8", "E9", "E10", "E11", "E12", "E13", "E14", "E16", "E17", "E18"} {
		if !strings.Contains(out, "== "+id) {
			t.Fatalf("report missing section %s", id)
		}
	}
}

func TestE11RSPFConvergesWhereStaticBlackholes(t *testing.T) {
	r := E11(io.Discard)
	// The static control must deliver nothing after the gateway dies.
	if got := r.Get("static_delivered_after_fail"); got != 0 {
		t.Fatalf("static delivered %.0f probes after failure, want 0", got)
	}
	if r.Get("static_sent_after_fail") < 30 {
		t.Fatalf("static run sent too few probes: %.0f", r.Get("static_sent_after_fail"))
	}
	// RSPF must reconverge within a bounded number of simulated
	// seconds: neighbor death detection (4 hello intervals) plus
	// flood, SPF hold and one probe period.
	conv := r.Get("rspf_convergence_s")
	if conv < 0 {
		t.Fatal("rspf never reconverged")
	}
	bound := (4*e11HelloInterval + 30*time.Second).Seconds()
	if conv > bound {
		t.Fatalf("convergence %.0fs exceeds bound %.0fs", conv, bound)
	}
	// And most post-failure probes must get through.
	got, sent := r.Get("rspf_delivered_after_fail"), r.Get("rspf_sent_after_fail")
	if got < 0.7*sent {
		t.Fatalf("rspf delivered %.0f/%.0f after failure", got, sent)
	}
}

func TestE11IsBitForBitReproducible(t *testing.T) {
	var a, b strings.Builder
	ra := E11(&a)
	rb := E11(&b)
	if a.String() != b.String() {
		t.Fatalf("E11 output differs between runs:\n%s\n---\n%s", a.String(), b.String())
	}
	for k, v := range ra.Metrics {
		if rb.Metrics[k] != v {
			t.Fatalf("metric %s: %v vs %v", k, v, rb.Metrics[k])
		}
	}
}

func TestE12FastTimersEatTheChannel(t *testing.T) {
	r := E12(io.Discard)
	fast, slow := r.Get("util_pct_hello10"), r.Get("util_pct_hello60")
	if fast < 2*slow {
		t.Fatalf("hello=10s util %.1f%% not clearly above hello=60s %.1f%%", fast, slow)
	}
	// Production timers must leave most of the channel for traffic.
	if slow > 35 {
		t.Fatalf("slow-timer overhead %.1f%% is too high", slow)
	}
	if fast <= 0 || slow <= 0 {
		t.Fatalf("missing utilization metrics: %+v", r.Metrics)
	}
}

func TestE14ScalesTo200Stations(t *testing.T) {
	r := E14(io.Discard)
	for _, n := range []int{10, 50, 100, 200} {
		rate := r.Get(fmt.Sprintf("sim_s_per_wall_s_n%d", n))
		if rate <= 0 {
			t.Fatalf("no sim rate for N=%d: %+v", n, r.Metrics)
		}
		// The point of the burst datapath: even the 200-station world
		// must step much faster than real time. The bound is kept far
		// below observed rates (tens of thousands) so slow CI machines
		// never flake.
		if rate < 30 {
			t.Fatalf("N=%d stepped at %.0f sim-s/wall-s — the datapath has regressed badly", n, rate)
		}
	}
	// Light-contention worlds must actually deliver their traffic.
	if d := r.Get("delivery_n10"); d < 0.5 {
		t.Fatalf("N=10 delivery ratio %.2f", d)
	}
	// And the saturation explanation must hold: the loaded worlds run
	// their channels past the E10 knee while N=10 stays comfortable.
	if u := r.Get("utilization_n200"); u < 0.8 {
		t.Fatalf("N=200 channel utilization %.2f — the delivery dip is unexplained", u)
	}
	if u := r.Get("utilization_n10"); u > 0.8 {
		t.Fatalf("N=10 channel utilization %.2f — light world unexpectedly saturated", u)
	}
}

func TestE13RSPFBeatsStaticUnderChurn(t *testing.T) {
	r := E13(io.Discard)
	st, dy := r.Get("static_ratio"), r.Get("rspf_ratio")
	if dy <= st {
		t.Fatalf("rspf ratio %.2f not above static %.2f", dy, st)
	}
	// Sanity: churn must actually hurt the static run.
	if st > 0.9 {
		t.Fatalf("static ratio %.2f — churn schedule had no effect", st)
	}
}

func TestE16DAMALiftsKnee(t *testing.T) {
	r := E16(io.Discard)
	// The acceptance bar: past the knee, polled access delivers
	// strictly more frames than edge-CSMA at the same offered load —
	// and N=100 on one channel is well past it.
	for _, n := range []int{50, 100, 200} {
		key := fmt.Sprintf("_n%d", n)
		c, d := r.Get("replies_csma"+key), r.Get("replies_dama"+key)
		if d <= c {
			t.Fatalf("N=%d: DAMA delivered %.0f replies vs CSMA %.0f — the knee did not lift", n, d, c)
		}
		// Collision-free by construction, at every saturation level.
		if col := r.Get("collisions_dama" + key); col != 0 {
			t.Fatalf("N=%d: DAMA channel recorded %.0f collision pairs", n, col)
		}
		if col := r.Get("collisions_csma" + key); col == 0 {
			t.Fatalf("N=%d: CSMA control run had no collisions; the comparison is vacuous", n)
		}
	}
	// Below the knee the policies must both essentially work: DAMA's
	// poll overhead may cost a little delivery but not collapse it.
	if c, d := r.Get("delivery_csma_n10"), r.Get("delivery_dama_n10"); c < 0.8 || d < 0.8 {
		t.Fatalf("N=10 delivery csma=%.2f dama=%.2f — light world should be comfortable for both", c, d)
	}
	// The overhead columns must be populated: CSMA pays in deferrals,
	// DAMA in poll airtime.
	if r.Get("deferrals_csma_n100") == 0 || r.Get("polls_dama_n100") == 0 {
		t.Fatal("overhead counters missing")
	}
	if s := r.Get("control_share_dama_n100"); s <= 0 || s >= 0.5 {
		t.Fatalf("DAMA control airtime share %.2f at N=100 — want positive but minority", s)
	}
}

func TestE16LedgerAccountsEveryPing(t *testing.T) {
	// The observability acceptance bar: at the saturation knee, the
	// ping ledger must explain EVERY ping the harness sent — delivered
	// pings land in the "delivered" bucket and match the harness reply
	// counter, and every undelivered ping carries exactly one fate.
	for _, mac := range []world.MACMode{world.MACCSMA, world.MACDAMA} {
		pt := MACRun(100, mac)
		if pt.Sent == 0 {
			t.Fatalf("%v: harness sent no pings", mac)
		}
		sum := uint64(0)
		for _, n := range pt.Fates {
			sum += uint64(n)
		}
		if sum != pt.Sent {
			t.Fatalf("%v: fates sum to %d, harness sent %d — pings escaped the ledger", mac, sum, pt.Sent)
		}
		if got := uint64(pt.Fates["delivered"]); got != pt.Replies {
			t.Fatalf("%v: ledger delivered %d, harness counted %d replies", mac, got, pt.Replies)
		}
		// The knee run must actually exercise the loss paths: at least
		// one non-pending, non-delivered fate (a pinned loss reason).
		pinned := 0
		for reason, n := range pt.Fates {
			if reason != "delivered" && !strings.HasPrefix(reason, "pending") {
				pinned += n
			}
		}
		if mac == world.MACCSMA && pinned == 0 {
			t.Fatal("csma knee run pinned no loss reasons — the ledger never saw a drop")
		}
	}
}

func TestE17RDMBeatsTCPOnRadio(t *testing.T) {
	r := E17(io.Discard)
	// The subsystem's acceptance bar: Reliable-mode RDM goodput at
	// least 2x the committed TCP radio baseline (406 bps at MTU 256,
	// BENCH_sockets radio_stream_goodput_bps) somewhere on the
	// measured grid — the 576-byte bulk profile is that point.
	if got := r.Get("goodput_bps_rdm_mtu576"); got < 2*406 {
		t.Fatalf("RDM bulk goodput %.0f bps < 2x the 406 bps TCP baseline", got)
	}
	// And cell by cell, same MTU: the message transport must beat the
	// byte stream on its home path.
	for _, mtu := range []int{256, 576} {
		key := fmt.Sprintf("_mtu%d", mtu)
		tcp, rdm := r.Get("goodput_bps_tcp"+key), r.Get("goodput_bps_rdm"+key)
		if rdm <= tcp {
			t.Fatalf("MTU %d: RDM %.0f bps <= TCP %.0f bps", mtu, rdm, tcp)
		}
	}
	// The comparison is only meaningful if both transports actually
	// finished clean: all four RDM messages over a lossless channel
	// with no retransmissions.
	for _, mtu := range []int{256, 576} {
		key := fmt.Sprintf("_rdm_mtu%d", mtu)
		if r.Get("delivered"+key) != 4 {
			t.Fatalf("MTU %d: delivered %.0f messages, want 4", mtu, r.Get("delivered"+key))
		}
		if r.Get("resent"+key) != 0 {
			t.Fatalf("MTU %d: %.0f retransmissions on a clean channel", mtu, r.Get("resent"+key))
		}
	}
}
