// Causal packet-journey tracing (DESIGN.md §3i): where virtual time
// goes for the packets that survive. The ping ledger next door answers
// "did it arrive, and if not, where did it die"; the Tracer answers
// "it took 4 seconds — how much was ARP hold, how much CSMA deferral,
// how much DAMA poll wait, how much serial drain, how much airtime".
//
// The design is crossing-based rather than begin/end-based: every seam
// a traced datagram crosses records one timestamped crossing point in
// the packet journal (stack out, ARP hold, KISS tx, MAC queue, key-up,
// air arrival, KISS rx, forward, stack in), and spans are the
// intervals between consecutive crossings of one trace. Because a
// journey's crossings telescope, the stage spans sum to exactly the
// end-to-end latency — the property E19 gates at >= 99%.
//
// The Tracer is a fold over the journal (journal.go), which hands it
// every journey's crossings in the same order on the single-loop and
// sharded engines at any worker count. The global span stream orders
// traces by TraceID, making it reflect.DeepEqual-comparable across
// engines.
//
// Tracing costs nothing when disabled: the tracer-only seams (KISS,
// MAC, ARP) are only hooked by World.AttachTracer, and a world with no
// packet observer carries no journal at all (the CI gate
// TestTracingDisabledAddsNoAllocs pins this).

package obs

import (
	"cmp"
	"fmt"
	"io"
	"slices"
	"sort"
	"strings"
	"time"

	"packetradio/internal/ip"
	"packetradio/internal/sim"
)

// TraceID identifies one traced packet journey. For ICMP echoes A is
// the pinging station and B the pinged host, with the echo id/seq —
// the request and its reply are one round-trip trace. For every other
// protocol A/B are the datagram's source/destination and ID is the IP
// header identification field: each datagram (a TCP segment, an RDM
// message, a retransmission with its fresh ID) is its own one-way
// trace.
type TraceID struct {
	Proto   uint8
	A, B    ip.Addr
	ID, Seq uint16
}

// String renders the trace identity the way waterfalls title it.
func (id TraceID) String() string {
	return fmt.Sprintf("%s %v>%v id %d seq %d", protoName(id.Proto), id.A, id.B, id.ID, id.Seq)
}

func protoName(p uint8) string {
	switch p {
	case ip.ProtoICMP:
		return "icmp"
	case ip.ProtoTCP:
		return "tcp"
	case ip.ProtoUDP:
		return "udp"
	case ip.ProtoRDM:
		return "rdm"
	}
	return fmt.Sprintf("proto%d", p)
}

// less is the total order the global span stream uses — any fixed
// order works; byte order over the struct's fields is the simplest.
func (id TraceID) less(o TraceID) bool {
	if id.Proto != o.Proto {
		return id.Proto < o.Proto
	}
	if id.A != o.A {
		return string(id.A[:]) < string(o.A[:])
	}
	if id.B != o.B {
		return string(id.B[:]) < string(o.B[:])
	}
	if id.ID != o.ID {
		return id.ID < o.ID
	}
	return id.Seq < o.Seq
}

// Crossing points, in journey order for one hop, then the loss point
// that ends a journey short. ptReply marks the reply leg of an ICMP
// round trip (the same physical seams, walked back). The stage between
// two consecutive crossings is named by the arriving one — see
// stageName.
const (
	PtOrigin   uint8 = 1  // source stack emitted the datagram
	PtARPHold  uint8 = 2  // driver parked it on an ARP hold queue
	PtARPFlush uint8 = 3  // ARP resolved; hold queue flushed
	PtKISSTx   uint8 = 4  // driver framed it onto the KISS serial line
	PtMACQueue uint8 = 5  // radio accepted it into the MAC queue
	PtTxStart  uint8 = 6  // transmitter keyed up with it
	PtAirRx    uint8 = 7  // addressee's radio finished receiving it
	PtKISSRx   uint8 = 8  // receiving driver pulled it off the serial line
	PtFwd      uint8 = 9  // a router's stack forwarded it
	PtArrive   uint8 = 10 // destination stack accepted it
	PtLoss     uint8 = 11 // a seam lost it; the journal's arg is the reason

	ptReply uint8 = 16 // OR'd onto the reply leg's points
)

// Span stage names. The stage is keyed on the crossing that *ends* it
// (with one look-back to tell radio ingress from backbone transit), so
// the vocabulary is closed and identical on both engines.
const (
	StageIPOut      = "ip-out"     // route lookup + driver output path
	StageARPWait    = "arp-wait"   // held awaiting ARP resolution
	StageDrvOut     = "drv-out"    // resolved datagram to KISS framing
	StageSerialTx   = "serial-tx"  // KISS bytes draining down the serial line
	StageMACWait    = "mac-wait"   // MAC queue + CSMA deferral / DAMA poll wait
	StageAirtime    = "airtime"    // key-up to end of frame at the addressee
	StageRxSerial   = "rx-serial"  // receiver TNC + serial + driver ingress
	StageIPRx       = "ip-rx"      // received frame to stack routing decision
	StageBackbone   = "backbone"   // Ethernet transit between stacks
	StageTurnaround = "turnaround" // destination host turning an echo around
)

// SpanStages lists every stage name the tracer can emit, in journey
// order — the vocabulary scenario span_latency gates validate against.
func SpanStages() []string {
	return []string{
		StageIPOut, StageARPWait, StageDrvOut, StageSerialTx, StageMACWait,
		StageAirtime, StageRxSerial, StageIPRx, StageBackbone, StageTurnaround,
	}
}

// stageName names the span ending at crossing cur, having started at
// crossing prev.
func stageName(prev, cur uint8) string {
	switch cur &^ ptReply {
	case PtOrigin:
		return StageTurnaround // reply-leg origin: the echo turned around
	case PtARPHold:
		return StageIPOut
	case PtARPFlush:
		return StageARPWait
	case PtKISSTx:
		return StageDrvOut
	case PtMACQueue:
		return StageSerialTx
	case PtTxStart:
		return StageMACWait
	case PtAirRx:
		return StageAirtime
	case PtKISSRx:
		return StageRxSerial
	case PtFwd, PtArrive:
		if prev&^ptReply == PtKISSRx {
			return StageIPRx
		}
		return StageBackbone
	}
	return "unknown"
}

// Cross is one recorded seam crossing.
type Cross struct {
	T     sim.Time
	Point uint8
	Who   string // the host/station/transceiver at the seam
	Arg   string // seam detail: "deferrals=3", "master=GW1", ...
}

// Span is one reconstructed stage interval of a trace.
type Span struct {
	ID         TraceID
	Stage      string
	Who        string // who ended the stage (the arriving crossing's seam)
	Arg        string
	Start, End sim.Time
}

// Duration reports the span's width.
func (s Span) Duration() time.Duration { return s.End.Sub(s.Start) }

// Trace is one journey's crossings in causal order, as reconstructed
// by Tracer.Traces.
type Trace struct {
	ID        TraceID
	Crossings []Cross
}

// Complete reports whether the journey ran origin-to-arrival: an ICMP
// trace must see the reply's arrival back at the station, any other
// trace its datagram's arrival at the destination stack.
func (tr Trace) Complete() bool {
	n := len(tr.Crossings)
	if n < 2 || tr.Crossings[0].Point != PtOrigin {
		return false
	}
	last := tr.Crossings[n-1].Point
	if tr.ID.Proto == ip.ProtoICMP {
		return last == PtArrive|ptReply
	}
	return last == PtArrive
}

// Elapsed is the end-to-end latency: last crossing minus first. For a
// complete ICMP trace this is the round-trip time.
func (tr Trace) Elapsed() time.Duration {
	if len(tr.Crossings) == 0 {
		return 0
	}
	return tr.Crossings[len(tr.Crossings)-1].T.Sub(tr.Crossings[0].T)
}

// Spans reconstructs the stage intervals between consecutive
// crossings. They telescope: their durations sum to Elapsed exactly.
func (tr Trace) Spans() []Span {
	if len(tr.Crossings) < 2 {
		return nil
	}
	out := make([]Span, 0, len(tr.Crossings)-1)
	for i := 1; i < len(tr.Crossings); i++ {
		prev, cur := tr.Crossings[i-1], tr.Crossings[i]
		out = append(out, Span{
			ID:    tr.ID,
			Stage: stageName(prev.Point, cur.Point),
			Who:   cur.Who,
			Arg:   cur.Arg,
			Start: prev.T,
			End:   cur.T,
		})
	}
	return out
}

// WriteWaterfall renders the trace as a per-stage waterfall: offset,
// width, stage, seam, and a proportional bar.
func (tr Trace) WriteWaterfall(w io.Writer) {
	spans := tr.Spans()
	total := tr.Elapsed()
	fmt.Fprintf(w, "trace %s: %v over %d stages\n", tr.ID, total, len(spans))
	const barWidth = 32
	for _, s := range spans {
		bar := 0
		if total > 0 {
			bar = int(int64(barWidth) * int64(s.Duration()) / int64(total))
		}
		detail := s.Who
		if s.Arg != "" {
			detail += " " + s.Arg
		}
		fmt.Fprintf(w, "  +%-12v %-12v %-10s %-20s |%s\n",
			s.Start.Sub(tr.Crossings[0].T), s.Duration(), s.Stage, detail,
			"#"+strings.Repeat("#", bar))
	}
}

// Tracer strings the journal's crossings into journeys. Create it with
// NewTracer and read Traces/Spans/Breakdown between runs.
type Tracer struct {
	j      *Journal
	traces []*Trace           // every journey, in order of first crossing
	open   map[TraceID]*Trace // each TraceID's latest journey
}

// NewTracer builds an empty tracer folding j's crossings from now on.
func NewTracer(j *Journal) *Tracer {
	t := &Tracer{j: j, open: make(map[TraceID]*Trace)}
	j.addFold(t.fold)
	return t
}

// fold appends one crossing to its journey. A TraceID can be reused:
// an echo context closes when its reply lands and the stack hands the
// ICMP id to the next Ping, so the same (proto, pair, id, seq) names
// several journeys over a long run. Every non-reply origination
// therefore starts a fresh journey. Losses end no span and are left to
// the ledger.
func (t *Tracer) fold(c *crossing) {
	if c.point&^ptReply == PtLoss {
		return
	}
	tr := t.open[c.id]
	if tr == nil || c.point == PtOrigin {
		tr = &Trace{ID: c.id}
		t.open[c.id] = tr
		t.traces = append(t.traces, tr)
	}
	tr.Crossings = append(tr.Crossings, Cross{T: c.t, Point: c.point, Who: c.who, Arg: c.detail()})
}

// Reset discards every journey recorded so far — called between a
// warm-up window and the measured window so the breakdown reflects
// steady state. Journeys straddling the reset simply never complete.
func (t *Tracer) Reset() {
	t.j.Flush()
	t.traces = nil
	t.open = make(map[TraceID]*Trace)
}

// traceFrom extracts a trace identity from a datagram. ICMP echoes
// fold request and reply into one trace (reply reports true on the
// return leg); everything else keys one one-way trace per datagram on
// the IP identification field. Fragments beyond the first are not
// traced.
func traceFrom(pkt *ip.Packet) (id TraceID, reply, ok bool) {
	if pkt == nil || pkt.FragOff != 0 {
		return id, false, false
	}
	if pkt.Proto == ip.ProtoICMP {
		if len(pkt.Payload) < 8 {
			return id, false, false
		}
		icmpID := uint16(pkt.Payload[4])<<8 | uint16(pkt.Payload[5])
		icmpSeq := uint16(pkt.Payload[6])<<8 | uint16(pkt.Payload[7])
		switch pkt.Payload[0] {
		case 8: // echo request
			return TraceID{Proto: ip.ProtoICMP, A: pkt.Src, B: pkt.Dst, ID: icmpID, Seq: icmpSeq}, false, true
		case 0: // echo reply
			return TraceID{Proto: ip.ProtoICMP, A: pkt.Dst, B: pkt.Src, ID: icmpID, Seq: icmpSeq}, true, true
		}
		return id, false, false
	}
	return TraceID{Proto: pkt.Proto, A: pkt.Src, B: pkt.Dst, ID: pkt.ID}, false, true
}

// Traces returns every journey, ordered by TraceID, the journeys of
// one TraceID in chronological order, each trace's crossings in causal
// order on both engines. The crossing slices are the tracer's own,
// capped so appends cannot reach them.
func (t *Tracer) Traces() []Trace {
	t.j.Flush()
	sort.SliceStable(t.traces, func(i, j int) bool { return t.traces[i].ID.less(t.traces[j].ID) })
	out := make([]Trace, len(t.traces))
	for i, tr := range t.traces {
		out[i] = Trace{ID: tr.ID, Crossings: tr.Crossings[:len(tr.Crossings):len(tr.Crossings)]}
	}
	return out
}

// Spans returns the global span stream: every trace's spans, traces in
// TraceID order — the reflect.DeepEqual surface the cross-engine tests
// and the CI scenario diff compare.
func (t *Tracer) Spans() []Span {
	var out []Span
	for _, tr := range t.Traces() {
		out = append(out, tr.Spans()...)
	}
	return out
}

// Breakdown aggregates the complete traces into the per-stage latency
// attribution.
func (t *Tracer) Breakdown() *Breakdown {
	b := newBreakdown()
	for _, tr := range t.Traces() {
		if !tr.Complete() {
			b.Incomplete++
			continue
		}
		b.observe(tr)
	}
	return b
}

// SpanBounds is the histogram bucket ladder for stage durations, in
// seconds: 1-2-5 decades from 1 ms to 200 s, wide enough for a
// 1200 bps path's worst ARP storm.
func SpanBounds() []float64 {
	return []float64{
		0.001, 0.002, 0.005, 0.01, 0.02, 0.05, 0.1, 0.2, 0.5,
		1, 2, 5, 10, 20, 50, 100, 200,
	}
}

// Breakdown is the per-stage latency attribution over complete traces:
// totals, histograms, and per-trace share samples for the scenario
// gates.
type Breakdown struct {
	Traces     int           // complete traces aggregated
	Incomplete int           // journeys still mid-flight (or lost)
	Total      time.Duration // summed end-to-end latency

	totals map[string]time.Duration
	counts map[string]int
	hist   map[string]*Histogram
	durs   map[string][]time.Duration // every span's width, per stage
	shares map[string][]float64       // per complete trace: stage share of its RTT
}

func newBreakdown() *Breakdown {
	return &Breakdown{
		totals: make(map[string]time.Duration),
		counts: make(map[string]int),
		hist:   make(map[string]*Histogram),
		durs:   make(map[string][]time.Duration),
		shares: make(map[string][]float64),
	}
}

func (b *Breakdown) observe(tr Trace) {
	elapsed := tr.Elapsed()
	b.Traces++
	b.Total += elapsed
	per := make(map[string]time.Duration)
	for _, s := range tr.Spans() {
		d := s.Duration()
		b.totals[s.Stage] += d
		b.counts[s.Stage]++
		h := b.hist[s.Stage]
		if h == nil {
			h = NewHistogram(SpanBounds())
			b.hist[s.Stage] = h
		}
		h.Observe(d.Seconds())
		b.durs[s.Stage] = append(b.durs[s.Stage], d)
		per[s.Stage] += d
	}
	// Every known stage gets a share sample per trace — zero when the
	// trace skipped the stage — so share percentiles describe the
	// population, not just the traces that hit the stage.
	for _, stage := range SpanStages() {
		share := 0.0
		if elapsed > 0 {
			share = float64(per[stage]) / float64(elapsed)
		}
		b.shares[stage] = append(b.shares[stage], share)
	}
}

// Stages lists the stages that actually occurred, in journey order.
func (b *Breakdown) Stages() []string {
	var out []string
	for _, s := range SpanStages() {
		if b.counts[s] > 0 {
			out = append(out, s)
		}
	}
	return out
}

// Count reports how many spans of the stage occurred.
func (b *Breakdown) Count(stage string) int { return b.counts[stage] }

// TotalFor reports the summed width of the stage's spans.
func (b *Breakdown) TotalFor(stage string) time.Duration { return b.totals[stage] }

// Share reports the stage's fraction of all end-to-end latency.
func (b *Breakdown) Share(stage string) float64 {
	if b.Total == 0 {
		return 0
	}
	return float64(b.totals[stage]) / float64(b.Total)
}

// Hist returns the stage's duration histogram (nil if the stage never
// occurred).
func (b *Breakdown) Hist(stage string) *Histogram { return b.hist[stage] }

// ShareQuantile reports the q-quantile (0..1) of the per-trace share
// of end-to-end latency spent in the stage.
func (b *Breakdown) ShareQuantile(stage string, q float64) float64 {
	return quantile(b.shares[stage], q)
}

// DurationQuantile reports the q-quantile (0..1) of the stage's span
// widths.
func (b *Breakdown) DurationQuantile(stage string, q float64) time.Duration {
	return quantile(b.durs[stage], q)
}

// quantile reports the q-quantile (0..1) of samples, zero when empty.
func quantile[T cmp.Ordered](samples []T, q float64) T {
	if len(samples) == 0 {
		var zero T
		return zero
	}
	sorted := slices.Clone(samples)
	slices.Sort(sorted)
	return sorted[min(int(q*float64(len(sorted))), len(sorted)-1)]
}

// ShareSamples returns the per-trace share samples for the stage, in
// trace order — the pool the scenario gates aggregate across seeds.
func (b *Breakdown) ShareSamples(stage string) []float64 {
	return append([]float64(nil), b.shares[stage]...)
}

// DurationSamples returns every span width of the stage, in trace
// order.
func (b *Breakdown) DurationSamples(stage string) []time.Duration {
	return append([]time.Duration(nil), b.durs[stage]...)
}

// Register publishes the stage histograms into a metrics registry
// under prefix (e.g. "trace."), refreshing on re-registration, so
// Netstat's percentile summaries cover them.
func (b *Breakdown) Register(reg *Registry, prefix string) {
	for _, stage := range b.Stages() {
		h := reg.Histogram(prefix+stage+"_seconds", SpanBounds())
		h.Reset()
		for _, d := range b.durs[stage] {
			h.Observe(d.Seconds())
		}
	}
}

// WriteText renders the attribution table: per stage, span count,
// summed time, share of end-to-end latency, and p50/p95/p99 widths.
func (b *Breakdown) WriteText(w io.Writer) {
	fmt.Fprintf(w, "latency breakdown over %d complete traces (%d incomplete), total %v\n",
		b.Traces, b.Incomplete, b.Total)
	fmt.Fprintf(w, "%-12s %8s %14s %7s %12s %12s %12s\n",
		"stage", "spans", "total", "share", "p50", "p95", "p99")
	for _, stage := range b.Stages() {
		fmt.Fprintf(w, "%-12s %8d %14v %6.1f%% %12v %12v %12v\n",
			stage, b.counts[stage], b.totals[stage], 100*b.Share(stage),
			b.DurationQuantile(stage, 0.50), b.DurationQuantile(stage, 0.95),
			b.DurationQuantile(stage, 0.99))
	}
}
