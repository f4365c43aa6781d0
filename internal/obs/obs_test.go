package obs

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
	"time"

	"packetradio/internal/ip"
	"packetradio/internal/sim"
)

func TestSnakeCase(t *testing.T) {
	cases := map[string]string{
		"FramesSent":     "frames_sent",
		"CSMADeferrals":  "csma_deferrals",
		"IPQDrops":       "ipq_drops",
		"Airtime":        "airtime",
		"TTLDrops":       "ttl_drops",
		"BytesFed":       "bytes_fed",
		"PollsSent":      "polls_sent",
		"CollisionPairs": "collision_pairs",
		"CRCErrors":      "crc_errors",
	}
	for in, want := range cases {
		if got := snakeCase(in); got != want {
			t.Errorf("snakeCase(%q) = %q, want %q", in, got, want)
		}
	}
}

func TestRegistryViewsAreLive(t *testing.T) {
	r := NewRegistry()
	var n uint64
	var d time.Duration
	r.RegisterUint64("a.count", &n)
	r.RegisterDuration("a.elapsed", &d)
	r.RegisterFunc("a.twice", func() float64 { return float64(n) * 2 })

	n, d = 7, 1500*time.Millisecond
	if v, _ := r.Value("a.count"); v != 7 {
		t.Fatalf("count = %v, want 7", v)
	}
	if v, _ := r.Value("a.elapsed"); v != 1.5 {
		t.Fatalf("elapsed = %v, want 1.5 seconds", v)
	}
	if v, _ := r.Value("a.twice"); v != 14 {
		t.Fatalf("computed = %v, want 14", v)
	}
	if _, ok := r.Value("a.absent"); ok {
		t.Fatal("absent name resolved")
	}

	// Re-registration replaces (worlds rebuilt between runs).
	var n2 uint64 = 99
	r.RegisterUint64("a.count", &n2)
	if v, _ := r.Value("a.count"); v != 99 {
		t.Fatalf("re-registered count = %v, want 99", v)
	}
}

func TestRegisterStruct(t *testing.T) {
	type stats struct {
		FramesSent    uint64
		CSMADeferrals uint64
		Airtime       time.Duration
		Skipped       int // not uint64: ignored
		hidden        uint64
	}
	s := &stats{FramesSent: 3, CSMADeferrals: 11, Airtime: 2 * time.Second, hidden: 1}
	r := NewRegistry()
	r.RegisterStruct("radio.ch1", s)

	if v, _ := r.Value("radio.ch1.frames_sent"); v != 3 {
		t.Fatalf("frames_sent = %v", v)
	}
	if v, _ := r.Value("radio.ch1.csma_deferrals"); v != 11 {
		t.Fatalf("csma_deferrals = %v", v)
	}
	if v, _ := r.Value("radio.ch1.airtime"); v != 2 {
		t.Fatalf("airtime = %v, want 2 seconds", v)
	}
	if _, ok := r.Value("radio.ch1.skipped"); ok {
		t.Fatal("non-uint64 field registered")
	}
	if _, ok := r.Value("radio.ch1.hidden"); ok {
		t.Fatal("unexported field registered")
	}
	// The view is live: later increments show up.
	s.FramesSent++
	if v, _ := r.Value("radio.ch1.frames_sent"); v != 4 {
		t.Fatalf("frames_sent after increment = %v", v)
	}

	defer func() {
		if recover() == nil {
			t.Fatal("RegisterStruct accepted a non-pointer")
		}
	}()
	r.RegisterStruct("bad", stats{})
}

func TestHistogram(t *testing.T) {
	h := NewHistogram([]float64{0.1, 1, 10})
	for _, v := range []float64{0.05, 0.5, 0.5, 5, 50} {
		h.Observe(v)
	}
	if h.Count() != 5 {
		t.Fatalf("count = %d", h.Count())
	}
	if m, want := h.Mean(), (0.05+0.5+0.5+5+50)/5; m < want-1e-9 || m > want+1e-9 {
		t.Fatalf("mean = %v, want %v", m, want)
	}
	_, counts := h.Buckets()
	want := []uint64{1, 2, 1, 1}
	for i, c := range counts {
		if c != want[i] {
			t.Fatalf("buckets = %v, want %v", counts, want)
		}
	}
	if q := h.Quantile(0.5); q != 1 {
		t.Fatalf("median bucket edge = %v, want 1", q)
	}
}

// TestWriteText pins the netstat rendering: names aligned to the
// widest listed one, a blank line between groups of the first two name
// segments, a histogram as a percentile summary, and the prefix filter.
func TestWriteText(t *testing.T) {
	r := NewRegistry()
	var a, b, c uint64 = 1, 2, 3
	r.RegisterUint64("host.pc1.ip.forwarded", &a)
	r.RegisterUint64("host.pc1.tcp.persists", &b)
	r.RegisterUint64("radio.ch1.frames_heard", &c)
	r.RegisterFunc("host.gw.load", func() float64 { return 0.25 })
	h := r.Histogram("host.pc1.rtt", []float64{1, 2})
	h.Observe(0.5)
	h.Observe(1.5)

	var buf bytes.Buffer
	r.WriteText(&buf, "")
	want := "host.gw.load           0.25\n" +
		"\n" +
		"host.pc1.ip.forwarded  1\n" +
		"host.pc1.rtt           count=2 mean=1 p50=2 p95=2 p99=2\n" +
		"host.pc1.tcp.persists  2\n" +
		"\n" +
		"radio.ch1.frames_heard 3\n"
	if buf.String() != want {
		t.Fatalf("WriteText:\n%s\nwant:\n%s", buf.String(), want)
	}
	buf.Reset()
	r.WriteText(&buf, "radio.")
	if buf.String() != "radio.ch1.frames_heard 3\n" {
		t.Fatalf("prefix radio.: %q", buf.String())
	}
}

func TestRegistrySamplingAndCSV(t *testing.T) {
	sched := sim.NewScheduler(1)
	r := NewRegistry()
	var n uint64
	r.RegisterUint64("x.n", &n)
	sched.Every(time.Second, func() { n++ })
	r.StartSampling(sched, 2*time.Second)
	sched.RunFor(10 * time.Second)

	if r.Rows() != 5 {
		t.Fatalf("rows = %d, want 5", r.Rows())
	}
	var buf bytes.Buffer
	if err := r.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if lines[0] != "t_s,x.n" {
		t.Fatalf("header = %q", lines[0])
	}
	if len(lines) != 6 {
		t.Fatalf("%d CSV lines, want 6", len(lines))
	}

	var js bytes.Buffer
	if err := r.WriteJSON(&js); err != nil {
		t.Fatal(err)
	}
	var obj map[string]any
	if err := json.Unmarshal(js.Bytes(), &obj); err != nil {
		t.Fatalf("WriteJSON produced invalid JSON: %v", err)
	}
}

func echoPacket(src, dst string, proto uint8, payload []byte) *ip.Packet {
	return &ip.Packet{
		Header: ip.Header{
			Src: ip.MustAddr(src), Dst: ip.MustAddr(dst),
			Proto: proto, TTL: 30,
		},
		Payload: payload,
	}
}

func TestFilter(t *testing.T) {
	icmpEcho := echoPacket("44.24.0.10", "128.95.1.2", 1, []byte{8, 0, 0, 0, 0, 1, 0, 1})
	tcp23 := echoPacket("128.95.1.2", "44.24.0.10", 6, []byte{0x04, 0x01, 0x00, 0x17}) // 1025 -> 23
	rdm7 := echoPacket("44.24.0.10", "128.95.1.2", 27, []byte{0x04, 0x02, 0x00, 0x07}) // 1026 -> 7
	cases := []struct {
		expr string
		pkt  *ip.Packet
		want bool
	}{
		{"", icmpEcho, true},
		{"icmp", icmpEcho, true},
		{"icmp", tcp23, false},
		{"tcp", tcp23, true},
		{"host 44.24.0.10", icmpEcho, true},
		{"host 44.24.0.10", tcp23, true},
		{"src 44.24.0.10", tcp23, false},
		{"dst 44.24.0.10", tcp23, true},
		{"not icmp", tcp23, true},
		{"port 23", tcp23, true},
		{"port 23", icmpEcho, false},
		{"icmp or port 23", tcp23, true},
		{"proto 6 and port 1025", tcp23, true},
		{"tcp and src 44.24.0.10", tcp23, false},
		{"rdm", rdm7, true},
		{"rdm", tcp23, false},
		{"proto rdm", rdm7, true},
		{"proto 27", rdm7, true},
		{"port 7", rdm7, true}, // RDM carries ports: the 'P' pred decodes them
		{"port 1026", rdm7, true},
		{"port 23", rdm7, false},
		{"not rdm", rdm7, false},
		{"rdm and dst 128.95.1.2", rdm7, true},
		{"tcp or rdm", rdm7, true},
	}
	for _, c := range cases {
		f, err := ParseFilter(c.expr)
		if err != nil {
			t.Fatalf("ParseFilter(%q): %v", c.expr, err)
		}
		if got := f.Match(c.pkt); got != c.want {
			t.Errorf("filter %q on %v->%v proto %d: got %v, want %v",
				c.expr, c.pkt.Src, c.pkt.Dst, c.pkt.Proto, got, c.want)
		}
	}

	// A constrained filter never matches the nil (no-datagram) record.
	f, _ := ParseFilter("icmp")
	if f.Match(nil) {
		t.Fatal("constrained filter matched a nil packet")
	}
	all, _ := ParseFilter("")
	if !all.Match(nil) {
		t.Fatal("match-all filter rejected a nil packet")
	}
	if _, err := ParseFilter("frobnicate 7"); err == nil {
		t.Fatal("nonsense filter parsed")
	}

	buf, err := icmpEcho.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	if !f.MatchRaw(buf) {
		t.Fatal("MatchRaw rejected a marshalled matching datagram")
	}
	if f.MatchRaw([]byte{1, 2, 3}) {
		t.Fatal("MatchRaw accepted garbage for a constrained filter")
	}
}

func TestFlightRecorder(t *testing.T) {
	m := NewMultiRecorder()
	fr := m.Lane("world", 4)
	for i := 0; i < 6; i++ {
		fr.Record(sim.Time(i)*sim.Time(time.Second), "sched", "tick", "")
	}
	if fr.Len() != 4 {
		t.Fatalf("len = %d, want ring capacity 4", fr.Len())
	}
	if fr.Dropped() != 2 {
		t.Fatalf("dropped = %d, want 2", fr.Dropped())
	}
	evs := fr.Events()
	if evs[0].T != sim.Time(2*time.Second) || evs[3].T != sim.Time(5*time.Second) {
		t.Fatalf("ring kept wrong window: first %v last %v", evs[0].T, evs[3].T)
	}

	var buf bytes.Buffer
	if err := m.WriteTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string  `json:"name"`
			Ph   string  `json:"ph"`
			Ts   float64 `json:"ts"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("trace JSON invalid: %v", err)
	}
	// One process_name record for the lane, then the held events.
	if len(doc.TraceEvents) != 5 || doc.TraceEvents[0].Ph != "M" {
		t.Fatalf("trace has %d events, want the lane's name plus 4", len(doc.TraceEvents))
	}
	if doc.TraceEvents[1].Ts != 2e6 {
		t.Fatalf("first ts = %v µs, want 2e6", doc.TraceEvents[1].Ts)
	}

	buf.Reset()
	m.Dump(&buf)
	lines := strings.Split(strings.TrimSuffix(buf.String(), "\n"), "\n")
	if len(lines) != 5 || !strings.HasPrefix(lines[0], "    2.000000 world") || lines[4] != "(2 earlier events overwritten)" {
		t.Fatalf("dump:\n%s", buf.String())
	}

	// The scheduler adapter records every fired event, named.
	sched := sim.NewScheduler(1)
	fr2 := NewFlightRecorder(16)
	sched.EventHook = fr2.SchedHook()
	sched.NamedAfter(time.Second, "ping-timer", func() {})
	sched.RunFor(2 * time.Second)
	found := false
	for _, e := range fr2.Events() {
		if e.Name == "ping-timer" {
			found = true
		}
	}
	if !found {
		t.Fatal("scheduler hook did not record the named event")
	}
}

func TestPcapRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	pw, err := NewPcapWriter(&buf, LinkTypeAX25KISS)
	if err != nil {
		t.Fatal(err)
	}
	recs := [][]byte{{0, 1, 2, 3}, {0, 0xc0, 0xdb}, {5}}
	for i, rec := range recs {
		pw.WritePacket(sim.Time(i)*sim.Time(time.Millisecond), rec)
	}
	if pw.Count() != 3 {
		t.Fatalf("count = %d", pw.Count())
	}

	lt, pkts, err := ReadPcap(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if lt != LinkTypeAX25KISS {
		t.Fatalf("linktype = %d", lt)
	}
	if len(pkts) != 3 {
		t.Fatalf("read %d packets", len(pkts))
	}
	for i, p := range pkts {
		if !bytes.Equal(p.Data, recs[i]) {
			t.Fatalf("packet %d = % x, want % x", i, p.Data, recs[i])
		}
		if p.T != time.Duration(i)*time.Millisecond {
			t.Fatalf("packet %d time = %v", i, p.T)
		}
	}

	// Truncated captures fail loudly rather than silently shortening.
	if _, _, err := ReadPcap(bytes.NewReader(buf.Bytes()[:buf.Len()-2])); err == nil {
		t.Fatal("truncated capture read without error")
	}
	if _, _, err := ReadPcap(bytes.NewReader([]byte{1, 2, 3, 4, 5, 6})); err == nil {
		t.Fatal("garbage header read without error")
	}
}
