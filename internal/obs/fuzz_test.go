package obs

import (
	"bytes"
	"reflect"
	"testing"
	"time"

	"packetradio/internal/ax25"
	"packetradio/internal/dama"
	"packetradio/internal/ip"
)

// seedFrames returns one IP-in-AX.25 frame in every dress the
// observers see: bare (a KISS line), FCS-suffixed (TNC output) and
// DAMA-wrapped on-air bytes.
func seedFrames(tb testing.TB) [][]byte {
	pkt := &ip.Packet{
		Header:  ip.Header{ID: 7, TTL: 9, Proto: ip.ProtoICMP, Src: ip.MustAddr("44.24.0.10"), Dst: ip.MustAddr("128.95.1.2")},
		Payload: []byte{8, 0, 0, 0, 0, 1, 0, 2},
	}
	dgram, err := pkt.Marshal()
	if err != nil {
		tb.Fatal(err)
	}
	bare, err := ax25.NewUI(ax25.MustAddr("GW"), ax25.MustAddr("S0"), ax25.PIDIP, dgram).Encode(nil)
	if err != nil {
		tb.Fatal(err)
	}
	withFCS := ax25.AppendFCS(append([]byte(nil), bare...))
	wrapped := append([]byte{0xD4, 0xD5, 'D', 2, 'S', '0', 0, 1, 0}, withFCS...)
	return [][]byte{bare, withFCS, wrapped}
}

// decodeResult flattens decodeFrame's output into comparable values.
type decodeResult struct {
	OK   bool
	Dst  string
	Info []byte
	Pkt  *ip.Packet
}

func resultOf(f *ax25.Frame, pkt *ip.Packet, ok bool) decodeResult {
	if !ok {
		return decodeResult{}
	}
	return decodeResult{OK: true, Dst: f.LinkDst().String(), Info: append([]byte(nil), f.Info...), Pkt: pkt.Clone()}
}

// TestDecodeFrameDresses checks the seeds the fuzzers start from: the
// one decoder reads every dress, and the DAMA dress only with the
// unwrap installed.
func TestDecodeFrameDresses(t *testing.T) {
	for i, b := range seedFrames(t) {
		f, pkt, ok := decodeFrame(dama.Unwrap, b)
		if !ok || !isCall(f.LinkDst(), "GW") || pkt.Src != ip.MustAddr("44.24.0.10") {
			t.Fatalf("dress %d: decoded %v %v %v", i, f, pkt, ok)
		}
		if _, _, ok := decodeFrame(nil, b); ok != (i < 2) {
			t.Fatalf("dress %d without the unwrap: ok=%v", i, ok)
		}
	}
}

// FuzzDecodeFrame feeds arbitrary bytes to the journal's frame
// decoder, with and without the DAMA unwrap. It must never panic and
// must depend on the bytes alone: decoding a copy gives the same
// result. Wherever the channel tap's path — ax25.Judge over the
// unwrapped bytes, then the IP datagram — finds a frame, the decoder
// must find the same one.
func FuzzDecodeFrame(f *testing.F) {
	for _, b := range seedFrames(f) {
		f.Add(b, true)
		f.Add(b, false)
	}
	f.Add([]byte{}, true)
	f.Add([]byte{0xD4, 0xD5, 'D', 9}, true)
	f.Fuzz(func(t *testing.T, b []byte, unwrapDAMA bool) {
		var unwrap func([]byte) ([]byte, bool)
		if unwrapDAMA {
			unwrap = dama.Unwrap
		}
		got := resultOf(decodeFrame(unwrap, b))
		if again := resultOf(decodeFrame(unwrap, append([]byte(nil), b...))); !reflect.DeepEqual(again, got) {
			t.Fatalf("decode of a copy %+v, of the original %+v", again, got)
		}
		fr := ax25.Judge(new(any), unwrapMAC(unwrap, b), false).Frame
		if fr == nil {
			return
		}
		if pkt, err := ip.Unmarshal(fr.Info); err == nil {
			if want := resultOf(fr, pkt, true); !reflect.DeepEqual(got, want) {
				t.Fatalf("decodeFrame %+v, the air-rx path %+v", got, want)
			}
		}
	})
}

// FuzzReadPcap feeds arbitrary bytes to the pcap reader: bad input
// returns an error, never a panic, and every record it accepts fits
// the snap length.
func FuzzReadPcap(f *testing.F) {
	var good bytes.Buffer
	pw, err := NewPcapWriter(&good, LinkTypeAX25KISS)
	if err != nil {
		f.Fatal(err)
	}
	for i, b := range seedFrames(f) {
		pw.WritePacket(ts(time.Duration(i)*time.Second), append([]byte{0}, b...))
	}
	f.Add(good.Bytes())
	f.Add(good.Bytes()[:30])
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, b []byte) {
		_, pkts, err := ReadPcap(bytes.NewReader(b))
		if err != nil {
			return
		}
		for _, p := range pkts {
			if len(p.Data) > pcapSnapLen {
				t.Fatalf("accepted a %d-byte record over the snap length", len(p.Data))
			}
		}
	})
}

// FuzzParseFilter feeds arbitrary expressions to the capture-filter
// parser: bad input returns an error, never a panic, and an accepted
// filter evaluates on any datagram without panicking.
func FuzzParseFilter(f *testing.F) {
	for _, s := range []string{"", "icmp", "icmp or host 44.24.0.10", "not (tcp and port 23)", "proto 17 and dst 1.2.3.4", "((", "host", "port 99999"} {
		f.Add(s)
	}
	pkts := []*ip.Packet{nil, {Header: ip.Header{Proto: ip.ProtoTCP}, Payload: []byte{0, 23, 0, 80}}}
	for _, b := range seedFrames(f) {
		if _, pkt, ok := decodeFrame(dama.Unwrap, b); ok {
			pkts = append(pkts, pkt)
		}
	}
	f.Fuzz(func(t *testing.T, s string) {
		flt, err := ParseFilter(s)
		if err != nil {
			return
		}
		for _, p := range pkts {
			flt.Match(p)
		}
		flt.MatchRaw([]byte{0x45, 0, 0, 20})
	})
}
