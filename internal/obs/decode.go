package obs

import (
	"bytes"

	"packetradio/internal/ax25"
	"packetradio/internal/ip"
	"packetradio/internal/sim"
)

// Decoder is the read side the packet observers share: which addresses
// each host owns, how to strip the MAC-layer wrapper off on-air bytes,
// and one frame-decode cache per lane. A world hands one Decoder to
// both the ping ledger and the tracer, so a frame both observe on one
// shard is decoded once.
type Decoder struct {
	unwrap func(b []byte) ([]byte, bool)
	hosts  map[string]map[ip.Addr]bool
	lanes  sim.Lanes[*frameDecoder]
}

// NewDecoder builds an empty decoder. unwrap, when non-nil, strips a
// MAC-layer wrapper (the DAMA demand header) off an on-air frame before
// AX.25 decoding, returning ok false when the bytes are not wrapped.
func NewDecoder(unwrap func(b []byte) ([]byte, bool)) *Decoder {
	return &Decoder{unwrap: unwrap, hosts: make(map[string]map[ip.Addr]bool)}
}

// SetHostAddrs registers the addresses a host owns, letting stack taps
// tell a datagram FOR this host apart from one it merely transits.
func (d *Decoder) SetHostAddrs(host string, addrs ...ip.Addr) {
	m := d.hosts[host]
	if m == nil {
		m = make(map[ip.Addr]bool)
		d.hosts[host] = m
	}
	for _, a := range addrs {
		m[a] = true
	}
}

// lane returns the named lane's decode cache. Like every lane it is
// used only by its own shard's events.
func (d *Decoder) lane(name string) *frameDecoder {
	return d.lanes.Lane(name, func() *frameDecoder { return &frameDecoder{unwrap: d.unwrap} })
}

// decodeFrame digs the IP datagram out of an AX.25 frame as it appears
// at any seam: MAC-wrapped on-air bytes, FCS-suffixed TNC output, or
// the bare frame a KISS line carries. The results alias b.
func decodeFrame(unwrap func([]byte) ([]byte, bool), b []byte) (f *ax25.Frame, pkt *ip.Packet, ok bool) {
	if unwrap != nil {
		if inner, wrapped := unwrap(b); wrapped {
			b = inner
		}
	}
	if body, fcsOK := ax25.CheckFCS(b); fcsOK {
		b = body
	}
	f, err := ax25.Decode(b)
	if err != nil {
		return nil, nil, false
	}
	pkt, err = ip.Unmarshal(f.Info)
	if err != nil {
		return nil, nil, false
	}
	return f, pkt, true
}

// frameDecoder is decodeFrame with a one-entry cache. The decode
// depends only on the input bytes, so returning the last result when
// the input is byte-equal to the last input is exact — and the channel
// tap, which hands every receiver of one transmission the same bytes,
// decodes once per transmission instead of once per receiver. The zero
// cache already holds the empty input's decode: nothing.
type frameDecoder struct {
	unwrap func([]byte) ([]byte, bool)
	in     []byte // a copy of the last input; the cached results alias it
	f      *ax25.Frame
	pkt    *ip.Packet
	ok     bool
}

// decode returns decodeFrame(b). The results stay valid only until
// the next call.
func (fd *frameDecoder) decode(b []byte) (*ax25.Frame, *ip.Packet, bool) {
	if !bytes.Equal(b, fd.in) {
		fd.in = append(fd.in[:0], b...)
		fd.f, fd.pkt, fd.ok = decodeFrame(fd.unwrap, fd.in)
	}
	return fd.f, fd.pkt, fd.ok
}

// isCall reports whether a's callsign, padding dropped, is call —
// Addr.Callsign() == call without building the string.
func isCall(a ax25.Addr, call string) bool {
	n := len(a.Call)
	for n > 0 && a.Call[n-1] == ' ' {
		n--
	}
	return string(a.Call[:n]) == call
}

// AX25Info extracts the information field from a bare AX.25 frame (no
// FCS, no MAC wrapper — the dress a KISS line carries). Capture
// filters use it to reach the IP datagram inside a KISS data record.
func AX25Info(b []byte) ([]byte, bool) {
	f, err := ax25.Decode(b)
	if err != nil {
		return nil, false
	}
	return f.Info, true
}
