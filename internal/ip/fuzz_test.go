package ip

import (
	"bytes"
	"testing"
)

// FuzzUnmarshal feeds arbitrary bytes to the datagram parser: bad
// input returns an error, never a panic, and an accepted datagram
// marshals back to bytes that parse to the same header and payload.
func FuzzUnmarshal(f *testing.F) {
	for _, p := range []*Packet{
		{Header: Header{ID: 7, TTL: 9, Proto: ProtoICMP, Src: MustAddr("44.24.0.10"), Dst: MustAddr("128.95.1.2")}, Payload: []byte{8, 0, 0, 0, 0, 1, 0, 2}},
		{Header: Header{ID: 1, TTL: 1, Proto: ProtoTCP, MF: true, FragOff: 3, Options: []byte{1, 1, 1, 0}}, Payload: []byte("seg")},
	} {
		b, err := p.Marshal()
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
		f.Add(b[:len(b)-1])
	}
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, b []byte) {
		p, err := Unmarshal(b)
		if err != nil {
			return
		}
		enc, err := p.Marshal()
		if err != nil {
			t.Fatalf("parsed datagram %v does not marshal: %v", p, err)
		}
		q, err := Unmarshal(enc)
		if err != nil {
			t.Fatalf("marshalled datagram % x does not parse: %v", enc, err)
		}
		if q.Header.Src != p.Header.Src || q.Header.Dst != p.Header.Dst || q.String() != p.String() ||
			q.TOS != p.TOS || q.DF != p.DF || !bytes.Equal(q.Options, p.Options) || !bytes.Equal(q.Payload, p.Payload) {
			t.Fatalf("round trip changed the datagram: %v -> %v", p, q)
		}
	})
}
