package netrom

import (
	"bytes"
	"testing"

	"packetradio/internal/ax25"
)

// The parsers are lax where the marshallers are not — a NUL callsign
// or alias character reads back as NUL but marshals as a space — so
// the round-trip property is on the marshalled bytes: an accepted
// input marshals to canonical bytes, which parse and marshal back to
// themselves.

// FuzzUnmarshal feeds arbitrary bytes to the layer-3/4 packet parser:
// bad input returns an error, never a panic, and an accepted packet
// marshals to canonical bytes.
func FuzzUnmarshal(f *testing.F) {
	for _, p := range []*Packet{
		{Origin: ax25.MustAddr("N1A"), Dest: ax25.MustAddr("N2B-3"), TTL: 7, Op: OpInfo, CircuitIdx: 1, CircuitID: 2, TxSeq: 3, RxSeq: 4, Info: []byte("payload")},
		{Origin: ax25.MustAddr("N1A"), Dest: ax25.MustAddr("N2B"), TTL: 16, Op: OpConnReq, Window: 4, User: ax25.MustAddr("U1U"), Node: ax25.MustAddr("N1A")},
		{Origin: ax25.MustAddr("N1A"), Dest: ax25.MustAddr("N2B"), TTL: 16, Op: OpConnAck | FlagChoke, Window: 2},
		{Origin: ax25.MustAddr("N1A"), Dest: ax25.MustAddr("N2B"), TTL: 1, Op: OpDatagram, Proto: ax25.PIDIP, Info: []byte{0x45, 0, 0, 20}},
	} {
		b := p.Marshal()
		f.Add(b)
		f.Add(b[:len(b)-1])
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		p, err := Unmarshal(b)
		if err != nil {
			return
		}
		canon := p.Marshal()
		q, err := Unmarshal(canon)
		if err != nil {
			t.Fatalf("packet %v does not re-parse: %v", p, err)
		}
		if again := q.Marshal(); !bytes.Equal(again, canon) {
			t.Fatalf("marshalling is not canonical: % x -> % x", canon, again)
		}
	})
}

// FuzzUnmarshalNodes feeds arbitrary bytes to the NODES broadcast
// parser: bad input returns an error, never a panic, and an accepted
// broadcast marshals to canonical bytes.
func FuzzUnmarshalNodes(f *testing.F) {
	b := (&NodesBroadcast{Mnemonic: "SEA", Entries: []NodesEntry{
		{Dest: ax25.MustAddr("TAC"), Alias: "TACOMA", BestNeighbor: ax25.MustAddr("MID"), Quality: 152},
		{Dest: ax25.MustAddr("PDX-1"), Alias: "PORTLN", BestNeighbor: ax25.MustAddr("TAC"), Quality: 90},
	}}).Marshal()
	f.Add(b)
	f.Add(b[:len(b)-1])
	f.Add([]byte{0xFF})
	f.Fuzz(func(t *testing.T, b []byte) {
		n, err := UnmarshalNodes(b)
		if err != nil {
			return
		}
		canon := n.Marshal()
		m, err := UnmarshalNodes(canon)
		if err != nil {
			t.Fatalf("broadcast %+v does not re-parse: %v", n, err)
		}
		if again := m.Marshal(); !bytes.Equal(again, canon) {
			t.Fatalf("marshalling is not canonical: % x -> % x", canon, again)
		}
	})
}
