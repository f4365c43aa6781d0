// Package tnc simulates the Terminal Node Controller of Figure 1 —
// "essentially a modem" that joins the RS-232 line from the host to the
// radio. Two firmware loads are modelled, as in the paper:
//
//   - TNC (this file): the stripped-down KISS firmware ("a stripped
//     down version of the software for it known as the KISS TNC code
//     ... which may be downloaded into the TNC, sends and receives data
//     and calculates the necessary checksums. Unlike the normal code
//     that resides in the ROM of the TNC, the KISS TNC code does not
//     worry about the packet format at all.")
//   - Native (native.go): the ROM firmware with a command interpreter
//     and built-in AX.25 connected mode ("a primitive network layer
//     protocol for use with terminals").
//
// The KISS TNC also models the §3 performance problem and its fix:
// "the present code running inside the TNC passes every packet it
// receives to the packet radio driver regardless of the destination
// address. We are considering changing the TNC code so that it can
// selectively pass only those packets destined for the broadcast or
// local AX.25 addresses." FilterMode selects between the two
// behaviours; E2 measures the difference.
package tnc

import (
	"time"

	"packetradio/internal/ax25"
	"packetradio/internal/kiss"
	"packetradio/internal/netif"
	"packetradio/internal/radio"
	"packetradio/internal/serial"
	"packetradio/internal/sim"
)

// FilterMode selects which received frames are passed up to the host.
type FilterMode int

const (
	// Promiscuous passes every intact frame heard on the channel (the
	// original KISS behaviour the paper complains about).
	Promiscuous FilterMode = iota
	// AddressFilter passes only frames whose link destination is the
	// TNC's own callsign, the broadcast address, or the NET/ROM NODES
	// address (the paper's proposed TNC change).
	AddressFilter
)

// Stats counts TNC events.
type Stats struct {
	ToHost      uint64 // frames passed up the serial line
	Filtered    uint64 // frames suppressed by the address filter
	CRCErrors   uint64 // frames dropped for bad FCS (collisions, noise)
	HostDrops   uint64 // frames dropped because the host queue was full
	FromHost    uint64 // data frames received from the host
	Transmitted uint64 // frames keyed onto the radio
	ParamsSet   uint64 // KISS parameter commands applied
}

// TNC is a KISS-firmware TNC.
type TNC struct {
	Name   string
	MyCall ax25.Addr
	Filter FilterMode

	// HostQueueFrames bounds frames buffered toward the host (the
	// TNC's scarce on-board RAM). Default 16.
	HostQueueFrames int

	// OnDrop, when non-nil, observes frames the TNC discards toward
	// the host ("tnc host queue overflow"); body is the AX.25 frame
	// without FCS. The callback must not retain the slice.
	OnDrop func(reason string, body []byte)

	Stats Stats

	sched  *sim.Scheduler
	host   *serial.End
	rf     *radio.Transceiver
	params kiss.Params
	dec    kiss.Decoder

	hostQ       *netif.Queue[[]byte]
	hostSending bool
}

// New builds a KISS TNC between a host serial end and a radio
// transceiver. mycall is used only when Filter is AddressFilter.
func New(sched *sim.Scheduler, host *serial.End, rf *radio.Transceiver, mycall ax25.Addr) *TNC {
	t := &TNC{
		Name:            rf.Name,
		MyCall:          mycall,
		HostQueueFrames: 16,
		sched:           sched,
		host:            host,
		rf:              rf,
		params:          kiss.DefaultParams(),
	}
	t.hostQ = netif.NewQueue[[]byte](t.HostQueueFrames)
	t.dec.Frame = t.fromHost
	// Burst receive: the KISS decoder consumes whole serial runs (one
	// frame's worth of bytes per event) instead of a callback per byte.
	host.SetRunReceiver(func(p []byte) { t.dec.Write(p) })
	host.OnDrain = t.pumpHost
	rf.SetReceiver(t.fromRadio)
	t.applyParams()
	return t
}

// Params reports the current KISS parameters.
func (t *TNC) Params() kiss.Params { return t.params }

// SetHostQueueFrames resizes the host-bound frame buffer, discarding
// anything queued.
func (t *TNC) SetHostQueueFrames(n int) {
	t.HostQueueFrames = n
	t.hostQ = netif.NewQueue[[]byte](n)
}

// applyParams translates KISS parameter bytes into radio channel-access
// parameters.
func (t *TNC) applyParams() {
	// SetParams, not a field write: a KISS parameter frame can land
	// while the radio sits mid-defer, and the contention engine must
	// re-anchor its slot grid on the new SlotTime. The channel-access
	// *policy* (CSMA vs the DAMA controller) is not a KISS parameter at
	// all — it lives in the transceiver's Accessor, which SetParams
	// notifies through its ParamsChanged hook, so pushing TNC
	// parameters never disturbs a port's MAC membership.
	// Start from the radio's current Params so that anything which is
	// not a KISS parameter (the CSMA reference-path selector) carries
	// across parameter updates.
	p := t.rf.Params
	p.TXDelay = time.Duration(t.params.TXDelay) * 10 * time.Millisecond
	p.SlotTime = time.Duration(t.params.SlotTime) * 10 * time.Millisecond
	p.Persist = (float64(t.params.Persist) + 1) / 256
	p.FullDuplex = t.params.FullDuplex
	t.rf.SetParams(p)
}

// fromHost handles one decoded KISS frame arriving from the host.
func (t *TNC) fromHost(f kiss.Frame) {
	if f.Command != kiss.CmdData {
		if t.params.Apply(f) {
			t.Stats.ParamsSet++
			t.applyParams()
		}
		return
	}
	t.Stats.FromHost++
	// The KISS TNC appends the FCS and transmits; it does not inspect
	// the AX.25 payload at all.
	framed := ax25.AppendFCS(append([]byte(nil), f.Payload...))
	t.Stats.Transmitted++
	t.rf.Send(framed)
}

// fromRadio handles one frame heard on the channel.
func (t *TNC) fromRadio(framed []byte, memo *any, damaged bool) {
	v := ax25.Judge(memo, framed, damaged)
	if !v.OK {
		t.Stats.CRCErrors++
		return
	}
	if t.Filter == AddressFilter && !t.wantFrame(v.Frame) {
		t.Stats.Filtered++
		return
	}
	enc := kiss.Encode(nil, 0, v.Body)
	if !t.hostQ.Enqueue(enc) {
		t.Stats.HostDrops++
		if t.OnDrop != nil {
			t.OnDrop("tnc host queue overflow", v.Body)
		}
		return
	}
	t.pumpHost()
}

// wantFrame implements the paper's proposed selective filter.
func (t *TNC) wantFrame(f *ax25.Frame) bool {
	if f == nil {
		return false // unparseable frames are noise
	}
	dst := f.LinkDst()
	return dst == t.MyCall || dst == ax25.Broadcast || dst == ax25.Nodes ||
		f.Dst == ax25.Broadcast || f.Dst == ax25.Nodes
}

// pumpHost moves one queued frame at a time onto the serial line so
// the bounded queue, not the UART, holds the backlog.
func (t *TNC) pumpHost() {
	if t.hostSending && !t.host.Drained() {
		return
	}
	frame, ok := t.hostQ.Dequeue()
	if !ok {
		t.hostSending = false
		return
	}
	t.hostSending = true
	t.Stats.ToHost++
	t.host.Write(frame)
}

// HostBacklog reports frames waiting for the serial line — the §3
// congestion signal.
func (t *TNC) HostBacklog() int { return t.hostQ.Len() }

// Digipeater is a standalone store-and-forward repeater: a TNC in
// digipeat mode with no host attached — the "relay stations ... set up
// in strategic locations" of §1. It repeats frames whose next
// unrepeated digipeater entry matches its callsign.
type Digipeater struct {
	Call  ax25.Addr
	Stats struct {
		Repeated  uint64
		CRCErrors uint64
		Ignored   uint64
	}

	rf *radio.Transceiver
}

// NewDigipeater attaches a digipeater to a transceiver.
func NewDigipeater(call ax25.Addr, rf *radio.Transceiver) *Digipeater {
	d := &Digipeater{Call: call, rf: rf}
	rf.SetReceiver(d.fromRadio)
	return d
}

func (d *Digipeater) fromRadio(framed []byte, memo *any, damaged bool) {
	v := ax25.Judge(memo, framed, damaged)
	if !v.OK {
		d.Stats.CRCErrors++
		return
	}
	f := v.Frame
	if f == nil {
		d.Stats.Ignored++
		return
	}
	i := f.NextDigi()
	if i < 0 || f.Digi[i].Addr != d.Call {
		d.Stats.Ignored++
		return
	}
	g := f.Clone()
	g.Digi[i].Repeated = true
	enc, err := g.Encode(nil)
	if err != nil {
		d.Stats.Ignored++
		return
	}
	d.Stats.Repeated++
	d.rf.Send(ax25.AppendFCS(enc))
}
