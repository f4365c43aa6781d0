// Package radio simulates the shared amateur packet-radio channel: a
// single-frequency, half-duplex broadcast medium at (by default) 1200
// bits per second, the regime in which the paper's §3 observation —
// "the transmission time is the dominant factor in determining
// throughput and latency" — holds.
//
// The model is at frame granularity with continuous time:
//
//   - Every attached Transceiver that can hear the sender observes
//     carrier from key-up to key-release (TXDELAY preamble plus frame
//     airtime).
//   - Two transmissions that overlap in time at a receiver that hears
//     both senders destroy each other there (no capture effect).
//   - A half-duplex transceiver cannot receive while it transmits.
//   - Reachability is a directed relation, so hidden-terminal and
//     digipeater topologies (Seattle–Tacoma via a hilltop relay) are
//     expressible.
//
// Channel access (p-persistent CSMA with slot time, per the KISS
// parameters) is implemented here in Transceiver.Send because in the
// real system it lives in the TNC, which owns those parameters.
//
// Contention is event-driven (DESIGN.md §3c): a deferred transmitter
// does not poll the carrier once per SlotTime. Instead it computes, on
// its own slot grid, the first instant the currently scheduled
// transmissions leave idle, parks on the channel's wait-list with one
// wake event at that instant, and is re-resolved on carrier edges
// (key-up, and early release via Retune). Slots that pass while parked
// are settled as CSMADeferrals in one step, and persistence draws
// still happen one per idle slot from the transceiver's private RNG,
// so the observable outcome — deferral counts, transmit instants,
// collision windows — is identical to the seed per-slot polling path,
// which survives behind Params.PerSlotCSMA for the equivalence
// regression tests.
package radio

import (
	"math/rand"
	"time"

	"packetradio/internal/sim"
)

// ChannelStats aggregates channel-wide accounting.
type ChannelStats struct {
	FramesStarted  uint64        // transmissions keyed up (data and control)
	FramesDamaged  uint64        // receptions lost to collision or noise
	FramesHeard    uint64        // successful receptions (per receiver)
	Airtime        time.Duration // total transmit airtime (sum over senders)
	CollisionPairs uint64        // distinct overlapping transmission pairs

	// MAC-overhead accounting: airtime and key-ups spent on pure
	// channel-access control traffic (DAMA polls and no-traffic
	// responses — CSMA has none). Included in Airtime/FramesStarted
	// above; E16 reports the share.
	ControlFrames  uint64
	ControlAirtime time.Duration
}

// TapOutcome classifies one per-receiver delivery for Channel.Taps.
type TapOutcome uint8

const (
	TapOK         TapOutcome = iota // received intact
	TapCollision                    // destroyed by overlapping transmission
	TapNoise                        // destroyed by the BER draw
	TapHalfDuplex                   // missed: receiver was transmitting
	TapTruncated                    // cut mid-frame by the sender retuning
)

func (o TapOutcome) String() string {
	switch o {
	case TapOK:
		return "ok"
	case TapCollision:
		return "collision"
	case TapNoise:
		return "noise"
	case TapHalfDuplex:
		return "half-duplex"
	case TapTruncated:
		return "truncated"
	}
	return "unknown"
}

// Channel is one radio frequency shared by all attached transceivers.
type Channel struct {
	sched *sim.Scheduler

	// Taps observe every per-receiver delivery outcome, in order:
	// payload is what the receiver's MAC handed up (DAMA-unwrapped for
	// data; the raw on-air bytes for half-duplex misses, where no MAC
	// ran), memo the transmission's shared slot (see SetReceiver),
	// consumed reports a frame the MAC swallowed as channel-access
	// control. Attach by appending. Purely read-side — a tap must not
	// touch the channel.
	Taps []func(sender, receiver *Transceiver, payload []byte, memo *any, outcome TapOutcome, consumed bool)

	// BitRate is the on-air signalling rate in bits per second.
	BitRate int

	// BitErrorRate, when nonzero, is the per-bit probability of noise
	// damage; a frame survives with probability (1-BER)^bits.
	BitErrorRate float64

	// DCDDelay is the data-carrier-detect latency: a transmission is
	// invisible to other stations' carrier sense until DCDDelay after
	// key-up. This is CSMA's vulnerable window; without it, colocated
	// stations in a zero-propagation-delay simulation would never
	// collide. Defaults to DefaultDCDDelay.
	DCDDelay time.Duration

	Stats ChannelStats

	stations []*Transceiver
	active   []*transmission

	// waiters are transceivers with a deferred transmission pending: an
	// event-driven contender appears here from the moment its frame has
	// to wait for the carrier (or a persistence draw) until it keys up,
	// leaves on key-up or Retune, and is re-resolved on carrier edges.
	waiters []*Transceiver

	// Station slots and hearer bitsets (DESIGN.md §3c). Every
	// transceiver this channel has ever seen holds a slot for the
	// channel's lifetime (slots, consulted only when a station or a
	// reachability pair is named from outside). hear[s] is the bitset of
	// slots that hear sender slot s — the only copy of reachability,
	// full mesh by default — and present marks the slots attached now.
	// Every bitset is len(present) words wide.
	slots   map[*Transceiver]int
	hear    [][]uint64
	present []uint64

	// txFree pools transmission records, damage bitsets included.
	txFree []*transmission

	// accs are the distinct channel-access policies in use by attached
	// stations (refcounted in accRef), in first-arrival order; carrier
	// edges dispatch to each exactly once.
	accs   []Accessor
	accRef map[Accessor]int
}

// DefaultBitRate is the classic 1200 bps AFSK channel rate of the
// paper's network ("the link speed is only 1200 bits per second").
const DefaultBitRate = 1200

// DefaultDCDDelay is the default carrier-detect latency, typical of
// 1200 bps AFSK demodulator squelch circuits.
const DefaultDCDDelay = 20 * time.Millisecond

// NewChannel creates a channel on the given scheduler.
func NewChannel(sched *sim.Scheduler, bitRate int) *Channel {
	if bitRate <= 0 {
		bitRate = DefaultBitRate
	}
	return &Channel{
		sched:    sched,
		BitRate:  bitRate,
		DCDDelay: DefaultDCDDelay,
		slots:    make(map[*Transceiver]int),
	}
}

// AirTime reports how long n frame bytes occupy the channel, excluding
// the TXDELAY preamble. AX.25 HDLC framing adds two flag octets and the
// 16-bit FCS is already part of the byte stream handed to the radio.
func (c *Channel) AirTime(n int) time.Duration {
	bits := (n + 2) * 8 // +2 flag octets
	return time.Duration(float64(bits) / float64(c.BitRate) * float64(time.Second))
}

// SetReachable declares whether transmissions from a are audible at b
// (directed). All pairs start reachable.
func (c *Channel) SetReachable(from, to *Transceiver, ok bool) {
	row, r := c.hear[c.slotOf(from)], c.slotOf(to)
	if ok {
		row[r>>6] |= 1 << (r & 63)
	} else {
		row[r>>6] &^= 1 << (r & 63)
	}
	// Audibility is part of the carrier schedule: a waiter deferring to
	// a transmission it can no longer hear may move its wake earlier
	// (and one that just started hearing an active carrier, later).
	for _, a := range c.accs {
		a.CarrierChanged(c)
	}
}

// slotOf returns t's slot on c, assigning the next one — heard by and
// hearing every slot — the first time c sees t.
func (c *Channel) slotOf(t *Transceiver) int {
	if s, ok := c.slots[t]; ok {
		return s
	}
	s := len(c.hear)
	c.slots[t] = s
	if s%64 == 0 {
		// Widen every bitset by one word.
		for i := range c.hear {
			c.hear[i] = append(c.hear[i], 0)
		}
		for _, tx := range c.active {
			tx.damaged = append(tx.damaged, 0)
		}
		c.present = append(c.present, 0)
	}
	c.hear = append(c.hear, make([]uint64, len(c.present)))
	c.healSlot(s)
	return s
}

// healSlot restores slot s to the full-mesh default: s hears and is
// heard by every slot, itself included. (Row bits past the last slot
// are never read, and a new slot sets its own column.)
func (c *Channel) healSlot(s int) {
	row := c.hear[s]
	for w := range row {
		row[w] = ^uint64(0)
	}
	for _, r := range c.hear {
		r[s>>6] |= 1 << (s & 63)
	}
}

// join attaches t to c's station list under its slot.
func (c *Channel) join(t *Transceiver) {
	t.idx = c.slotOf(t)
	c.present[t.idx>>6] |= 1 << (t.idx & 63)
	c.stations = append(c.stations, t)
}

// has reports whether bit i of b is set.
func has(b []uint64, i int) bool { return b[i>>6]&(1<<(i&63)) != 0 }

// Utilization reports total transmit airtime divided by elapsed time.
// Overlapping (colliding) transmissions both count, so values can
// exceed 1 under heavy collision load.
func (c *Channel) Utilization() float64 {
	if c.sched.Now() == 0 {
		return 0
	}
	return float64(c.Stats.Airtime) / float64(c.sched.Now().Duration())
}

// AirtimeShare reports the fraction of elapsed time this transceiver
// spent transmitting (data and MAC control) — the per-station fairness
// figure E16 reads without reaching into MAC internals. Shares across
// a channel's stations sum to its Utilization.
func (t *Transceiver) AirtimeShare() float64 {
	now := t.ch.sched.Now()
	if now == 0 {
		return 0
	}
	return float64(t.Stats.Airtime) / float64(now.Duration())
}

// Waiters reports how many transceivers currently sit on the deferred-
// transmitter wait-list. It must drain to zero when the channel goes
// quiet — a nonzero value at quiescence is a leaked waiter.
func (c *Channel) Waiters() int { return len(c.waiters) }

func (c *Channel) addWaiter(t *Transceiver) {
	c.waiters = append(c.waiters, t)
}

func (c *Channel) removeWaiter(t *Transceiver) {
	for i, u := range c.waiters {
		if u == t {
			c.waiters = append(c.waiters[:i], c.waiters[i+1:]...)
			return
		}
	}
}

// transmission is one keyed-up frame. Records are pooled on the
// channel (newTransmission/release), each with its completion callback
// bound once.
type transmission struct {
	sender     *Transceiver
	from       int // sender's slot
	frame      []byte
	memo       any  // the receivers' shared slot, opaque to radio
	control    bool // MAC control frame (poll), for overhead accounting
	start, end sim.Time
	done       *sim.Event // delivery at end-of-frame; cancelled by Retune
	complete   func()     // c.complete of this record
	// damaged is the bitset of receiver slots whose copy is destroyed
	// by overlap.
	damaged []uint64
}

func (c *Channel) newTransmission() *transmission {
	if n := len(c.txFree); n > 0 {
		tx := c.txFree[n-1]
		c.txFree = c.txFree[:n-1]
		for len(tx.damaged) < len(c.present) {
			tx.damaged = append(tx.damaged, 0)
		}
		return tx
	}
	tx := &transmission{damaged: make([]uint64, len(c.present))}
	tx.complete = func() { c.complete(tx) }
	return tx
}

// release returns a finished or cut record to the pool. The frame is
// dropped, not recycled: receivers were handed views of it. The memo
// is cleared, so no verdict outlives its transmission.
func (c *Channel) release(tx *transmission) {
	clear(tx.damaged)
	tx.sender, tx.frame, tx.memo, tx.done = nil, nil, nil, nil
	c.txFree = append(c.txFree, tx)
}

func (t *transmission) overlaps(u *transmission) bool {
	return t.start < u.end && u.start < t.end
}

// TxStats counts per-transceiver events.
type TxStats struct {
	FramesSent     uint64
	FramesQueued   uint64
	FramesHeard    uint64 // frames received intact (any destination)
	FramesDamaged  uint64 // frames received damaged
	CSMADeferrals  uint64 // slot waits due to busy carrier or persistence
	HalfDuplexMiss uint64 // receptions lost because we were transmitting
	QueueDrops     uint64 // frames refused by a full transmit queue (MaxQueue)
	CSMAGiveUps    uint64 // frames abandoned after MaxDeferrals slot waits

	// Fairness accounting, exported so experiments read shares without
	// reaching into MAC internals. Airtime is this station's transmit
	// time (data + control); the poll counters are driven by polled
	// MACs (DAMA) and stay zero under CSMA.
	Airtime      time.Duration
	ControlSent  uint64 // MAC control frames this station keyed up
	PollsSent    uint64 // polls issued while acting as channel master
	PollsHeard   uint64 // polls addressed to this station and heard
	PollTimeouts uint64 // polls this station issued that went unanswered
}

// Params govern channel access for one transceiver, mirroring the KISS
// TNC parameters.
type Params struct {
	TXDelay    time.Duration // key-up to data (default 300 ms)
	SlotTime   time.Duration // CSMA slot (default 100 ms)
	Persist    float64       // p-persistence in (0,1] (default 0.25)
	FullDuplex bool          // transmit without carrier sense

	// PerSlotCSMA reverts channel access to the seed's polling loop —
	// one scheduler event per SlotTime per deferred transmitter. It is
	// the reference the event-driven-CSMA equivalence tests compare
	// against, mirroring serial.Line.PerByte; only tests set it. It is
	// read when contention starts, so setting it on an idle transceiver
	// is exact, and the TNC carries it across KISS parameter updates.
	PerSlotCSMA bool
}

// DefaultParams mirror common KISS defaults at 1200 bps.
func DefaultParams() Params {
	return Params{TXDelay: 300 * time.Millisecond, SlotTime: 100 * time.Millisecond, Persist: 0.25}
}

func (p Params) withDefaults() Params {
	if p.TXDelay <= 0 {
		p.TXDelay = 300 * time.Millisecond
	}
	if p.SlotTime <= 0 {
		p.SlotTime = 100 * time.Millisecond
	}
	if p.Persist <= 0 || p.Persist > 1 {
		p.Persist = 0.25
	}
	return p
}

// slotTime is Params.SlotTime floored to the default: a zero slot
// (reachable by pushing a raw KISS SlotTime byte of 0) would otherwise
// wedge contention in a same-instant loop.
func (p Params) slotTime() time.Duration {
	if p.SlotTime <= 0 {
		return 100 * time.Millisecond
	}
	return p.SlotTime
}

// Transceiver is one radio on the channel. Frames are queued with Send
// and transmitted under CSMA; every reception is delivered to the
// receive callback with its damage flag (a TNC counts damaged ones as
// CRC errors).
type Transceiver struct {
	Name   string
	Params Params
	Stats  TxStats

	// MaxQueue, when positive, bounds the transmit queue: Send refuses
	// further frames (Stats.QueueDrops) once that many are waiting —
	// the kernel's IF_QFULL behavior the seed left unbounded. Zero
	// keeps the unbounded queue.
	MaxQueue int

	// MaxDeferrals, when positive, is the per-frame CSMA patience: a
	// head-of-queue frame that burns this many slot waits without
	// winning the channel is dropped (Stats.CSMAGiveUps) so saturation
	// sheds load instead of queueing it forever. Zero never gives up.
	MaxDeferrals uint64

	// OnDrop, when non-nil, observes frames this transceiver discards
	// (queue overflow, CSMA give-up) with the reason. The callback must
	// not retain the slice.
	OnDrop func(reason string, frame []byte)

	// TraceMAC, when non-nil, observes the MAC seam for the packet
	// tracer: "queue" as Send accepts a frame, "tx-start" as the
	// transmitter keys up with one (deferrals = slot waits the frame
	// burned before winning the channel; MAC-wrapped and control frames
	// pass through in their on-air dress). Read-only: the hook must not
	// retain the slice or touch the transceiver.
	TraceMAC func(event string, frame []byte, deferrals uint64)

	ch  *Channel
	idx int // slot on ch
	rx  func(frame []byte, memo *any, damaged bool)
	acc Accessor // channel-access policy; csma unless SetAccessor replaced it

	// frameDeferrals counts slot waits burned by the current head-of-
	// queue frame, reset when a frame keys up or is given up on.
	frameDeferrals uint64

	// csmaRng draws p-persistence decisions, noiseRng the BER survival
	// of frames received here. Both are private streams seeded from
	// Scheduler.DeriveSeed at Attach, so one station's draw sequence is
	// a function of its attach position alone: adding stations (or
	// reordering their traffic) never perturbs anyone else's CSMA
	// outcomes, and batched draws stay sequence-identical to per-slot
	// ones.
	csmaRng  *rand.Rand
	noiseRng *rand.Rand

	queue      [][]byte
	contending bool

	// Event-driven contention state: slot is the next undecided instant
	// on this transceiver's slot grid (anchored where contention
	// started, advancing by SlotTime); wake is the single pending
	// decision event, non-nil exactly while the transceiver is on the
	// channel wait-list. Invariant: every grid slot that passes while
	// the wake is pending was carrier-busy, so the stretch
	// [slot, wakeTime) settles as deferrals when the wake fires.
	// onSlotFn is t.onSlot, bound once at Attach so arming a wake
	// allocates nothing.
	slot     sim.Time
	wake     *sim.Event
	onSlotFn func()

	transmitting   bool
	txStart, txEnd sim.Time
}

// Attach adds a new transceiver to the channel.
func (c *Channel) Attach(name string, params Params) *Transceiver {
	t := &Transceiver{
		Name:     name,
		Params:   params.withDefaults(),
		ch:       c,
		acc:      csma,
		csmaRng:  rand.New(rand.NewSource(c.sched.DeriveSeed())),
		noiseRng: rand.New(rand.NewSource(c.sched.DeriveSeed())),
	}
	t.onSlotFn = t.onSlot
	c.join(t)
	c.addAccessor(t.acc)
	return t
}

// Stations returns the attached transceivers.
func (c *Channel) Stations() []*Transceiver { return c.stations }

// Channel reports which channel the transceiver is currently tuned to.
func (t *Transceiver) Channel() *Channel { return t.ch }

// Retune moves the transceiver to another channel — the mobility
// primitive behind World.MoveHost. A transmission in flight is cut
// mid-frame: stations still on the old channel receive a truncated,
// damaged copy. Queued frames carry over and contend on the new
// channel; a pending deferral migrates with them (the waiter leaves
// the old channel's wait-list and re-contends on the new one).
// Reachability overrides involving the transceiver are dropped from
// the old channel so a later return starts from the full-mesh default.
func (t *Transceiver) Retune(to *Channel) {
	old := t.ch
	if old == to || to == nil {
		return
	}
	for i, s := range old.stations {
		if s == t {
			old.stations = append(old.stations[:i], old.stations[i+1:]...)
			break
		}
	}
	old.present[t.idx>>6] &^= 1 << (t.idx & 63)
	// The old channel's access policy retires any pending admission
	// decision (a parked CSMA waiter migrates; a DAMA member leaves the
	// poll registry — which may reset t's accessor back to CSMA, so the
	// policy is re-read below when the queue restarts).
	t.acc.Detach(t)
	// Cut any transmission in flight: cancel its end-of-frame
	// completion (which would otherwise clobber the sender's state
	// while it may already be transmitting on the new channel),
	// remove the carrier from the old channel, and deliver the
	// truncated frame — damaged — to the stations that were hearing
	// it. The sender's transmit state is cleared so the new channel
	// does not see a phantom half-duplex window.
	now := old.sched.Now()
	cut := false
	for i := len(old.active) - 1; i >= 0; i-- {
		tx := old.active[i]
		if tx.sender != t {
			continue
		}
		old.sched.Cancel(tx.done)
		old.active = append(old.active[:i], old.active[i+1:]...)
		cut = true
		// The cut frame never airs its tail: give back the airtime that
		// transmitFrame credited for [now, tx.end) at key-up, so a
		// station that retunes mid-frame is not billed for carrier it
		// never emitted (and AirtimeShare stays a true share).
		if unaired := tx.end.Sub(now); unaired > 0 {
			t.Stats.Airtime -= unaired
			old.Stats.Airtime -= unaired
			if tx.control {
				old.Stats.ControlAirtime -= unaired
			}
		}
		for _, r := range old.stations {
			if !has(old.hear[tx.from], r.idx) {
				continue
			}
			if !r.Params.FullDuplex && r.txStart < now && r.txEnd > tx.start {
				r.Stats.HalfDuplexMiss++
				old.tap(t, r, tx.frame, &tx.memo, TapTruncated, false)
				continue
			}
			payload, consumed := r.acc.Deliver(r, tx.frame, true)
			old.tap(t, r, payload, &tx.memo, TapTruncated, consumed)
			if consumed {
				continue
			}
			r.Stats.FramesDamaged++
			old.Stats.FramesDamaged++
			if r.rx != nil {
				r.rx(payload, &tx.memo, true)
			}
		}
		old.release(tx)
	}
	if cut {
		// Early carrier release: waiters whose wake was computed
		// against the cut transmission's end may now be able to move
		// earlier.
		for _, a := range old.accs {
			a.CarrierChanged(old)
		}
	}
	t.transmitting = false
	t.txStart, t.txEnd = 0, 0
	old.healSlot(t.idx)
	old.dropAccessor(t.acc)
	t.ch = to
	to.join(t)
	to.addAccessor(t.acc)
	if len(t.queue) > 0 && !t.contending {
		t.acc.Start(t)
	}
}

// SetReceiver installs the frame-delivery callback. Every receiver of
// a transmission, intact or damaged, gets a read-only view of the same
// bytes, to copy if kept past the call, and the same memo slot, where
// the first receiver may leave what it derives from them (ax25.Judge's
// verdict); radio clears it when the transmission ends.
func (t *Transceiver) SetReceiver(rx func(frame []byte, memo *any, damaged bool)) { t.rx = rx }

// SetParams installs new channel-access parameters (the TNC pushes
// these on KISS parameter frames). Writing the Params field directly
// is fine while idle; with an admission decision outstanding, the
// access policy re-anchors whatever state it computed against the old
// values (mid-defer CSMA settles the old slot grid and restarts on the
// new SlotTime; DAMA has nothing grid-shaped to fix).
func (t *Transceiver) SetParams(p Params) {
	old := t.Params
	t.Params = p
	t.acc.ParamsChanged(t, old)
}

// CarrierSense reports whether t currently detects channel activity
// (its own transmission included).
func (t *Transceiver) CarrierSense() bool {
	if t.transmitting {
		return true
	}
	_, busy := t.busyUntil(t.ch.sched.Now())
	return busy
}

// busyUntil reports whether an already-keyed transmission makes the
// carrier busy for t at instant x — audible (reachable, past the
// DCDDelay lock-in) and still on the air — and if so, until when the
// carrier is known to stay busy from x.
func (t *Transceiver) busyUntil(x sim.Time) (sim.Time, bool) {
	c := t.ch
	var until sim.Time
	busy := false
	for _, tx := range c.active {
		if tx.sender == t || !has(c.hear[tx.from], t.idx) {
			continue
		}
		if tx.start.Add(c.DCDDelay) <= x && x < tx.end {
			busy = true
			if tx.end > until {
				until = tx.end
			}
		}
	}
	return until, busy
}

// QueueLen reports frames awaiting transmission.
func (t *Transceiver) QueueLen() int { return len(t.queue) }

// CSMADeferrals reports the deferral count as of the current instant.
// The event-driven path settles skipped slots in bulk when its wake
// fires, so mid-defer the raw Stats.CSMADeferrals field lags by the
// slots currently parked under a busy carrier; this accessor counts
// them in, making the value slot-exact at any read point — the same
// interpolated-observation contract as serial.End.QueueLen (DESIGN.md
// §3b).
func (t *Transceiver) CSMADeferrals() uint64 {
	n := t.Stats.CSMADeferrals
	now := t.ch.sched.Now()
	if t.wake != nil {
		// Every grid slot in [t.slot, now) passed under busy carrier —
		// the wake would otherwise have fired there — and the slot at
		// now itself stands busy too unless it is the pending decision
		// instant (wake exactly at now, not yet fired).
		if d := now.Sub(t.slot); d >= 0 {
			n += uint64(d / t.Params.slotTime())
			if t.wake.When() > now {
				n++
			}
		}
	}
	return n
}

// Send queues one frame (a fully framed byte string, FCS included) for
// CSMA transmission. Send takes ownership of the slice: the caller
// must not write it again, since every receiver will read these bytes.
func (t *Transceiver) Send(frame []byte) {
	if t.MaxQueue > 0 && len(t.queue) >= t.MaxQueue {
		t.Stats.QueueDrops++
		if t.OnDrop != nil {
			t.OnDrop("mac queue overflow", frame)
		}
		return
	}
	t.queue = append(t.queue, frame)
	t.Stats.FramesQueued++
	if t.TraceMAC != nil {
		t.TraceMAC("queue", frame, 0)
	}
	if !t.contending && !t.transmitting {
		t.acc.Start(t)
	}
}

// popQueue removes and returns the head-of-queue frame. Popping the
// last frame rewinds the queue onto its backing array, so a station
// that drains its queue between frames never reallocates it.
func (t *Transceiver) popQueue() []byte {
	frame := t.queue[0]
	t.queue[0] = nil
	if len(t.queue) == 1 {
		t.queue = t.queue[:0]
	} else {
		t.queue = t.queue[1:]
	}
	return frame
}

// giveUp drops the head-of-queue frame once it has exhausted the
// MaxDeferrals patience budget. It reports true when contention should
// stop because the queue drained.
func (t *Transceiver) giveUp() bool {
	if t.MaxDeferrals == 0 || t.frameDeferrals < t.MaxDeferrals || len(t.queue) == 0 {
		return false
	}
	frame := t.popQueue()
	t.Stats.CSMAGiveUps++
	t.frameDeferrals = 0
	if t.OnDrop != nil {
		t.OnDrop("csma give-up", frame)
	}
	if len(t.queue) == 0 {
		t.stopContention()
		return true
	}
	return false // keep contending for the next frame
}

// startContention anchors a fresh slot grid at the current instant and
// begins channel access for the head-of-queue frame.
func (t *Transceiver) startContention() {
	t.contending = true
	now := t.ch.sched.Now()
	if t.Params.PerSlotCSMA {
		t.ch.sched.At(now, t.contend)
		return
	}
	t.slot = now
	t.ch.addWaiter(t)
	t.wake = t.ch.sched.At(t.firstIdleSlot(now), t.onSlotFn)
}

// stopContention retires the waiter state (the wake event has fired or
// been cancelled by the caller).
func (t *Transceiver) stopContention() {
	t.contending = false
	t.wake = nil
	t.ch.removeWaiter(t)
}

// firstIdleSlot returns the earliest instant on t's slot grid, at or
// after from, that the currently scheduled transmissions leave idle
// for t. Busy stretches are skipped arithmetically in whole slots —
// the carrier-edge replacement for one polling event per SlotTime.
// Transmissions keyed up later can only push the result later; they
// re-resolve the waiter at key-up.
func (t *Transceiver) firstIdleSlot(from sim.Time) sim.Time {
	if t.Params.FullDuplex {
		return from // full duplex never defers to carrier
	}
	slotTime := t.Params.slotTime()
	slot := from
	for {
		until, busy := t.busyUntil(slot)
		if !busy {
			return slot
		}
		n := (until.Sub(slot) + slotTime - 1) / slotTime
		slot = slot.Add(time.Duration(n) * slotTime)
	}
}

// onSlot is the single contention decision point of the event-driven
// path, firing exactly at a slot instant that was idle when the wake
// was last resolved.
func (t *Transceiver) onSlot() {
	t.wake = nil // one-shot pointer discipline: the event is spent
	now := t.ch.sched.Now()
	slotTime := t.Params.slotTime()
	// Settle the stretch the wake skipped: every grid slot in
	// [t.slot, now) passed under busy carrier (key-ups only push the
	// wake later, and early release re-resolves it), so each is one
	// deferral the per-slot path would have burned an event on.
	if d := now.Sub(t.slot); d > 0 {
		n := uint64(d / slotTime)
		t.Stats.CSMADeferrals += n
		t.frameDeferrals += n
	}
	t.slot = now
	if len(t.queue) == 0 {
		t.stopContention()
		return
	}
	if t.giveUp() {
		return
	}
	p := t.Params
	if !p.FullDuplex {
		if t.CarrierSense() {
			// A carrier keyed up at this very instant (zero DCDDelay)
			// before our wake ran.
			t.Stats.CSMADeferrals++
			t.frameDeferrals++
			if t.giveUp() {
				return
			}
			t.slot = t.slot.Add(slotTime)
			t.wake = t.ch.sched.At(t.firstIdleSlot(t.slot), t.onSlotFn)
			return
		}
		if t.csmaRng.Float64() >= p.Persist {
			t.Stats.CSMADeferrals++
			t.frameDeferrals++
			if t.giveUp() {
				return
			}
			t.slot = t.slot.Add(slotTime)
			t.wake = t.ch.sched.At(t.firstIdleSlot(t.slot), t.onSlotFn)
			return
		}
	}
	t.stopContention()
	frame := t.popQueue()
	// frameDeferrals resets after the key-up so the tx-start trace hook
	// can report what this frame waited through.
	t.transmitFrame(frame, false)
	t.frameDeferrals = 0
}

// contend runs one step of the seed per-slot polling CSMA
// (Params.PerSlotCSMA): one scheduler event per SlotTime while
// deferred.
func (t *Transceiver) contend() {
	if len(t.queue) == 0 {
		t.contending = false
		return
	}
	p := t.Params
	if !p.FullDuplex {
		if t.CarrierSense() {
			t.Stats.CSMADeferrals++
			t.frameDeferrals++
			if t.MaxDeferrals > 0 && t.frameDeferrals >= t.MaxDeferrals {
				t.contending = false
				if !t.giveUpPerSlot() {
					return
				}
			}
			t.ch.sched.After(p.slotTime(), t.contend)
			return
		}
		if t.csmaRng.Float64() >= p.Persist {
			t.Stats.CSMADeferrals++
			t.frameDeferrals++
			if t.MaxDeferrals > 0 && t.frameDeferrals >= t.MaxDeferrals {
				t.contending = false
				if !t.giveUpPerSlot() {
					return
				}
			}
			t.ch.sched.After(p.slotTime(), t.contend)
			return
		}
	}
	t.contending = false
	frame := t.popQueue()
	t.transmitFrame(frame, false)
	t.frameDeferrals = 0
}

// giveUpPerSlot is the per-slot path's give-up: drop the head frame and
// report whether contention should continue for a successor.
func (t *Transceiver) giveUpPerSlot() bool {
	frame := t.popQueue()
	t.Stats.CSMAGiveUps++
	t.frameDeferrals = 0
	if t.OnDrop != nil {
		t.OnDrop("csma give-up", frame)
	}
	if len(t.queue) == 0 {
		return false
	}
	t.contending = true
	return true
}

// reresolveWaiters recomputes every waiter's wake after an early
// carrier release (a transmission cut by Retune): the first idle slot
// may now be sooner than the one the wake was parked on. Slots behind
// the current instant stay settled as busy — the cut carrier really
// did occupy them.
func (c *Channel) reresolveWaiters() {
	now := c.sched.Now()
	for _, u := range c.waiters {
		if u.wake == nil {
			continue
		}
		slotTime := u.Params.slotTime()
		from := u.slot
		if from < now {
			n := (now.Sub(from) + slotTime - 1) / slotTime
			from = from.Add(time.Duration(n) * slotTime)
		}
		if w := u.firstIdleSlot(from); w != u.wake.When() {
			c.sched.Reschedule(u.wake, w)
		}
	}
}

func (t *Transceiver) transmitFrame(frame []byte, control bool) {
	if t.TraceMAC != nil {
		t.TraceMAC("tx-start", frame, t.frameDeferrals)
	}
	c := t.ch
	now := c.sched.Now()
	dur := t.Params.TXDelay + c.AirTime(len(frame))
	tx := c.newTransmission()
	tx.sender, tx.from, tx.frame, tx.control = t, t.idx, frame, control
	tx.start, tx.end = now, now.Add(dur)
	t.transmitting = true
	t.txStart, t.txEnd = tx.start, tx.end
	if control {
		t.Stats.ControlSent++
		c.Stats.ControlFrames++
		c.Stats.ControlAirtime += dur
	} else {
		t.Stats.FramesSent++
	}
	t.Stats.Airtime += dur
	c.Stats.FramesStarted++
	c.Stats.Airtime += dur

	// Mark mutual damage with every already-active overlapping
	// transmission, at each attached receiver that can hear both
	// senders.
	for _, other := range c.active {
		if !tx.overlaps(other) {
			continue
		}
		c.Stats.CollisionPairs++
		hearsNew, hearsOld := c.hear[tx.from], c.hear[other.from]
		for w, p := range c.present {
			both := hearsNew[w] & hearsOld[w] & p
			tx.damaged[w] |= both
			other.damaged[w] |= both
		}
	}
	c.active = append(c.active, tx)
	// Carrier edge: each access policy on the channel re-resolves the
	// stations it holds deferred (CSMA slides parked waiters' wakes to
	// the far side of the new carrier).
	for _, a := range c.accs {
		a.KeyUp(c, t)
	}
	tx.done = c.sched.At(tx.end, tx.complete)
}

func (c *Channel) tap(sender, receiver *Transceiver, payload []byte, memo *any, outcome TapOutcome, consumed bool) {
	for _, fn := range c.Taps {
		fn(sender, receiver, payload, memo, outcome, consumed)
	}
}

func (c *Channel) complete(tx *transmission) {
	// Remove from active list.
	for i, a := range c.active {
		if a == tx {
			c.active = append(c.active[:i], c.active[i+1:]...)
			break
		}
	}
	sender := tx.sender
	sender.transmitting = false

	// Deliver to every station that can hear the sender.
	for _, r := range c.stations {
		if r == sender || !has(c.hear[tx.from], r.idx) {
			continue
		}
		collided := has(tx.damaged, r.idx)
		damaged := collided
		// Half duplex: a station whose own transmission overlapped
		// [tx.start, tx.end) missed the frame entirely — not even a
		// damaged copy is seen (its receiver was disconnected).
		if !r.Params.FullDuplex && r.txStart < tx.end && r.txEnd > tx.start {
			r.Stats.HalfDuplexMiss++
			c.tap(sender, r, tx.frame, &tx.memo, TapHalfDuplex, false)
			continue
		}
		if !damaged && c.BitErrorRate > 0 {
			bits := float64((len(tx.frame) + 2) * 8)
			pSurvive := pow1m(c.BitErrorRate, bits)
			if r.noiseRng.Float64() >= pSurvive {
				damaged = true
			}
		}
		// The receiver's MAC gets first look: a consumed frame is
		// channel-access control (a DAMA poll) and never reaches the
		// host; an unwrapped one continues up with its payload.
		payload, consumed := r.acc.Deliver(r, tx.frame, damaged)
		if len(c.Taps) > 0 {
			outcome := TapOK
			if collided {
				outcome = TapCollision
			} else if damaged {
				outcome = TapNoise
			}
			c.tap(sender, r, payload, &tx.memo, outcome, consumed)
		}
		if consumed {
			continue
		}
		if damaged {
			r.Stats.FramesDamaged++
			c.Stats.FramesDamaged++
		} else {
			r.Stats.FramesHeard++
			c.Stats.FramesHeard++
		}
		if r.rx != nil {
			r.rx(payload, &tx.memo, damaged)
		}
	}
	c.release(tx)

	// Sender may have more queued traffic (or, polled, the rest of its
	// reserved turn).
	sender.acc.TxDone(sender)
}

// pow1m computes (1-ber)^bits without importing math for one call.
func pow1m(ber, bits float64) float64 {
	// exp(bits * ln(1-ber)) via the identity; for the small BERs used
	// in tests a simple iterative square-and-multiply on the binary
	// expansion would be overkill, so use the series through repeated
	// multiplication in chunks.
	p := 1.0
	base := 1 - ber
	n := int(bits)
	for n > 0 {
		if n&1 == 1 {
			p *= base
		}
		base *= base
		n >>= 1
	}
	return p
}
