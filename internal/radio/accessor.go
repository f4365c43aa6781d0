// The pluggable channel-access seam (DESIGN.md §3d): everything that
// decides *when* a queued frame may key up — and what a received frame
// means to the MAC before the host sees it — lives behind Accessor, so
// the p-persistent CSMA the paper's TNCs spoke and the DAMA polled
// access that lifts its saturation knee are interchangeable policies
// over the same physical channel model. The CSMA implementation keeps
// its state on Transceiver/Channel exactly where the pre-seam code put
// it; csmaAccessor below is a stateless dispatcher into it, so the
// event sequence (and therefore every deterministic counter the CI
// gate pins) is bit-identical to the pre-seam code.

package radio

import "packetradio/internal/sim"

// Accessor is one channel-access (MAC) policy. A Transceiver holds
// exactly one accessor (CSMA by default, installed at Attach); a
// policy with shared per-channel state — DAMA's poll master — hands
// every station on the channel the same instance. All methods run
// inside the scheduler's event loop.
type Accessor interface {
	// Start begins admission for t's head-of-queue frame. Called by
	// Send when a frame is queued on an idle, non-pending transceiver,
	// and by Retune when queued frames migrate to a new channel. The
	// accessor owns the decision from here until it transmits the
	// frame or Detach retires it; it must set AccessPending while the
	// decision is outstanding so Send does not re-enter.
	Start(t *Transceiver)

	// TxDone fires when t's own transmission completes (end of frame,
	// carrier released). The CSMA accessor restarts contention for any
	// remaining queue; DAMA continues the poll turn.
	TxDone(t *Transceiver)

	// Detach retires any pending access state for t, which is leaving
	// its channel (Retune). After Detach the accessor must hold no
	// timers, wait-list entries or registry state for t.
	Detach(t *Transceiver)

	// ParamsChanged runs after t.Params was replaced (a KISS parameter
	// frame landing mid-defer, pushed down through tnc.applyParams) so
	// the policy can re-anchor state computed against the old values.
	ParamsChanged(t *Transceiver, old Params)

	// Deliver gives the MAC first look at every frame arriving at t,
	// after collision/noise damage is decided but before counters and
	// the receive callback. It returns the payload to pass up and
	// false, or consumed=true to swallow a MAC-level control frame
	// (polls never reach the TNC). The frame slice is shared — slice
	// it, do not mutate it. The payload goes up as is, intact or
	// damaged: return the same sub-slice for every receiver of one
	// transmission, so they share its verdict (SetReceiver).
	Deliver(t *Transceiver, frame []byte, damaged bool) (payload []byte, consumed bool)

	// KeyUp is the channel-wide carrier-edge hook: sender just keyed
	// up on c. The CSMA accessor slides parked waiters' wakes to the
	// far side of the new carrier.
	KeyUp(c *Channel, sender *Transceiver)

	// CarrierChanged is the other carrier-schedule edge: an early
	// release (a transmission cut by Retune) or a reachability change
	// under an active carrier. Deferred decisions computed against the
	// old schedule re-resolve here.
	CarrierChanged(c *Channel)
}

// csma is the default accessor: the event-driven p-persistent CSMA of
// DESIGN.md §3c (with the seed per-slot path behind Params.PerSlotCSMA).
// One instance serves every transceiver — all its state lives on the
// Transceiver (slot grid, wake event) and the Channel (wait-list).
var csma Accessor = &csmaAccessor{}

type csmaAccessor struct{}

func (csmaAccessor) Start(t *Transceiver) { t.startContention() }

func (csmaAccessor) TxDone(t *Transceiver) {
	if len(t.queue) > 0 && !t.contending {
		t.startContention()
	}
}

func (csmaAccessor) Detach(t *Transceiver) {
	// Migrate a pending event-driven deferral: off the wait-list, wake
	// cancelled, so contention restarts cleanly on the next channel. (A
	// per-slot contender keeps its scheduled contend closure, which
	// simply finds t.ch pointing at the new channel — the seed
	// behaviour.)
	if t.wake != nil {
		t.ch.removeWaiter(t)
		t.ch.sched.Cancel(t.wake)
		t.wake = nil
		t.contending = false
	}
}

func (csmaAccessor) ParamsChanged(t *Transceiver, old Params) {
	// Mid-defer, the pending wake and the settlement arithmetic were
	// computed against the old slot grid: settle the slots already
	// passed under the old SlotTime and re-anchor contention on the new
	// parameters at the current instant. Idle (wake == nil), the field
	// write alone was enough.
	if t.wake == nil {
		return
	}
	now := t.ch.sched.Now()
	if d := now.Sub(t.slot); d > 0 {
		oldSlot := old.slotTime()
		// Ceiling division: every old-grid instant strictly before now
		// passed under busy carrier (the settled-deferral invariant).
		t.Stats.CSMADeferrals += uint64((d + oldSlot - 1) / oldSlot)
	}
	t.slot = now
	t.ch.sched.Cancel(t.wake)
	t.wake = t.ch.sched.At(t.firstIdleSlot(now), t.onSlotFn)
}

func (csmaAccessor) Deliver(_ *Transceiver, frame []byte, _ bool) ([]byte, bool) {
	return frame, false // CSMA has no MAC-level control traffic
}

func (csmaAccessor) KeyUp(c *Channel, sender *Transceiver) {
	// Carrier edge: waiters whose parked slot the new carrier now
	// covers slide their wake to the far side of it (never earlier, so
	// the settled-deferral invariant holds).
	for _, u := range c.waiters {
		if u == sender || u.wake == nil {
			continue
		}
		w := u.wake.When()
		if nw := u.firstIdleSlot(w); nw != w {
			c.sched.Reschedule(u.wake, nw)
		}
	}
}

func (csmaAccessor) CarrierChanged(c *Channel) { c.reresolveWaiters() }

// --- accessor bookkeeping on the channel --------------------------------

// addAccessor notes one more station on c using accessor a; the first
// reference puts a on the channel's hook list (in arrival order, so
// hook dispatch is deterministic).
func (c *Channel) addAccessor(a Accessor) {
	if c.accRef == nil {
		c.accRef = make(map[Accessor]int)
	}
	if c.accRef[a] == 0 {
		c.accs = append(c.accs, a)
	}
	c.accRef[a]++
}

// dropAccessor releases one reference; the last reference removes a
// from the hook list.
func (c *Channel) dropAccessor(a Accessor) {
	if c.accRef[a]--; c.accRef[a] > 0 {
		return
	}
	delete(c.accRef, a)
	for i, x := range c.accs {
		if x == a {
			c.accs = append(c.accs[:i], c.accs[i+1:]...)
			return
		}
	}
}

// SetAccessor installs a channel-access policy on t, replacing the
// default CSMA (a DAMA controller installs itself on Join). Swap
// policies only while t is idle — a pending admission decision belongs
// to the old accessor; Detach it first.
func (t *Transceiver) SetAccessor(a Accessor) {
	if a == nil || a == t.acc {
		return
	}
	if t.ch != nil {
		t.ch.dropAccessor(t.acc)
		t.ch.addAccessor(a)
	}
	t.acc = a
}

// Accessor reports t's channel-access policy.
func (t *Transceiver) Accessor() Accessor { return t.acc }

// CSMAAccessor returns the default p-persistent CSMA policy — what a
// departing DAMA member falls back to when it leaves its controller's
// channel.
func CSMAAccessor() Accessor { return csma }

// --- accessor-facing surface on channel and transceiver -----------------

// Scheduler exposes the channel's event scheduler to channel-access
// policies (DAMA's poll and election timers live there).
func (c *Channel) Scheduler() *sim.Scheduler { return c.sched }

// AccessPending reports whether the accessor currently owns an
// admission decision for t's head-of-queue frame.
func (t *Transceiver) AccessPending() bool { return t.contending }

// SetAccessPending marks or clears the outstanding-decision flag; an
// accessor sets it in Start and clears it when the queue drains (the
// CSMA accessor manages it through startContention/stopContention).
func (t *Transceiver) SetAccessPending(b bool) { t.contending = b }

// TakeQueued pops and returns t's head-of-queue frame, for an accessor
// that transmits it (possibly wrapped in a MAC header) via TransmitMAC.
func (t *Transceiver) TakeQueued() ([]byte, bool) {
	if len(t.queue) == 0 {
		return nil, false
	}
	return t.popQueue(), true
}

// RequeueHead puts a frame taken with TakeQueued back at the head of
// the queue — the undo for an admission the radio refused.
func (t *Transceiver) RequeueHead(frame []byte) {
	t.queue = append([][]byte{frame}, t.queue...)
}

// Transmitting reports whether t currently has a frame keyed up.
func (t *Transceiver) Transmitting() bool { return t.transmitting }

// TransmitMAC keys up a MAC-originated frame immediately, bypassing
// admission — the accessor asserts it owns the channel schedule (a
// DAMA master's poll, or a polled slave's reserved response slot).
// control marks pure control frames (polls, no-traffic responses) for
// the channel's overhead accounting; wrapped data frames pass false so
// they count as data. Returns false, transmitting nothing, if t is
// already keyed up — a policy bug or a dueling-masters race, not worth
// wedging the simulation over.
func (t *Transceiver) TransmitMAC(frame []byte, control bool) bool {
	if t.transmitting {
		return false
	}
	t.transmitFrame(frame, control)
	return true
}
