// Package serial simulates the RS-232 line between the host's DZ serial
// port and the TNC (Figure 1 of the paper). The line is full duplex;
// each direction paces bytes at the configured baud rate (8N1: ten bit
// times per byte) and delivers them to the far end through a receive
// callback — the simulated equivalent of the tty interrupt handler the
// paper's driver hangs off.
//
// # Burst-mode delivery
//
// The seed implementation scheduled one event per byte — a faithful
// copy of the §3 per-character-interrupt pathology, and exactly as
// slow. The default datapath is now burst mode: each Write becomes one
// "run" whose bytes all arrive in a single scheduler event at the
// virtual time the run's last byte finishes serializing. Observable
// timing is unchanged:
//
//   - Byte k of a run written at time t (on an idle line) would have
//     been delivered at t + k·ByteTime; the run event fires at
//     t + n·ByteTime, which is exactly the old delivery time of the
//     final byte. Since every framing protocol layered above (KISS)
//     acts only on its terminating byte, frame completion times are
//     bit-for-bit identical.
//   - QueueLen and Drained interpolate the drain schedule, so a
//     mid-run observer sees the same per-byte backlog decay the
//     per-byte chain produced (E2's congestion probe depends on it).
//   - OnDrain fires in the run event that empties the queue, after the
//     receive callback — the same instant and intra-event order as the
//     old chain's final-byte event.
//   - Corruption draws come from a per-end RNG (seeded from the
//     scheduler at NewLine), one draw per byte in wire order, so
//     corruption is identical whether the bytes are delivered singly
//     or as a run.
//
// Runs split at Write boundaries: the writers in this repository (the
// driver and the KISS TNC) write exactly one KISS frame per call, so a
// run never carries two frame terminators whose handlers would need
// distinct timestamps. The seed per-byte chain is retained behind
// Line.PerByte for equivalence regression tests.
package serial

import (
	"math/rand"
	"time"

	"packetradio/internal/sim"
)

// End is one end of a serial line. Writes queue bytes for paced
// delivery to the peer; received bytes arrive via the receiver callback
// installed with SetReceiver (per byte) or SetRunReceiver (per run).
type End struct {
	line *Line
	peer *End

	rx    func(byte)
	rxRun func([]byte)

	// OnDrain, when set, is invoked each time the transmit queue
	// empties — the "transmit done" interrupt devices use for output
	// flow control. Writing an empty slice never fires it: a zero-byte
	// write on an idle line is a no-op, not a drain edge.
	OnDrain func()

	// queue[head:] holds written-but-undelivered bytes; the backing
	// array is reused once the line drains.
	queue []byte
	head  int

	// runs[runHead:] are the scheduled burst deliveries, oldest first.
	// The front run's bytes are queue[head:head+n].
	runs    []run
	runHead int

	draining  bool   // legacy per-byte chain active
	deliverFn func() // cached bound method, so Write never allocates a closure

	corruptSeed int64
	corruptRNG  *rand.Rand

	// Stats. In burst mode the counters advance when a run is
	// delivered (its last byte's wire time); a mid-run observer should
	// use QueueLen, which interpolates byte-exactly.
	BytesSent     uint64
	BytesReceived uint64
	Corrupted     uint64
}

// run is one scheduled burst: n bytes whose last byte lands at end.
// corrupted counts damaged bytes in the run (0 or 1: runs split at
// corruption points, so only a run's final byte can be the damaged
// one — preserving the exact wire time at which a flipped bit can,
// say, forge a FEND and terminate a KISS frame early).
type run struct {
	n         int
	end       sim.Time
	corrupted uint8
}

// Line is a full-duplex serial link between two Ends.
type Line struct {
	sched *sim.Scheduler
	baud  int

	// CorruptRate is the per-byte probability that a byte is damaged
	// in transit (delivered with a bit flipped). Zero by default. Set
	// it before the first Write; the draw stream is per end, per byte,
	// in wire order.
	CorruptRate float64

	// PerByte reverts the line to the seed's one-event-per-byte
	// delivery chain. It is the reference the burst-equivalence tests
	// compare against; only tests set it. Set it before the first Write
	// and do not toggle it while bytes are in flight.
	PerByte bool

	a, b End
}

// DefaultBaud is the conventional host-TNC line speed. The radio is
// 1200 bps, so 9600 on the wire to the TNC keeps the serial hop from
// being the bottleneck — except when the TNC passes all channel
// traffic up, which is exactly the §3 problem E2 measures.
const DefaultBaud = 9600

// NewLine creates a serial line at the given baud rate and returns its
// two ends.
func NewLine(sched *sim.Scheduler, baud int) (*End, *End) {
	if baud <= 0 {
		baud = DefaultBaud
	}
	l := &Line{sched: sched, baud: baud}
	l.a.line, l.b.line = l, l
	l.a.peer, l.b.peer = &l.b, &l.a
	l.a.deliverFn = l.a.deliverRun
	l.b.deliverFn = l.b.deliverRun
	// Corruption seeds are derived eagerly (and in a fixed order) so
	// the per-end corruption streams depend only on construction
	// order, not on whether delivery is per byte or per run — and
	// deriving (rather than drawing from the shared Rand) leaves the
	// scheduler's main stream exactly as the seed scenarios expect.
	l.a.corruptSeed = sched.DeriveSeed()
	l.b.corruptSeed = sched.DeriveSeed()
	return &l.a, &l.b
}

// ByteTime reports the serialization time of one byte (8N1 framing:
// start bit + 8 data bits + stop bit).
func (l *Line) ByteTime() time.Duration {
	return time.Duration(10 * float64(time.Second) / float64(l.baud))
}

// Baud reports the line speed.
func (l *Line) Baud() int { return l.baud }

// Line reports the line this end belongs to (to set CorruptRate or the
// PerByte regression flag from outside the package).
func (e *End) Line() *Line { return e.line }

// SetReceiver installs the byte-receive callback ("interrupt handler")
// for this end. Bytes that arrive with no receiver installed are
// dropped silently, like characters on a closed tty. When a run
// receiver is also installed, it takes precedence.
func (e *End) SetReceiver(rx func(byte)) { e.rx = rx }

// SetRunReceiver installs the burst receive callback: each delivery
// event hands over the whole run of bytes that finished serializing at
// the current instant. The slice is only valid during the callback
// (the line reuses its backing storage) and may have had corruption
// applied in place. Receivers that only act on framing boundaries —
// the KISS decoder — should use this; it removes the per-byte callback
// overhead that made the serial hop the simulator's hot path.
func (e *End) SetRunReceiver(rx func([]byte)) { e.rxRun = rx }

// Write queues p for transmission to the peer end. It never blocks;
// the simulated UART drains the queue at line speed. The data is
// copied, so the caller may reuse p. Writing an empty slice is a
// complete no-op (no event, no drain edge).
func (e *End) Write(p []byte) (int, error) {
	if len(p) == 0 {
		return 0, nil
	}
	e.queue = append(e.queue, p...)
	if e.line.PerByte {
		if !e.draining {
			e.draining = true
			e.line.sched.After(e.line.ByteTime(), e.deliverNext)
		}
		return len(p), nil
	}
	// The new run starts where the previous one ends (continuous
	// pacing), or now on an idle line. n sequential per-byte events
	// each added the same nanosecond-truncated ByteTime, so the run's
	// end is exactly n·ByteTime past its start in both models.
	start := e.line.sched.Now()
	if n := len(e.runs); n > e.runHead {
		start = e.runs[n-1].end
	}
	bt := e.line.ByteTime()
	if e.line.CorruptRate > 0 {
		// Corruption is decided now, in wire order, from the per-end
		// stream (the same draws the per-byte chain makes at delivery
		// time). The write splits into sub-runs at every damaged byte
		// and after its first byte, so each keeps its exact per-byte
		// wire time: a flipped bit can forge a FEND mid-frame, and a
		// destroyed trailing FEND makes the *next* write's leading
		// FEND the frame terminator — both are timing-observable
		// boundaries only a noisy line can create.
		written := e.queue[len(e.queue)-len(p):]
		runStart := 0
		flush := func(endIdx int, corrupted uint8) {
			n := endIdx - runStart
			if n <= 0 {
				return
			}
			start = start.Add(time.Duration(n) * bt)
			e.runs = append(e.runs, run{n: n, end: start, corrupted: corrupted})
			e.line.sched.At(start, e.deliverFn)
			runStart = endIdx
		}
		for i, b := range written {
			if c, hit := e.corrupt(b); hit {
				written[i] = c
				flush(i+1, 1)
			} else if i == 0 {
				flush(1, 0)
			}
		}
		flush(len(written), 0)
		return len(p), nil
	}
	r := run{n: len(p), end: start.Add(time.Duration(len(p)) * bt)}
	e.runs = append(e.runs, r)
	e.line.sched.At(r.end, e.deliverFn)
	return len(p), nil
}

// QueueLen reports bytes written but not yet delivered — the driver's
// view of output-queue backlog (E2 measures this on the gateway). In
// burst mode the value interpolates the drain schedule byte-exactly:
// a byte whose wire time has been reached counts as delivered even if
// the run event carrying it has not yet fired within this instant.
func (e *End) QueueLen() int {
	rem := len(e.queue) - e.head
	if e.runHead >= len(e.runs) {
		return rem
	}
	// Only the front run can be partially drained: every later run
	// starts where it ends.
	r := e.runs[e.runHead]
	wait := r.end.Sub(e.line.sched.Now())
	if wait <= 0 {
		return rem - r.n
	}
	bt := e.line.ByteTime()
	undelivered := int((wait + bt - 1) / bt) // ceil(wait / ByteTime)
	if undelivered > r.n {
		undelivered = r.n // run not started yet
	}
	return rem - (r.n - undelivered)
}

// Drained reports whether all written bytes have been delivered, under
// the same byte-exact interpolation as QueueLen.
func (e *End) Drained() bool { return e.QueueLen() == 0 }

// rng returns the per-end corruption source, built on first use from
// the seed drawn at NewLine.
func (e *End) rng() *rand.Rand {
	if e.corruptRNG == nil {
		e.corruptRNG = rand.New(rand.NewSource(e.corruptSeed))
	}
	return e.corruptRNG
}

// corrupt damages one byte in transit: one Float64 draw per byte, a
// second draw for the flipped bit when the byte is hit — the same
// stream whether bytes are delivered singly or as a run.
func (e *End) corrupt(b byte) (byte, bool) {
	r := e.line.CorruptRate
	if r <= 0 || e.rng().Float64() >= r {
		return b, false
	}
	return b ^ 1<<uint(e.rng().Intn(8)), true
}

// deliverRun fires once per run, at the wire time of its last byte.
func (e *End) deliverRun() {
	r := e.runs[e.runHead]
	e.runHead++
	data := e.queue[e.head : e.head+r.n]
	e.head += r.n
	e.BytesSent += uint64(r.n)
	e.peer.Corrupted += uint64(r.corrupted)
	e.peer.BytesReceived += uint64(r.n)
	switch {
	case e.peer.rxRun != nil:
		e.peer.rxRun(data)
	case e.peer.rx != nil:
		for _, b := range data {
			e.peer.rx(b)
		}
	}
	// The receive callbacks may have queued more runs on this end (a
	// peer writing back within the delivery instant); only a genuinely
	// idle line drains. Resetting after the callbacks also keeps the
	// just-delivered slice valid while the receiver looks at it.
	if e.runHead >= len(e.runs) {
		e.runs = e.runs[:0]
		e.runHead = 0
		e.queue = e.queue[:0]
		e.head = 0
		if e.OnDrain != nil {
			e.OnDrain()
		}
	}
}

// deliverNext is the seed per-byte interrupt chain, kept verbatim
// behind Line.PerByte for the equivalence regression tests.
func (e *End) deliverNext() {
	if e.head >= len(e.queue) {
		e.draining = false
		return
	}
	b := e.queue[e.head]
	e.head++
	e.BytesSent++
	if c, hit := e.corrupt(b); hit {
		b = c
		e.queue[e.head-1] = c
		e.peer.Corrupted++
	}
	e.peer.BytesReceived++
	switch {
	case e.peer.rxRun != nil:
		e.peer.rxRun(e.queue[e.head-1 : e.head])
	case e.peer.rx != nil:
		e.peer.rx(b)
	}
	if e.head < len(e.queue) {
		e.line.sched.After(e.line.ByteTime(), e.deliverNext)
	} else {
		e.queue = e.queue[:0]
		e.head = 0
		e.draining = false
		if e.OnDrain != nil {
			e.OnDrain()
		}
	}
}
