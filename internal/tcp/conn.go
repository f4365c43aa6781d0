package tcp

import (
	"errors"
	"time"

	"packetradio/internal/sim"
)

// State is a TCP connection state (RFC 793 names).
type State int

const (
	StateClosed State = iota
	StateSynSent
	StateSynRcvd
	StateEstablished
	StateFinWait1
	StateFinWait2
	StateCloseWait
	StateClosing
	StateLastAck
	StateTimeWait
)

var stateNames = [...]string{
	"CLOSED", "SYN_SENT", "SYN_RCVD", "ESTABLISHED", "FIN_WAIT_1",
	"FIN_WAIT_2", "CLOSE_WAIT", "CLOSING", "LAST_ACK", "TIME_WAIT",
}

func (s State) String() string {
	if int(s) < len(stateNames) {
		return stateNames[s]
	}
	return "UNKNOWN"
}

// Connection errors.
var (
	ErrRefused = errors.New("tcp: connection refused")
	ErrReset   = errors.New("tcp: connection reset by peer")
	ErrTimeout = errors.New("tcp: connection timed out")
	ErrClosed  = errors.New("tcp: connection closed")
)

// MSL is the maximum segment lifetime used for TIME_WAIT (2*MSL).
const MSL = 15 * time.Second

// ConnStats counts per-connection events; E3 reads these.
type ConnStats struct {
	SegsSent    uint64
	SegsRcvd    uint64
	BytesSent   uint64
	BytesRcvd   uint64
	Retransmits uint64
	Timeouts    uint64
	DupSegments uint64 // received segments wholly or partly already seen
	DupBytes    uint64 // received payload bytes that were duplicates
	DupAcks     uint64
	FastRexmits uint64
	Persists    uint64 // zero-window probes forced past a closed peer window
	RTTSamples  uint64
	LastRTT     time.Duration
	SRTT        time.Duration
	CurrentRTO  time.Duration
}

// Conn is one TCP connection. All methods and callbacks run on the
// simulation event loop.
type Conn struct {
	// OnConnect fires when the connection reaches ESTABLISHED
	// (active opens only; passive opens get the listener callback).
	OnConnect func()
	// OnData delivers in-sequence payload bytes.
	OnData func([]byte)
	// OnPeerClose fires when the peer's FIN is received (EOF).
	OnPeerClose func()
	// OnClose fires exactly once when the connection is fully down;
	// err is nil for a clean close.
	OnClose func(error)
	// OnAcked fires when the peer acknowledges new data, i.e. when
	// send-buffer space is freed. The socket layer pumps its send
	// queue from here.
	OnAcked func()
	// WindowFunc, when non-nil, supplies the receive window to
	// advertise (bytes). The socket layer points it at the free space
	// in its receive sockbuf, which is what turns a slow reader into
	// sender backpressure.
	WindowFunc func() int

	Stats ConnStats

	proto      *Proto
	key        connKey
	cfg        Config
	active     bool
	listener   *Listener
	synPending bool // passive handshake not yet resolved (OnSynDone owed)
	state      State
	err        error
	closed     bool
	lastAdvWnd uint16

	// Send state.
	iss      uint32
	sndUna   uint32
	sndNxt   uint32
	sndWnd   int
	sendBuf  []byte // stream bytes from sndUna onward
	finQd    bool
	finSent  bool
	finSeq   uint32
	finAcked bool
	peerMSS  int

	// Congestion (optional Tahoe slow start).
	cwnd     int
	ssthresh int

	// RTO machinery.
	rtoBase  time.Duration // learned (adaptive) base
	backoff  uint
	timing   bool
	timedSeq uint32
	timedAt  sim.Time
	rexmt    *sim.Event
	retries  int
	dupAcks  int

	// Receive state.
	irs    uint32
	rcvNxt uint32
	ooo    map[uint32][]byte

	timewait *sim.Event
}

const maxOOOSegments = 32

func newConn(p *Proto, key connKey, cfg Config, active bool) *Conn {
	cfg = cfg.withDefaults()
	c := &Conn{
		proto:    p,
		key:      key,
		cfg:      cfg,
		active:   active,
		state:    StateClosed,
		peerMSS:  536,
		ooo:      make(map[uint32][]byte),
		cwnd:     cfg.MSS,
		ssthresh: 65535,
	}
	c.Stats.CurrentRTO = c.currentRTO()
	return c
}

// State reports the connection state.
func (c *Conn) State() State { return c.state }

// Err reports why the connection died, nil for clean closes.
func (c *Conn) Err() error { return c.err }

// LocalAddr / RemoteAddr / ports.
func (c *Conn) LocalPort() uint16  { return c.key.localPort }
func (c *Conn) RemotePort() uint16 { return c.key.remotePort }

// Pending reports unacknowledged plus unsent bytes.
func (c *Conn) Pending() int { return len(c.sendBuf) }

// Config returns the effective configuration.
func (c *Conn) Config() Config { return c.cfg }

// --- Open ---------------------------------------------------------------

func (c *Conn) connect() {
	c.iss = c.initialSeq()
	c.sndUna = c.iss
	c.sndNxt = c.iss + 1
	c.state = StateSynSent
	c.proto.Stats.Connects++
	// Time the initial SYN only; sendSYN must never re-arm timing for
	// a retransmission (Karn's rule), or an old SYN's ACK would yield
	// a bogus short sample that locks the RTO below the path RTT.
	if c.cfg.Mode == RTOAdaptive {
		c.timing, c.timedSeq, c.timedAt = true, c.iss, c.proto.sched.Now()
	}
	c.sendSYN(false)
	c.startRexmt()
}

func (c *Conn) passiveOpen(seg *Segment) {
	c.irs = seg.Seq
	c.rcvNxt = seg.Seq + 1
	if seg.MSS != 0 {
		c.peerMSS = int(seg.MSS)
	}
	c.sndWnd = int(seg.Window)
	c.iss = c.initialSeq()
	c.sndUna = c.iss
	c.sndNxt = c.iss + 1
	c.state = StateSynRcvd
	c.sendSYN(true)
	c.startRexmt()
}

// initialSeq picks the ISS the RFC 6528 way without the secret: a
// 4 µs virtual clock plus a hash (FNV-1a) of the 4-tuple. It is a pure
// function of the connection and the instant, so it draws nothing from
// the scheduler's shared random stream — whose consumption order
// differs between the single-loop and sharded engines — and the same
// connection opens with the same sequence numbers on both.
func (c *Conn) initialSeq() uint32 {
	k := c.key
	tuple := [12]byte{
		k.localAddr[0], k.localAddr[1], k.localAddr[2], k.localAddr[3],
		byte(k.localPort >> 8), byte(k.localPort),
		k.remoteAddr[0], k.remoteAddr[1], k.remoteAddr[2], k.remoteAddr[3],
		byte(k.remotePort >> 8), byte(k.remotePort),
	}
	h := uint32(2166136261)
	for _, b := range tuple {
		h = (h ^ uint32(b)) * 16777619
	}
	return uint32(c.proto.sched.Now()/sim.Time(4*time.Microsecond)) + h
}

func (c *Conn) sendSYN(withAck bool) {
	seg := &Segment{
		SrcPort: c.key.localPort, DstPort: c.key.remotePort,
		Seq: c.iss, Flags: FlagSYN,
		Window: c.advertisedWindow(), MSS: uint16(c.cfg.MSS),
	}
	if withAck {
		seg.Flags |= FlagACK
		seg.Ack = c.rcvNxt
	}
	c.Stats.SegsSent++
	c.proto.transmit(c.key, seg)
}

func (c *Conn) advertisedWindow() uint16 {
	w := c.windowNow()
	c.lastAdvWnd = w
	return w
}

func (c *Conn) windowNow() uint16 {
	w := c.cfg.WindowBytes
	if c.WindowFunc != nil {
		w = c.WindowFunc()
		if w < 0 {
			w = 0
		}
	}
	if w > 65535 {
		w = 65535
	}
	return uint16(w)
}

// NotifyWindowOpen tells the connection that the receive-buffer owner
// drained data. If the window has grown materially since the last
// advertisement (or reopened from zero), an ACK carrying the new
// window goes out so a stalled sender resumes — 4.3BSD's window-update
// path out of sorwakeup/tcp_output.
func (c *Conn) NotifyWindowOpen() {
	switch c.state {
	case StateEstablished, StateFinWait1, StateFinWait2:
	default:
		return
	}
	w := c.windowNow()
	growth := int(w) - int(c.lastAdvWnd)
	if (c.lastAdvWnd == 0 && w > 0) || growth >= 2*c.sendMSS() {
		c.sendAck()
	}
}

func (c *Conn) onEstablished() {
	c.state = StateEstablished
	if c.active {
		if c.OnConnect != nil {
			c.OnConnect()
		}
	} else {
		c.proto.Stats.Accepts++
		if c.synPending {
			c.synPending = false
			if c.listener != nil && c.listener.OnSynDone != nil {
				c.listener.OnSynDone(true)
			}
		}
		if c.listener != nil && c.listener.Accept != nil {
			c.listener.Accept(c)
		}
	}
}

// --- API ----------------------------------------------------------------

// Send queues stream data.
func (c *Conn) Send(p []byte) error {
	switch c.state {
	case StateEstablished, StateCloseWait, StateSynSent, StateSynRcvd:
		if c.finQd {
			return ErrClosed
		}
		c.sendBuf = append(c.sendBuf, p...)
		c.trySend()
		return nil
	default:
		return ErrClosed
	}
}

// Close sends FIN after all queued data.
func (c *Conn) Close() {
	switch c.state {
	case StateEstablished, StateCloseWait, StateSynRcvd:
		if !c.finQd {
			c.finQd = true
			c.trySend()
		}
	case StateSynSent:
		c.teardown(nil)
	}
}

// Abort resets the connection immediately.
func (c *Conn) Abort() {
	if c.state == StateClosed {
		return
	}
	rst := &Segment{
		SrcPort: c.key.localPort, DstPort: c.key.remotePort,
		Seq: c.sndNxt, Flags: FlagRST | FlagACK, Ack: c.rcvNxt,
	}
	c.proto.Stats.RSTsOut++
	c.proto.transmit(c.key, rst)
	c.teardown(ErrClosed)
}

// --- Timers -------------------------------------------------------------

func (c *Conn) currentRTO() time.Duration {
	var base time.Duration
	switch c.cfg.Mode {
	case RTOFixed:
		return c.cfg.FixedRTO // no learning, no backoff
	default:
		if c.rtoBase > 0 {
			base = c.rtoBase
		} else {
			base = c.cfg.InitialRTO
		}
	}
	rto := base << c.backoff
	if rto > c.cfg.MaxRTO {
		rto = c.cfg.MaxRTO
	}
	if rto < c.cfg.MinRTO {
		rto = c.cfg.MinRTO
	}
	return rto
}

func (c *Conn) startRexmt() {
	c.stopRexmt()
	rto := c.currentRTO()
	c.Stats.CurrentRTO = rto
	c.rexmt = c.proto.sched.After(rto, c.rexmtExpired)
}

func (c *Conn) stopRexmt() {
	if c.rexmt != nil {
		c.proto.sched.Cancel(c.rexmt)
		c.rexmt = nil
	}
}

func (c *Conn) rexmtExpired() {
	c.rexmt = nil
	c.Stats.Timeouts++
	c.retries++
	if c.retries > c.cfg.MaxRetries {
		c.teardown(ErrTimeout)
		return
	}
	// Karn's rule: a retransmission invalidates any in-flight timing.
	c.timing = false
	if c.cfg.Mode == RTOAdaptive {
		if c.backoff < 6 {
			c.backoff++
		}
	}
	if c.cfg.SlowStart {
		inflight := int(c.sndNxt - c.sndUna)
		half := inflight / 2
		if half < 2*c.cfg.MSS {
			half = 2 * c.cfg.MSS
		}
		c.ssthresh = half
		c.cwnd = c.cfg.MSS
	}
	c.retransmit()
	c.startRexmt()
}

// retransmit resends the earliest outstanding item.
func (c *Conn) retransmit() {
	c.Stats.Retransmits++
	switch c.state {
	case StateSynSent:
		c.sendSYN(false)
		return
	case StateSynRcvd:
		c.sendSYN(true)
		return
	}
	outstanding := int(c.sndNxt - c.sndUna)
	if c.finSent && outstanding > 0 {
		outstanding-- // FIN occupies one sequence number
	}
	if outstanding > 0 {
		n := outstanding
		if n > c.sendMSS() {
			n = c.sendMSS()
		}
		c.sendData(c.sndUna, c.sendBuf[:n], false)
		return
	}
	if c.finSent && !c.finAcked {
		c.sendFIN()
		return
	}
	if len(c.sendBuf) > 0 {
		// Nothing outstanding but data waiting: the peer's window is
		// closed. Force one byte past it as a window probe; the
		// receiver buffers and ACKs it, which both resets our retry
		// count and carries the reopened window when the application
		// finally reads.
		c.sendData(c.sndNxt, c.sendBuf[:1], false)
		c.sndNxt++
		c.Stats.BytesSent++
		c.Stats.Persists++
		c.proto.Stats.Persists++
	}
}

// --- RTT estimation -----------------------------------------------------

func (c *Conn) sampleRTT(sample time.Duration) {
	c.Stats.RTTSamples++
	c.Stats.LastRTT = sample
	if c.Stats.SRTT == 0 {
		c.Stats.SRTT = sample
	} else {
		// RFC 793 smoothing with alpha = 7/8.
		c.Stats.SRTT = (7*c.Stats.SRTT + sample) / 8
	}
	// beta = 2.
	c.rtoBase = 2 * c.Stats.SRTT
	if c.rtoBase < c.cfg.MinRTO {
		c.rtoBase = c.cfg.MinRTO
	}
	if c.rtoBase > c.cfg.MaxRTO {
		c.rtoBase = c.cfg.MaxRTO
	}
	c.Stats.CurrentRTO = c.currentRTO()
}

// --- Segment processing --------------------------------------------------

func (c *Conn) segment(seg *Segment) {
	c.Stats.SegsRcvd++
	switch c.state {
	case StateSynSent:
		c.segSynSent(seg)
		return
	case StateSynRcvd:
		if seg.has(FlagRST) {
			c.teardown(ErrReset)
			return
		}
		if seg.has(FlagACK) && seg.Ack == c.sndNxt {
			c.sndUna = seg.Ack
			c.sndWnd = int(seg.Window)
			c.retries = 0
			c.stopRexmt()
			c.onEstablished()
			// Fall through: the ACK may carry data.
		} else if seg.has(FlagSYN) && !seg.has(FlagACK) {
			// Duplicate SYN: re-answer.
			c.sendSYN(true)
			return
		} else {
			return
		}
	case StateClosed:
		return
	}

	if seg.has(FlagRST) {
		c.teardown(ErrReset)
		return
	}
	if seg.has(FlagSYN) {
		if seqLT(c.irs, seg.Seq) {
			// New SYN inside an existing connection: protocol violation.
			c.teardown(ErrReset)
			return
		}
		// A retransmitted SYN or SYN|ACK means our handshake ACK was
		// lost (common on a colliding radio channel): re-acknowledge,
		// or the peer stays in SYN_RCVD until its retries run out.
		c.sendAck()
		return
	}
	c.processAck(seg)
	if c.state == StateClosed {
		return
	}
	c.processData(seg)
}

func (c *Conn) segSynSent(seg *Segment) {
	if seg.has(FlagRST) {
		if seg.has(FlagACK) && seg.Ack == c.sndNxt {
			c.teardown(ErrRefused)
		}
		return
	}
	if seg.has(FlagSYN) && seg.has(FlagACK) {
		if seg.Ack != c.sndNxt {
			return // bogus
		}
		c.irs = seg.Seq
		c.rcvNxt = seg.Seq + 1
		c.sndUna = seg.Ack
		if seg.MSS != 0 {
			c.peerMSS = int(seg.MSS)
		}
		c.sndWnd = int(seg.Window)
		c.retries = 0
		c.stopRexmt()
		if c.timing && c.cfg.Mode == RTOAdaptive {
			c.sampleRTT(c.proto.sched.Now().Sub(c.timedAt))
			c.timing = false
		}
		c.onEstablished()
		c.sendAck()
		c.trySend()
		return
	}
	if seg.has(FlagSYN) {
		// Simultaneous open.
		c.irs = seg.Seq
		c.rcvNxt = seg.Seq + 1
		if seg.MSS != 0 {
			c.peerMSS = int(seg.MSS)
		}
		c.state = StateSynRcvd
		c.sendSYN(true)
		c.startRexmt()
	}
}

func (c *Conn) processAck(seg *Segment) {
	if !seg.has(FlagACK) {
		return
	}
	if seqLT(c.sndNxt, seg.Ack) {
		// Acks something we never sent: ignore (peer will resync).
		c.sendAck()
		return
	}
	if seqLT(seg.Ack, c.sndUna) {
		// Stale ACK from a duplicated or reordered segment (e.g. a
		// retransmitted SYN|ACK): RFC 793 says ignore. Processing it
		// would regress snd.una and corrupt the send buffer.
		return
	}
	acked := int(seg.Ack - c.sndUna)
	if acked > 0 {
		dataAcked := acked
		if c.finSent && seg.Ack == c.finSeq+1 {
			c.finAcked = true
			dataAcked--
		}
		if dataAcked > len(c.sendBuf) {
			dataAcked = len(c.sendBuf)
		}
		c.sendBuf = c.sendBuf[dataAcked:]
		c.sndUna = seg.Ack
		c.retries = 0
		c.dupAcks = 0
		if c.timing && seqLT(c.timedSeq, seg.Ack) {
			if c.cfg.Mode == RTOAdaptive {
				c.sampleRTT(c.proto.sched.Now().Sub(c.timedAt))
			}
			c.timing = false
		}
		c.backoff = 0 // Karn: keep backed-off RTO until new data is acked
		if c.cfg.SlowStart {
			if c.cwnd < c.ssthresh {
				c.cwnd += c.cfg.MSS
			} else {
				c.cwnd += c.cfg.MSS * c.cfg.MSS / c.cwnd
			}
		}
		if c.sndUna == c.sndNxt {
			c.stopRexmt()
		} else {
			c.startRexmt()
		}
		if c.finAcked {
			switch c.state {
			case StateFinWait1:
				c.state = StateFinWait2
			case StateClosing:
				c.enterTimeWait()
			case StateLastAck:
				c.teardown(nil)
				return
			}
		}
		c.sndWnd = int(seg.Window)
		if dataAcked > 0 && c.OnAcked != nil {
			c.OnAcked()
		}
		c.trySend()
		return
	}
	// acked == 0: duplicate or window update.
	c.sndWnd = int(seg.Window)
	if len(seg.Payload) == 0 && c.sndUna != c.sndNxt {
		c.Stats.DupAcks++
		c.dupAcks++
		if c.cfg.FastRetransmit && c.dupAcks == 3 {
			c.Stats.FastRexmits++
			c.retransmit()
		}
	}
	c.trySend()
}

func (c *Conn) processData(seg *Segment) {
	plen := len(seg.Payload)
	fin := seg.has(FlagFIN)
	if plen == 0 && !fin {
		return
	}
	seq := seg.Seq
	end := seq + uint32(plen)
	payload := seg.Payload

	if seqLT(c.rcvNxt, seq) {
		// Future data: buffer (without FIN; peer retransmits it) and
		// send a duplicate ACK so the sender learns about the gap.
		if plen > 0 && len(c.ooo) < maxOOOSegments {
			c.ooo[seq] = append([]byte(nil), payload...)
		}
		c.sendAck()
		return
	}
	finNew := fin && !seqLT(end, c.rcvNxt) // FIN at or beyond rcvNxt
	if seqLEQ(end, c.rcvNxt) && (plen > 0 || fin) {
		if !finNew || plen > 0 {
			// Entirely old data (a duplicate crossing the link — the
			// §4.1 wasted bandwidth E3 measures).
			if plen > 0 {
				c.Stats.DupSegments++
				c.Stats.DupBytes += uint64(plen)
			}
		}
		if !finNew {
			c.sendAck()
			return
		}
	}
	if plen > 0 && seqLT(seq, c.rcvNxt) {
		// Partial overlap: trim the stale head.
		skip := int(c.rcvNxt - seq)
		c.Stats.DupSegments++
		c.Stats.DupBytes += uint64(skip)
		payload = payload[skip:]
		plen = len(payload)
		seq = c.rcvNxt
	}
	if plen > 0 && seq == c.rcvNxt {
		c.deliver(payload)
		// Drain any buffered out-of-order continuation.
		for {
			next, ok := c.ooo[c.rcvNxt]
			if !ok {
				break
			}
			delete(c.ooo, c.rcvNxt)
			c.deliver(next)
		}
	}
	if finNew && c.rcvNxt == end {
		c.rcvNxt++
		c.peerFIN()
	}
	c.sendAck()
}

func (c *Conn) deliver(p []byte) {
	c.rcvNxt += uint32(len(p))
	c.Stats.BytesRcvd += uint64(len(p))
	if c.OnData != nil {
		c.OnData(p)
	}
}

func (c *Conn) peerFIN() {
	switch c.state {
	case StateEstablished:
		c.state = StateCloseWait
		if c.OnPeerClose != nil {
			c.OnPeerClose()
		}
	case StateFinWait1:
		if c.finAcked {
			c.enterTimeWait()
		} else {
			c.state = StateClosing
		}
		if c.OnPeerClose != nil {
			c.OnPeerClose()
		}
	case StateFinWait2:
		c.enterTimeWait()
		if c.OnPeerClose != nil {
			c.OnPeerClose()
		}
	}
}

// --- Transmission --------------------------------------------------------

func (c *Conn) sendMSS() int {
	mss := c.cfg.MSS
	if c.peerMSS > 0 && c.peerMSS < mss {
		mss = c.peerMSS
	}
	return mss
}

func (c *Conn) effectiveWindow() int {
	w := c.sndWnd
	if c.cfg.SlowStart && c.cwnd < w {
		w = c.cwnd
	}
	return w
}

func (c *Conn) trySend() {
	if c.state != StateEstablished && c.state != StateCloseWait &&
		c.state != StateFinWait1 && c.state != StateLastAck {
		return
	}
	mss := c.sendMSS()
	for {
		inflight := int(c.sndNxt - c.sndUna)
		if c.finSent {
			inflight--
		}
		unsent := len(c.sendBuf) - inflight
		if unsent <= 0 {
			break
		}
		room := c.effectiveWindow() - inflight
		if room <= 0 {
			// Window closed with data pending: keep the timer running
			// as a probe so a lost window update cannot deadlock us.
			if c.rexmt == nil {
				c.startRexmt()
			}
			return
		}
		n := unsent
		if n > mss {
			n = mss
		}
		if n > room {
			n = room
		}
		payload := c.sendBuf[inflight : inflight+n]
		c.sendData(c.sndNxt, payload, true)
		if !c.timing && c.cfg.Mode == RTOAdaptive {
			c.timing, c.timedSeq, c.timedAt = true, c.sndNxt, c.proto.sched.Now()
		}
		c.sndNxt += uint32(n)
		c.Stats.BytesSent += uint64(n)
		if c.rexmt == nil {
			c.startRexmt()
		}
	}
	// All data sent; emit FIN if a close is pending.
	if c.finQd && !c.finSent {
		inflight := int(c.sndNxt - c.sndUna)
		if inflight == len(c.sendBuf) {
			c.finSeq = c.sndNxt
			c.sendFIN()
			c.sndNxt++
			c.finSent = true
			switch c.state {
			case StateEstablished:
				c.state = StateFinWait1
			case StateCloseWait:
				c.state = StateLastAck
			}
			if c.rexmt == nil {
				c.startRexmt()
			}
		}
	}
}

func (c *Conn) sendData(seq uint32, payload []byte, _ bool) {
	seg := &Segment{
		SrcPort: c.key.localPort, DstPort: c.key.remotePort,
		Seq: seq, Ack: c.rcvNxt, Flags: FlagACK | FlagPSH,
		Window: c.advertisedWindow(), Payload: payload,
	}
	c.Stats.SegsSent++
	c.proto.transmit(c.key, seg)
}

func (c *Conn) sendFIN() {
	seg := &Segment{
		SrcPort: c.key.localPort, DstPort: c.key.remotePort,
		Seq: c.finSeq, Ack: c.rcvNxt, Flags: FlagACK | FlagFIN,
		Window: c.advertisedWindow(),
	}
	c.Stats.SegsSent++
	c.proto.transmit(c.key, seg)
}

func (c *Conn) sendAck() {
	seg := &Segment{
		SrcPort: c.key.localPort, DstPort: c.key.remotePort,
		Seq: c.sndNxt, Ack: c.rcvNxt, Flags: FlagACK,
		Window: c.advertisedWindow(),
	}
	c.Stats.SegsSent++
	c.proto.transmit(c.key, seg)
}

// --- Teardown -------------------------------------------------------------

func (c *Conn) enterTimeWait() {
	c.state = StateTimeWait
	c.stopRexmt()
	if c.timewait != nil {
		c.proto.sched.Cancel(c.timewait)
	}
	c.timewait = c.proto.sched.After(2*MSL, func() { c.teardown(nil) })
}

func (c *Conn) teardown(err error) {
	if c.closed {
		return
	}
	c.closed = true
	c.err = err
	c.state = StateClosed
	if c.synPending {
		c.synPending = false
		if c.listener != nil && c.listener.OnSynDone != nil {
			c.listener.OnSynDone(false)
		}
	}
	c.stopRexmt()
	if c.timewait != nil {
		c.proto.sched.Cancel(c.timewait)
		c.timewait = nil
	}
	c.proto.remove(c)
	if c.OnClose != nil {
		c.OnClose(err)
	}
}
