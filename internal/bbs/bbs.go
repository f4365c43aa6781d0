// Package bbs implements the packet bulletin board of the paper's §1:
// "some users connected their TNCs to computers on which they ran
// packet bulletin board software ... Users with terminals were able to
// leave messages and read messages ... The BBSs would forward mail to
// other BBSs for non-local users using packet radio."
//
// The board speaks AX.25 connected mode with the classic W0RLI-style
// command set (L list, R read, S send, K kill, B bye) and can forward
// non-local mail either to another BBS over AX.25 or onto the Internet
// through the application gateway's SMTP relay.
package bbs

import (
	"fmt"
	"strconv"
	"strings"

	"packetradio/internal/ax25"
	"packetradio/internal/radio"
	"packetradio/internal/sim"
	"packetradio/internal/socket"
)

// Message is one stored bulletin or personal message.
type Message struct {
	Num     int
	From    string
	To      string
	Subject string
	Body    string
	Held    bool // awaiting forwarding
}

// Forwarder relays a non-local message; it reports whether it took
// responsibility for delivery.
type Forwarder func(m Message) bool

// Board is one BBS station: a computer plus TNC modelled as a direct
// channel attachment.
type Board struct {
	Call ax25.Addr

	// HomeUsers are callsigns whose mail is held locally; mail for
	// anyone else is offered to Forward.
	HomeUsers map[string]bool
	// Forward, when set, handles non-local mail (e.g. SMTP via the
	// application gateway, or another BBS).
	Forward Forwarder

	Stats struct {
		Sessions  uint64
		Stored    uint64
		Read      uint64
		Killed    uint64
		Forwarded uint64
	}

	sched    *sim.Scheduler
	ep       *ax25.Endpoint
	rf       *radio.Transceiver
	messages []*Message
	nextNum  int
}

// New attaches a board to a radio channel.
func New(sched *sim.Scheduler, ch *radio.Channel, call string) *Board {
	b := &Board{
		Call:      ax25.MustAddr(call),
		HomeUsers: make(map[string]bool),
		sched:     sched,
		nextNum:   1,
	}
	b.rf = ch.Attach(call, radio.DefaultParams())
	b.ep = ax25.NewEndpoint(sched, b.Call, b.xmit)
	b.ep.Accept = b.accept
	b.rf.SetReceiver(b.fromRadio)
	return b
}

// Messages exposes the store (tests, stats).
func (b *Board) Messages() []*Message { return b.messages }

// Post inserts a message directly (used by forwarding peers).
func (b *Board) Post(from, to, subject, body string) *Message {
	m := &Message{Num: b.nextNum, From: from, To: to, Subject: subject, Body: body}
	b.nextNum++
	b.messages = append(b.messages, m)
	b.Stats.Stored++
	if b.Forward != nil && !b.HomeUsers[strings.ToUpper(to)] && !strings.EqualFold(to, "ALL") {
		if b.Forward(*m) {
			b.Stats.Forwarded++
			m.Held = false
			b.kill(m.Num)
		}
	}
	return m
}

func (b *Board) xmit(f *ax25.Frame) {
	enc, err := f.Encode(nil)
	if err != nil {
		return
	}
	b.rf.Send(ax25.AppendFCS(enc))
}

func (b *Board) fromRadio(framed []byte, memo *any, damaged bool) {
	f := ax25.Judge(memo, framed, damaged).Frame
	if f == nil || f.Dst != b.Call || f.NextDigi() >= 0 {
		return
	}
	b.ep.Input(f)
}

type session struct {
	board *Board
	conn  *ax25.Conn
	fr    socket.Framer // line assembly shared with the TCP services

	// Composition state.
	composing bool
	needSubj  bool
	to        string
	subject   string
	body      strings.Builder
}

func (b *Board) accept(c *ax25.Conn) bool {
	b.Stats.Sessions++
	s := &session{board: b, conn: c}
	s.fr.OnLine = s.handle
	c.OnData = s.fr.Push
	c.OnState = func(st ax25.ConnState) {
		if st == ax25.StateConnected {
			s.printf("[UWBBS-1.0]\rWelcome %s to the UW packet BBS\r", c.Remote)
			s.prompt()
		}
		if st == ax25.StateDisconnected {
			b.ep.Remove(c.Remote)
		}
	}
	return true
}

func (s *session) printf(format string, args ...any) {
	s.conn.Send([]byte(fmt.Sprintf(format, args...)))
}

func (s *session) prompt() { s.printf(">\r") }

// setComposing flips body-verbatim mode: while composing, empty lines
// are part of the message (the framer must deliver them) and lines
// are not trimmed.
func (s *session) setComposing(on bool) {
	s.composing = on
	s.fr.KeepEmpty = on
}

func (s *session) handle(line string) {
	if !s.composing {
		line = strings.TrimSpace(line)
		if line == "" {
			return
		}
	}
	s.dispatch(line)
}

func (s *session) dispatch(line string) {
	b := s.board
	if s.needSubj {
		s.subject = line
		s.needSubj = false
		s.setComposing(true)
		s.printf("Enter message, end with ^Z or '.' alone\r")
		return
	}
	if s.composing {
		if line == "." || line == "\x1a" {
			s.setComposing(false)
			m := b.Post(s.conn.Remote.String(), s.to, s.subject, s.body.String())
			s.body.Reset()
			s.printf("Msg %d stored\r", m.Num)
			s.prompt()
			return
		}
		s.body.WriteString(line)
		s.body.WriteString("\n")
		return
	}

	fields := strings.Fields(line)
	cmd := strings.ToUpper(fields[0])
	switch cmd {
	case "L": // list
		n := 0
		for _, m := range b.messages {
			s.printf("%3d %-6s %-6s %s\r", m.Num, m.From, m.To, m.Subject)
			n++
		}
		if n == 0 {
			s.printf("No messages\r")
		}
	case "R": // read n
		if len(fields) < 2 {
			s.printf("R <msg#>\r")
			break
		}
		num, _ := strconv.Atoi(fields[1])
		m := b.find(num)
		if m == nil {
			s.printf("No such message\r")
			break
		}
		b.Stats.Read++
		s.printf("From: %s\rTo: %s\rSubject: %s\r\r%s\r", m.From, m.To, m.Subject, m.Body)
	case "S": // send <call>
		if len(fields) < 2 {
			s.printf("S <callsign>\r")
			break
		}
		s.to = strings.ToUpper(fields[1])
		s.needSubj = true
		s.printf("Subject:\r")
		return
	case "K": // kill n
		if len(fields) < 2 {
			s.printf("K <msg#>\r")
			break
		}
		num, _ := strconv.Atoi(fields[1])
		if b.kill(num) {
			b.Stats.Killed++
			s.printf("Msg %d killed\r", num)
		} else {
			s.printf("No such message\r")
		}
	case "B": // bye
		s.printf("73 de %s\r", b.Call)
		s.conn.Disconnect()
		return
	default:
		s.printf("?Commands: L, R n, S call, K n, B\r")
	}
	s.prompt()
}

func (b *Board) find(num int) *Message {
	for _, m := range b.messages {
		if m.Num == num {
			return m
		}
	}
	return nil
}

func (b *Board) kill(num int) bool {
	for i, m := range b.messages {
		if m.Num == num {
			b.messages = append(b.messages[:i], b.messages[i+1:]...)
			return true
		}
	}
	return false
}
