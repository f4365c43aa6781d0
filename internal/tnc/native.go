package tnc

import (
	"fmt"
	"strings"

	"packetradio/internal/ax25"
	"packetradio/internal/radio"
	"packetradio/internal/serial"
	"packetradio/internal/sim"
)

// Native is the TNC's ROM firmware: the command interpreter and
// built-in AX.25 connected mode that terminal users drive. "Stations
// consist of a radio transceiver connected to a terminal or a computer
// by means of a ... TNC. [It] provides a command interpreter, and has a
// primitive network layer protocol for use with terminals unable to
// support this layer on their own."
//
// The interpreter understands the core TAPR-style commands:
//
//	MYCALL <call>        set the station callsign
//	CONNECT <call> [VIA d1,d2,...]
//	DISCONNECT
//	CONVERSE | K         enter converse mode (data flows to the link)
//	MONITOR ON|OFF       show overheard frames while in command mode
//	DIGIPEAT ON|OFF      repeat frames source-routed through MYCALL
//
// A Ctrl-C (0x03) byte returns from converse to command mode.
type Native struct {
	MyCall   ax25.Addr
	Monitor  bool
	Digipeat bool

	Stats struct {
		Commands  uint64
		Connects  uint64
		Repeated  uint64
		CRCErrors uint64
		Monitored uint64
	}

	sched *sim.Scheduler
	host  *serial.End
	rf    *radio.Transceiver
	ep    *ax25.Endpoint

	converse bool
	line     []byte
	conn     *ax25.Conn
}

// NewNative builds a ROM-firmware TNC.
func NewNative(sched *sim.Scheduler, host *serial.End, rf *radio.Transceiver, mycall ax25.Addr) *Native {
	n := &Native{MyCall: mycall, sched: sched, host: host, rf: rf}
	n.ep = ax25.NewEndpoint(sched, mycall, n.xmit)
	n.ep.Accept = n.accept
	host.SetReceiver(n.fromHost)
	rf.SetReceiver(n.fromRadio)
	n.prompt()
	return n
}

// Endpoint exposes the AX.25 endpoint (tests and the BBS use it).
func (n *Native) Endpoint() *ax25.Endpoint { return n.ep }

func (n *Native) xmit(f *ax25.Frame) {
	enc, err := f.Encode(nil)
	if err != nil {
		return
	}
	n.rf.Send(ax25.AppendFCS(enc))
}

func (n *Native) print(format string, args ...any) {
	n.host.Write([]byte(fmt.Sprintf(format, args...)))
}

func (n *Native) prompt() { n.print("cmd:") }

func (n *Native) accept(c *ax25.Conn) bool {
	if n.conn != nil && n.conn.State() != ax25.StateDisconnected {
		return false // single-connection firmware
	}
	n.adopt(c)
	return true
}

func (n *Native) adopt(c *ax25.Conn) {
	n.conn = c
	c.OnData = func(p []byte) { n.host.Write(p) }
	c.OnState = func(s ax25.ConnState) {
		switch s {
		case ax25.StateConnected:
			n.Stats.Connects++
			n.print("*** CONNECTED to %s\r\n", c.Remote)
			n.converse = true
		case ax25.StateDisconnected:
			if err := c.Err(); err != nil {
				n.print("*** DISCONNECTED (%v)\r\n", err)
			} else {
				n.print("*** DISCONNECTED\r\n")
			}
			n.converse = false
			n.ep.Remove(c.Remote)
			n.conn = nil
			n.prompt()
		}
	}
}

func (n *Native) fromHost(b byte) {
	if b == 0x03 { // Ctrl-C: escape to command mode
		if n.converse {
			n.converse = false
			n.prompt()
		}
		n.line = n.line[:0]
		return
	}
	if n.converse {
		n.line = append(n.line, b)
		if b == '\r' || b == '\n' {
			if n.conn != nil && n.conn.State() == ax25.StateConnected {
				n.conn.Send(n.line)
			}
			n.line = n.line[:0]
		}
		return
	}
	if b == '\r' || b == '\n' {
		line := strings.TrimSpace(string(n.line))
		n.line = n.line[:0]
		if line != "" {
			n.command(line)
		}
		return
	}
	n.line = append(n.line, b)
}

func (n *Native) command(line string) {
	n.Stats.Commands++
	fields := strings.Fields(strings.ToUpper(line))
	cmd := fields[0]
	arg := ""
	if len(fields) > 1 {
		arg = fields[1]
	}
	switch cmd {
	case "MYCALL":
		if arg == "" {
			n.print("MYCALL %s\r\n", n.MyCall)
			break
		}
		call, err := ax25.NewAddr(arg)
		if err != nil {
			n.print("?bad callsign\r\n")
			break
		}
		n.MyCall = call
		n.ep.Local = call
	case "CONNECT", "C":
		if arg == "" {
			n.print("?need callsign\r\n")
			break
		}
		dest, err := ax25.NewAddr(arg)
		if err != nil {
			n.print("?bad callsign\r\n")
			break
		}
		var via []ax25.Addr
		if len(fields) >= 4 && fields[2] == "VIA" {
			for _, v := range strings.Split(fields[3], ",") {
				a, err := ax25.NewAddr(v)
				if err != nil {
					n.print("?bad digipeater %s\r\n", v)
					return
				}
				via = append(via, a)
			}
		}
		c := n.ep.Dial(dest, via...)
		n.adopt(c)
		n.print("*** connecting to %s\r\n", dest)
	case "DISCONNECT", "D":
		if n.conn != nil {
			n.conn.Disconnect()
		}
	case "CONVERSE", "K":
		if n.conn != nil && n.conn.State() == ax25.StateConnected {
			n.converse = true
		} else {
			n.print("?not connected\r\n")
		}
	case "MONITOR":
		n.Monitor = arg == "ON"
	case "DIGIPEAT":
		n.Digipeat = arg == "ON"
	default:
		n.print("?eh\r\n")
	}
	if !n.converse {
		n.prompt()
	}
}

func (n *Native) fromRadio(framed []byte, memo *any, damaged bool) {
	v := ax25.Judge(memo, framed, damaged)
	if !v.OK {
		n.Stats.CRCErrors++
		return
	}
	f := v.Frame
	if f == nil {
		return
	}
	// Digipeat first: the frame may be routed through us.
	if i := f.NextDigi(); i >= 0 {
		if n.Digipeat && f.Digi[i].Addr == n.MyCall {
			g := f.Clone()
			g.Digi[i].Repeated = true
			if enc, err := g.Encode(nil); err == nil {
				n.Stats.Repeated++
				n.rf.Send(ax25.AppendFCS(enc))
			}
		}
		return // not at large yet: ignore for local delivery
	}
	if f.Dst == n.MyCall {
		n.ep.Input(f)
		return
	}
	if n.Monitor && !n.converse {
		n.Stats.Monitored++
		n.print("%s\r\n", f)
	}
}
