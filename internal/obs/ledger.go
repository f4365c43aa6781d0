package obs

import (
	"fmt"
	"io"
	"sort"

	"packetradio/internal/ip"
)

// PingLedger accounts for every echo request a world sends: each ping
// is tracked by (station address, icmp id, icmp seq) through a ladder
// of stages — request leaves the station's stack, crosses the air,
// is forwarded by the gateway, arrives at the server, and the reply
// walks the same path back. Loss events (a collision on the air, a
// queue overflow in a driver) pin a terminal reason on the ping they
// carried; anything still mid-ladder when the run ends is reported as
// pending at its last stage. The invariant the experiments assert:
//
//	delivered + sum(undelivered fates) == pings sent
//
// so an E16-style saturation run can say exactly where every lost
// probe died instead of just reporting a delivery ratio.
//
// The ledger is a fold over the world's packet journal (journal.go):
// it reads the echo crossings and losses, in an order that is the same
// on the single-loop and sharded engines at any worker count — the
// equality the shard equivalence suite gates.
type PingLedger struct {
	j         *Journal
	recs      map[pingKey]*pingRec
	sent      int
	delivered int
}

type pingKey struct {
	station ip.Addr
	id, seq uint16
}

type pingRec struct {
	stage int
	fate  string // terminal loss reason; "" while in flight
}

// The stage ladder. A ping only moves forward; duplicate sightings of
// the same stage are no-ops.
const (
	stNone       = iota
	stReqSent    // station stack emitted the request
	stReqAir     // request crossed the air to the gateway
	stReqFwd     // gateway forwarded it toward the server
	stReqArrived // server stack accepted the request
	stRepSent    // server emitted the reply
	stRepFwd     // gateway forwarded the reply
	stRepAir     // reply crossed the air to the station
	stDelivered  // station stack accepted the reply
)

var stageNames = map[int]string{
	stReqSent:    "pending: req in station queue",
	stReqAir:     "pending: req at gateway",
	stReqFwd:     "pending: req to server",
	stReqArrived: "pending: req at server",
	stRepSent:    "pending: rep to gateway",
	stRepFwd:     "pending: rep in gateway queue",
	stRepAir:     "pending: rep at station",
}

// ladder maps a crossing point to the stage it moves a ping to, for
// the request leg and the reply leg; points it leaves out move nothing.
var ladder = [...][2]int{
	PtOrigin: {stReqSent, stRepSent},
	PtAirRx:  {stReqAir, stRepAir},
	PtFwd:    {stReqFwd, stRepFwd},
	PtArrive: {stReqArrived, stDelivered},
}

// NewPingLedger builds an empty ledger folding j's echo crossings from
// now on.
func NewPingLedger(j *Journal) *PingLedger {
	l := &PingLedger{j: j, recs: make(map[pingKey]*pingRec)}
	j.addFold(l.fold)
	return l
}

// fold steps one echo's ladder: a request's origin creates its record,
// later crossings advance it, and the first loss before delivery pins
// its fate. The key is the echo's trace identity without the pinged
// host; leg is 0 on the request, 1 on the reply.
func (l *PingLedger) fold(c *crossing) {
	if c.id.Proto != ip.ProtoICMP {
		return
	}
	k := pingKey{c.id.A, c.id.ID, c.id.Seq}
	base, leg := c.point&^ptReply, c.point/ptReply
	r := l.recs[k]
	switch {
	case base == PtLoss:
		if r != nil && r.stage != stDelivered && r.fate == "" {
			r.fate = [2]string{"req: ", "rep: "}[leg] + c.arg
		}
	case int(base) < len(ladder) && ladder[base][leg] != stNone:
		stage := ladder[base][leg]
		if r == nil {
			if stage != stReqSent {
				return // untracked: its request left before the ledger
			}
			r = &pingRec{}
			l.recs[k] = r
			l.sent++
		}
		if stage > r.stage {
			r.stage = stage
			if stage == stDelivered {
				l.delivered++
			}
		}
	}
}

// Sent reports how many pings the ledger saw leave a station.
func (l *PingLedger) Sent() int { l.j.Flush(); return l.sent }

// Delivered reports how many replies made it back.
func (l *PingLedger) Delivered() int { l.j.Flush(); return l.delivered }

// Fates classifies every tracked ping: "delivered", a terminal loss
// reason, or "pending: ..." for pings still mid-ladder. The counts
// always sum to Sent().
func (l *PingLedger) Fates() map[string]int {
	l.j.Flush()
	out := make(map[string]int)
	for _, r := range l.recs {
		switch {
		case r.stage == stDelivered:
			out["delivered"]++
		case r.fate != "":
			out[r.fate]++
		default:
			out[stageNames[r.stage]]++
		}
	}
	return out
}

// WriteFates prints the fate table, most common first.
func (l *PingLedger) WriteFates(w io.Writer) {
	fates := l.Fates()
	names := make([]string, 0, len(fates))
	for n := range fates {
		names = append(names, n)
	}
	sort.Slice(names, func(i, j int) bool {
		if fates[names[i]] != fates[names[j]] {
			return fates[names[i]] > fates[names[j]]
		}
		return names[i] < names[j]
	})
	for _, n := range names {
		fmt.Fprintf(w, "%6d  %s\n", fates[n], n)
	}
}
