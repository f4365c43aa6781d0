package obs

import (
	"encoding/json"
	"fmt"
	"io"

	"packetradio/internal/sim"
)

// FlightEvent is one entry in the flight recorder: a timestamped,
// categorized instant (a scheduler event firing, a MAC transition, a
// DAMA protocol step).
type FlightEvent struct {
	T    sim.Time
	Cat  string // "sched", "mac", "dama", ...
	Name string
	Arg  string
}

// FlightRecorder is a bounded ring of recent events — the post-mortem
// instrument: always cheap enough to leave running, dumped on test
// failure or on demand. All methods are nil-safe so call sites can
// hold a recorder pointer that is nil when recording is off.
type FlightRecorder struct {
	buf     []FlightEvent
	next    int
	full    bool
	dropped uint64
}

// DefaultFlightCap is the default ring capacity: enough for several
// seconds of a saturated channel's scheduler activity.
const DefaultFlightCap = 4096

// NewFlightRecorder builds a recorder holding the last capacity
// events (<=0 takes DefaultFlightCap).
func NewFlightRecorder(capacity int) *FlightRecorder {
	if capacity <= 0 {
		capacity = DefaultFlightCap
	}
	return &FlightRecorder{buf: make([]FlightEvent, capacity)}
}

// Record appends one event, overwriting the oldest when full.
func (fr *FlightRecorder) Record(t sim.Time, cat, name, arg string) {
	if fr == nil {
		return
	}
	if fr.full {
		fr.dropped++
	}
	fr.buf[fr.next] = FlightEvent{T: t, Cat: cat, Name: name, Arg: arg}
	fr.next++
	if fr.next == len(fr.buf) {
		fr.next = 0
		fr.full = true
	}
}

// SchedHook adapts the recorder to sim.Scheduler.EventHook: every
// fired event becomes a "sched" entry (named events keep their name).
func (fr *FlightRecorder) SchedHook() func(t sim.Time, name string) {
	return func(t sim.Time, name string) {
		if name == "" {
			name = "event"
		}
		fr.Record(t, "sched", name, "")
	}
}

// Len reports how many events are held.
func (fr *FlightRecorder) Len() int {
	if fr == nil {
		return 0
	}
	if fr.full {
		return len(fr.buf)
	}
	return fr.next
}

// Dropped reports how many events were overwritten.
func (fr *FlightRecorder) Dropped() uint64 {
	if fr == nil {
		return 0
	}
	return fr.dropped
}

// Events returns the held events oldest-first.
func (fr *FlightRecorder) Events() []FlightEvent {
	if fr == nil {
		return nil
	}
	if !fr.full {
		return append([]FlightEvent(nil), fr.buf[:fr.next]...)
	}
	out := make([]FlightEvent, 0, len(fr.buf))
	out = append(out, fr.buf[fr.next:]...)
	return append(out, fr.buf[:fr.next]...)
}

// traceEvent is the Chrome trace_event JSON shape: "i" instants for
// flight-recorder entries, "X" complete events for tracer spans, and
// "s"/"t"/"f" flow events stitching a packet journey's spans into one
// connected arc.
type traceEvent struct {
	Name  string            `json:"name"`
	Cat   string            `json:"cat"`
	Phase string            `json:"ph"`
	TS    float64           `json:"ts"` // microseconds
	Dur   float64           `json:"dur,omitempty"`
	PID   int               `json:"pid"`
	TID   int               `json:"tid"`
	ID    string            `json:"id,omitempty"` // flow-event binding id
	BP    string            `json:"bp,omitempty"`
	Scope string            `json:"s,omitempty"`
	Args  map[string]string `json:"args,omitempty"`
}

// instant renders a flight-recorder entry as a trace_event instant.
func instant(e *FlightEvent, pid, tid int) traceEvent {
	te := traceEvent{
		Name: e.Name, Cat: e.Cat, Phase: "i", Scope: "t",
		TS:  float64(e.T.Duration().Microseconds()),
		PID: pid, TID: tid,
	}
	if e.Arg != "" {
		te.Args = map[string]string{"arg": e.Arg}
	}
	return te
}

// writeJSONLine writes v as one line of JSON.
func writeJSONLine(w io.Writer, v any) error {
	buf, err := json.Marshal(v)
	if err != nil {
		return err
	}
	_, err = w.Write(append(buf, '\n'))
	return err
}

// MultiRecorder aggregates per-lane flight recorders into one
// instrument — the sharded engine's recorder (one lane per shard, each
// written only by its shard's goroutine, so recording needs no locks)
// and, degenerately, the single-loop engine's (one lane). Reading —
// Len, Events, WriteTrace, Dump — merges the lanes by (virtual time,
// lane) with sim.MergeLanes; call only with no run in flight.
type MultiRecorder struct {
	lanes sim.Lanes[*FlightRecorder]

	// spanSource, when set (SetSpanSource), contributes the packet
	// tracer's span stream to WriteTrace.
	spanSource func() []Span
}

// SetSpanSource attaches a span stream (Tracer.Spans) to the recorder:
// WriteTrace renders each trace's spans as complete events in a
// "packet journeys" process, one row per trace, connected by flow
// events so a journey reads as one arc across the timeline.
func (m *MultiRecorder) SetSpanSource(fn func() []Span) { m.spanSource = fn }

// NewMultiRecorder builds an empty recorder; add lanes with Lane.
func NewMultiRecorder() *MultiRecorder { return &MultiRecorder{} }

// Lane creates (or returns) the named lane's ring with the given
// capacity (<=0 takes DefaultFlightCap; the capacity of an existing
// lane is not changed).
func (m *MultiRecorder) Lane(name string, capacity int) *FlightRecorder {
	return m.lanes.Lane(name, func() *FlightRecorder { return NewFlightRecorder(capacity) })
}

// Len sums held events across lanes.
func (m *MultiRecorder) Len() int {
	n := 0
	for _, fr := range m.lanes.All() {
		n += fr.Len()
	}
	return n
}

// Dropped sums overwritten events across lanes.
func (m *MultiRecorder) Dropped() uint64 {
	var n uint64
	for _, fr := range m.lanes.All() {
		n += fr.Dropped()
	}
	return n
}

// merged visits every lane's held events by (virtual time, lane).
func (m *MultiRecorder) merged(visit func(lane int, ev *FlightEvent)) {
	sim.MergeLanes(m.lanes.All(), (*FlightRecorder).Events,
		func(ev *FlightEvent) sim.Time { return ev.T }, visit)
}

// Events returns all lanes' events merged oldest-first.
func (m *MultiRecorder) Events() []FlightEvent {
	out := make([]FlightEvent, 0, m.Len())
	m.merged(func(_ int, ev *FlightEvent) { out = append(out, *ev) })
	return out
}

// WriteTrace dumps all lanes as one Chrome trace_event JSON timeline:
// one process per lane (named via process_name metadata, so a sharded
// run renders one swimlane group per shard), one thread per category
// within it, every event stamped with virtual-time microseconds and
// ordered by virtual time — a parallel run's trace reads exactly like
// a sequential one's.
func (m *MultiRecorder) WriteTrace(w io.Writer) error {
	out := struct {
		TraceEvents []traceEvent `json:"traceEvents"`
	}{}
	for i, name := range m.lanes.Names() {
		out.TraceEvents = append(out.TraceEvents, traceEvent{
			Name: "process_name", Phase: "M", PID: i + 1,
			Args: map[string]string{"name": name},
		})
	}
	type laneCat struct {
		lane int
		cat  string
	}
	tids := map[laneCat]int{}
	m.merged(func(lane int, ev *FlightEvent) {
		key := laneCat{lane, ev.Cat}
		tid, ok := tids[key]
		if !ok {
			tid = len(tids) + 1
			tids[key] = tid
		}
		out.TraceEvents = append(out.TraceEvents, instant(ev, lane+1, tid))
	})
	if m.spanSource != nil {
		spanPID := len(m.lanes.Names()) + 1
		out.TraceEvents = append(out.TraceEvents, traceEvent{
			Name: "process_name", Phase: "M", PID: spanPID,
			Args: map[string]string{"name": "packet journeys"},
		})
		spans := m.spanSource()
		tids := map[TraceID]int{}
		counts := map[TraceID]int{}
		for _, s := range spans {
			counts[s.ID]++
		}
		seen := map[TraceID]int{}
		for _, s := range spans {
			tid, ok := tids[s.ID]
			if !ok {
				tid = len(tids) + 1
				tids[s.ID] = tid
			}
			id := fmt.Sprintf("trace-%d", tid)
			args := map[string]string{"trace": s.ID.String(), "who": s.Who}
			if s.Arg != "" {
				args["arg"] = s.Arg
			}
			out.TraceEvents = append(out.TraceEvents, traceEvent{
				Name: s.Stage, Cat: "span", Phase: "X",
				TS:  float64(s.Start.Duration().Microseconds()),
				Dur: float64(s.Duration().Microseconds()),
				PID: spanPID, TID: tid, Args: args,
			})
			// The flow arc: start at the first span, step through the
			// middle ones, finish (binding to the enclosing slice) at
			// the last.
			seen[s.ID]++
			fe := traceEvent{
				Name: "journey", Cat: "span", Phase: "t",
				TS:  float64(s.Start.Duration().Microseconds()),
				PID: spanPID, TID: tid, ID: id,
			}
			switch seen[s.ID] {
			case 1:
				fe.Phase = "s"
			case counts[s.ID]:
				fe.Phase = "f"
				fe.BP = "e"
				fe.TS = float64(s.End.Duration().Microseconds())
			}
			out.TraceEvents = append(out.TraceEvents, fe)
		}
	}
	return writeJSONLine(w, out)
}

// Dump writes all lanes merged as plain text, one line per event.
func (m *MultiRecorder) Dump(w io.Writer) {
	names := m.lanes.Names()
	m.merged(func(lane int, ev *FlightEvent) {
		if ev.Arg != "" {
			fmt.Fprintf(w, "%12.6f %-8s %-6s %s %s\n", ev.T.Seconds(), names[lane], ev.Cat, ev.Name, ev.Arg)
		} else {
			fmt.Fprintf(w, "%12.6f %-8s %-6s %s\n", ev.T.Seconds(), names[lane], ev.Cat, ev.Name)
		}
	})
	if d := m.Dropped(); d > 0 {
		fmt.Fprintf(w, "(%d earlier events overwritten)\n", d)
	}
}
