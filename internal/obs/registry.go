// Package obs is the virtual-clock observability layer: a unified
// metrics registry over the per-package counters, pcap capture at the
// KISS and IP seams, a bounded flight recorder for scheduler and MAC
// events, and the ping ledger that accounts for every undelivered
// probe by drop reason. Everything here is read-side: the substrate
// packages keep their plain struct counters (incremented as cheaply as
// before), and the registry holds pointers to them, so attaching
// observability to a world never changes its event schedule, its RNG
// draws, or its hot-path allocation profile — the overhead-when-
// disabled contract DESIGN.md §3e pins down.
package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"reflect"
	"sort"
	"strings"
	"time"

	"packetradio/internal/sim"
)

// Histogram is a fixed-bucket distribution. Bounds are upper edges;
// one overflow bucket catches everything past the last bound.
type Histogram struct {
	bounds []float64
	counts []uint64
	total  uint64
	sum    float64
}

// NewHistogram builds a histogram with the given ascending upper
// bounds.
func NewHistogram(bounds []float64) *Histogram {
	b := append([]float64(nil), bounds...)
	sort.Float64s(b)
	return &Histogram{bounds: b, counts: make([]uint64, len(b)+1)}
}

// Observe records one sample.
func (h *Histogram) Observe(v float64) {
	i := sort.SearchFloat64s(h.bounds, v)
	h.counts[i]++
	h.total++
	h.sum += v
}

// Count reports the number of samples.
func (h *Histogram) Count() uint64 { return h.total }

// Reset discards every sample, keeping the bucket layout — for
// instruments that republish a freshly-aggregated distribution (the
// tracer's Breakdown.Register) instead of observing incrementally.
func (h *Histogram) Reset() {
	for i := range h.counts {
		h.counts[i] = 0
	}
	h.total, h.sum = 0, 0
}

// Mean reports the sample mean (0 when empty).
func (h *Histogram) Mean() float64 {
	if h.total == 0 {
		return 0
	}
	return h.sum / float64(h.total)
}

// Buckets returns (upper bound, count) pairs; the final pair has
// bound +Inf semantics and is reported with bound 0 and ok=false via
// the bounds slice length.
func (h *Histogram) Buckets() ([]float64, []uint64) {
	return append([]float64(nil), h.bounds...), append([]uint64(nil), h.counts...)
}

// Quantile estimates the q-quantile (0..1) assuming samples sit at
// their bucket's upper bound — coarse, but stable for reporting.
func (h *Histogram) Quantile(q float64) float64 {
	if h.total == 0 {
		return 0
	}
	target := uint64(q * float64(h.total))
	var acc uint64
	for i, c := range h.counts {
		acc += c
		if acc > target {
			if i < len(h.bounds) {
				return h.bounds[i]
			}
			return h.bounds[len(h.bounds)-1] // overflow bucket: clamp
		}
	}
	return h.bounds[len(h.bounds)-1]
}

// entry is one registered metric: a name plus a way to read it.
type entry struct {
	name string
	read func() float64
	hist *Histogram
}

// Registry maps hierarchical dotted names (radio.145_01.collisions,
// host.gw1.ip.forwarded) onto live values. Registration stores a
// pointer or closure; reads always reflect the current value, so one
// registry built at world-construction time serves every later
// snapshot.
type Registry struct {
	entries []entry
	names   map[string]int
	labels  map[string]string

	// Sampling state: column layout frozen at StartSampling.
	cols []string
	rows []sampleRow
}

type sampleRow struct {
	t      sim.Time
	values []float64
}

// NewRegistry builds an empty registry.
func NewRegistry() *Registry { return &Registry{names: make(map[string]int)} }

func (r *Registry) add(name string, e entry) {
	if i, ok := r.names[name]; ok {
		r.entries[i] = e // re-registration replaces (world rebuilds)
		return
	}
	r.names[name] = len(r.entries)
	r.entries = append(r.entries, e)
}

// RegisterUint64 registers a live view over an existing counter field.
func (r *Registry) RegisterUint64(name string, p *uint64) {
	r.add(name, entry{name: name, read: func() float64 { return float64(*p) }})
}

// RegisterDuration registers a duration field, read in seconds.
func (r *Registry) RegisterDuration(name string, p *time.Duration) {
	r.add(name, entry{name: name, read: func() float64 { return p.Seconds() }})
}

// RegisterFunc registers a computed metric.
func (r *Registry) RegisterFunc(name string, f func() float64) {
	r.add(name, entry{name: name, read: f})
}

// Histogram creates (or returns) a named fixed-bucket histogram. Its
// registry entry reads the sample count; WriteJSON adds the buckets.
func (r *Registry) Histogram(name string, bounds []float64) *Histogram {
	if i, ok := r.names[name]; ok && r.entries[i].hist != nil {
		return r.entries[i].hist
	}
	h := NewHistogram(bounds)
	r.add(name, entry{name: name, read: func() float64 { return float64(h.Count()) }, hist: h})
	return h
}

// HistogramFor returns the named registered histogram, if the name is
// registered and is a histogram — the accessor WriteText's percentile
// summaries read through.
func (r *Registry) HistogramFor(name string) (*Histogram, bool) {
	if i, ok := r.names[name]; ok && r.entries[i].hist != nil {
		return r.entries[i].hist, true
	}
	return nil, false
}

// RegisterStruct registers every uint64 and time.Duration field of the
// struct p points at, under prefix.snake_case_field_name (durations in
// seconds). This is how the per-package stats structs — radio.TxStats,
// core.DriverStats, ipstack.Stats, dama.Stats and friends — migrate
// onto the registry wholesale: the structs stay the write-side (plain
// increments, no registry on the hot path), and one call here makes
// them the read-side. Reflection runs once at registration; reads go
// through captured field pointers.
func (r *Registry) RegisterStruct(prefix string, p any) {
	v := reflect.ValueOf(p)
	if v.Kind() != reflect.Pointer || v.Elem().Kind() != reflect.Struct {
		panic("obs: RegisterStruct wants a pointer to struct")
	}
	v = v.Elem()
	t := v.Type()
	for i := 0; i < t.NumField(); i++ {
		f := t.Field(i)
		if !f.IsExported() {
			continue
		}
		name := prefix + "." + snakeCase(f.Name)
		switch {
		case f.Type.Kind() == reflect.Uint64:
			r.RegisterUint64(name, v.Field(i).Addr().Interface().(*uint64))
		case f.Type == reflect.TypeOf(time.Duration(0)):
			r.RegisterDuration(name, v.Field(i).Addr().Interface().(*time.Duration))
		}
	}
}

// snakeCase converts a Go field name (FramesSent, CSMADeferrals,
// IPQDrops) to a metric path segment (frames_sent, csma_deferrals,
// ipq_drops): an underscore lands before each upper→lower boundary
// that starts a new word, runs of capitals stay one word.
func snakeCase(s string) string {
	var b strings.Builder
	rs := []rune(s)
	for i, c := range rs {
		if c >= 'A' && c <= 'Z' {
			// New word at a lower→upper boundary, or at the last
			// capital of a run that is followed by a lowercase letter
			// (the "D" in "CSMADeferrals").
			prevLower := i > 0 && rs[i-1] >= 'a' && rs[i-1] <= 'z'
			runEnd := i > 0 && i+1 < len(rs) && rs[i-1] >= 'A' && rs[i-1] <= 'Z' && rs[i+1] >= 'a' && rs[i+1] <= 'z'
			if prevLower || runEnd {
				b.WriteByte('_')
			}
			b.WriteRune(c - 'A' + 'a')
			continue
		}
		b.WriteRune(c)
	}
	return b.String()
}

// SetLabel attaches a key=value label to the registry as a whole —
// run-level identity like the scenario name and seed, not a metric.
// Labels ride along in WriteJSON (under "_labels") so downstream
// tooling can tell runs apart without parsing file names.
func (r *Registry) SetLabel(key, value string) {
	if r.labels == nil {
		r.labels = make(map[string]string)
	}
	r.labels[key] = value
}

// Sample is one named value in a snapshot.
type Sample struct {
	Name  string
	Value float64
}

// Snapshot reads every metric, sorted by name.
func (r *Registry) Snapshot() []Sample {
	out := make([]Sample, 0, len(r.entries))
	for _, e := range r.entries {
		out = append(out, Sample{Name: e.name, Value: e.read()})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// Value reads one metric by name.
func (r *Registry) Value(name string) (float64, bool) {
	i, ok := r.names[name]
	if !ok {
		return 0, false
	}
	return r.entries[i].read(), true
}

// Len reports the number of registered metrics.
func (r *Registry) Len() int { return len(r.entries) }

// WriteJSON dumps a snapshot as one JSON object, histograms expanded
// with their buckets.
func (r *Registry) WriteJSON(w io.Writer) error {
	obj := make(map[string]any, len(r.entries))
	for _, e := range r.entries {
		if e.hist != nil {
			bounds, counts := e.hist.Buckets()
			obj[e.name] = map[string]any{
				"count": e.hist.Count(), "mean": e.hist.Mean(),
				"bounds": bounds, "buckets": counts,
			}
			continue
		}
		obj[e.name] = e.read()
	}
	if len(r.labels) > 0 {
		obj["_labels"] = r.labels
	}
	buf, err := json.MarshalIndent(obj, "", "  ")
	if err != nil {
		return err
	}
	buf = append(buf, '\n')
	_, err = w.Write(buf)
	return err
}

// WriteText dumps a snapshot as aligned "name value" lines — the
// simulation's `netstat -s` — grouped by the first two name segments
// with a blank line between groups. prefix, when non-empty, restricts
// the listing ("host.pc1", "radio."). A histogram renders as a one-line
// percentile summary (count, mean, p50/p95/p99) instead of its sample
// count.
func (r *Registry) WriteText(w io.Writer, prefix string) {
	snap := r.Snapshot()
	width := 0
	for _, s := range snap {
		if strings.HasPrefix(s.Name, prefix) && len(s.Name) > width {
			width = len(s.Name)
		}
	}
	lastGroup := ""
	for _, s := range snap {
		if !strings.HasPrefix(s.Name, prefix) {
			continue
		}
		group := s.Name
		if i := strings.Index(group, "."); i >= 0 {
			if j := strings.Index(group[i+1:], "."); j >= 0 {
				group = group[:i+1+j]
			}
		}
		if lastGroup != "" && group != lastGroup {
			fmt.Fprintln(w)
		}
		lastGroup = group
		if h, ok := r.HistogramFor(s.Name); ok {
			fmt.Fprintf(w, "%-*s count=%d mean=%s p50=%s p95=%s p99=%s\n",
				width, s.Name, h.Count(), FormatValue(h.Mean()),
				FormatValue(h.Quantile(0.50)), FormatValue(h.Quantile(0.95)), FormatValue(h.Quantile(0.99)))
			continue
		}
		fmt.Fprintf(w, "%-*s %v\n", width, s.Name, FormatValue(s.Value))
	}
}

// FormatValue renders a metric value the way WriteText does: integral
// values without a trailing ".000000", everything else to six
// significant digits.
func FormatValue(v float64) string {
	if v == float64(int64(v)) {
		return fmt.Sprintf("%d", int64(v))
	}
	return fmt.Sprintf("%.6g", v)
}

// StartSampling snapshots every metric each period of virtual time,
// accumulating a time series for WriteCSV. The column set freezes at
// the first call; metrics registered later are not sampled. This is
// the one registry feature that schedules events — leave it off for
// gated runs.
func (r *Registry) StartSampling(sched *sim.Scheduler, period time.Duration) *sim.Ticker {
	if r.cols == nil {
		r.cols = []string{}
		for _, s := range r.Snapshot() {
			r.cols = append(r.cols, s.Name)
		}
	}
	return sched.Every(period, func() { r.sampleRow(sched.Now()) })
}

func (r *Registry) sampleRow(t sim.Time) {
	row := sampleRow{t: t, values: make([]float64, len(r.cols))}
	for i, name := range r.cols {
		if v, ok := r.Value(name); ok {
			row.values[i] = v
		}
	}
	r.rows = append(r.rows, row)
}

// WriteCSV writes the sampled time series: a header of t_s plus every
// column name, then one row per sample tick.
func (r *Registry) WriteCSV(w io.Writer) error {
	if _, err := fmt.Fprintf(w, "t_s,%s\n", strings.Join(r.cols, ",")); err != nil {
		return err
	}
	for _, row := range r.rows {
		fmt.Fprintf(w, "%g", row.t.Seconds())
		for _, v := range row.values {
			fmt.Fprintf(w, ",%v", FormatValue(v))
		}
		if _, err := fmt.Fprintln(w); err != nil {
			return err
		}
	}
	return nil
}

// Rows reports how many time-series samples have accumulated.
func (r *Registry) Rows() int { return len(r.rows) }
