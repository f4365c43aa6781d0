// Package experiments regenerates the paper's evaluation: both figures
// (F1 hardware path, F2 ISO/OSI layering) and every quantified claim in
// §2.3, §3 and §4 (experiments E1–E10). DESIGN.md carries the index;
// EXPERIMENTS.md records expected-vs-measured shapes. Each experiment
// prints a table to the supplied writer and returns headline metrics
// that the root benchmarks report and the tests assert on.
package experiments

import (
	"fmt"
	"io"
	"text/tabwriter"
	"time"

	"packetradio/internal/ip"
	"packetradio/internal/world"
)

// Result carries an experiment's headline numbers: a map of metric
// name to value (units encoded in the name).
type Result struct {
	ID      string
	Claim   string
	Metrics map[string]float64
}

func newResult(id, claim string) *Result {
	return &Result{ID: id, Claim: claim, Metrics: make(map[string]float64)}
}

func (r *Result) set(name string, v float64) { r.Metrics[name] = v }

// Get returns a metric (0 when absent).
func (r *Result) Get(name string) float64 { return r.Metrics[name] }

// table is a small helper for aligned output.
type table struct {
	w  *tabwriter.Writer
	io io.Writer
}

func newTable(w io.Writer, id, title string) *table {
	fmt.Fprintf(w, "\n== %s: %s ==\n", id, title)
	return &table{w: tabwriter.NewWriter(w, 2, 4, 2, ' ', 0), io: w}
}

func (t *table) row(cells ...any) {
	for i, c := range cells {
		if i > 0 {
			fmt.Fprint(t.w, "\t")
		}
		fmt.Fprint(t.w, c)
	}
	fmt.Fprintln(t.w)
}

func (t *table) flush() { t.w.Flush() }

func ms(d time.Duration) string { return fmt.Sprintf("%.1f", float64(d)/float64(time.Millisecond)) }
func sec(d time.Duration) string {
	return fmt.Sprintf("%.2f", d.Seconds())
}

// pingOnce sends one echo and runs the world until the reply (or the
// deadline), returning the RTT and whether it arrived.
func pingOnce(w *world.World, from *world.Host, dst ip.Addr, size int, deadline time.Duration) (time.Duration, bool) {
	var rtt time.Duration
	got := false
	from.Stack.Ping(dst, size, func(_ uint16, d time.Duration, _ ip.Addr) {
		rtt = d
		got = true
		w.Sched.Halt()
	})
	w.Sched.RunUntil(w.Sched.Now().Add(deadline))
	return rtt, got
}

// RunAll executes every experiment in order.
func RunAll(w io.Writer) []*Result {
	return []*Result{
		F1(w), F2(w),
		E1(w), E2(w), E3(w), E4(w), E5(w),
		E6(w), E7(w), E8(w), E9(w), E10(w),
		E11(w), E12(w), E13(w), E14(w), E16(w), E17(w), E18(w),
	}
}
