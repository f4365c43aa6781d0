// Experiments regenerates the paper's evaluation — both figures and
// every quantified claim (see DESIGN.md §4 for the index and
// EXPERIMENTS.md for expected-vs-measured). Runs the full suite in a
// few seconds of wall clock; everything is deterministic.
//
// Usage:
//
//	experiments            # all of F1 F2 E1..E10
//	experiments -only E2   # a single experiment
//	experiments -list      # show the index
//
// It is also the CI entrypoint for the declarative scenario suite
// (SCENARIOS.md):
//
//	experiments -scenario examples/scenarios            # gate the whole suite
//	experiments -scenario examples/scenarios/diurnal.toml -workers 4
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"packetradio/internal/experiments"
	"packetradio/internal/scenario"
)

var index = []struct {
	id    string
	claim string
	run   func(io.Writer) *experiments.Result
}{
	{"F1", "Figure 1: hardware path latency decomposition", experiments.F1},
	{"F2", "Figure 2: ISO/OSI layering and per-layer overhead", experiments.F2},
	{"E1", "§3: transmission time dominates at 1200 bps", experiments.E1},
	{"E2", "§3: gateway slowdown under load; TNC filter ablation", experiments.E2},
	{"E3", "§4.1: fixed vs adaptive retransmission timeouts", experiments.E3},
	{"E4", "§4.2: single class-A route vs regional gateways", experiments.E4},
	{"E5", "§4.3: access-control table life cycle", experiments.E5},
	{"E6", "§1: source-routed digipeating, 0-8 hops", experiments.E6},
	{"E7", "§2.3: ARP over AX.25, cold vs warm", experiments.E7},
	{"E8", "§2.4: IP over the NET/ROM backbone", experiments.E8},
	{"E9", "§2.3/§5: telnet, FTP, SMTP across the gateway", experiments.E9},
	{"E10", "substrate: CSMA channel capacity", experiments.E10},
	{"E11", "RSPF reconverges after gateway failure; static blackholes", experiments.E11},
	{"E12", "RSPF control-plane overhead on the 1200 bps channel", experiments.E12},
	{"E13", "delivery ratio under link churn: static vs RSPF", experiments.E13},
	{"E14", "simulator scaling: N-station worlds per wall second", experiments.E14},
	{"E16", "DAMA vs CSMA: delivery past the saturation knee", experiments.E16},
	{"E17", "SOCK_RDM vs TCP: goodput and airtime on the 1200 bps path", experiments.E17},
	{"E18", "sharded engine vs sequential: same replies, same events", experiments.E18},
}

func main() {
	only := flag.String("only", "", "run a single experiment (e.g. E3)")
	list := flag.Bool("list", false, "list experiments and exit")
	scenarioFlag := flag.String("scenario", "", "evaluate a scenario file, or every .json/.toml scenario in a directory, against its gates; exit 1 if any gate fails")
	seeds := flag.Int("seeds", 0, "scenario mode: seeds per scenario (0 = each scenario's gates.seeds)")
	workers := flag.Int("workers", 0, "scenario mode: engine workers per run (0 = single-loop reference)")
	flag.Parse()

	if *scenarioFlag != "" {
		runScenarios(*scenarioFlag, *seeds, *workers)
		return
	}
	if *list {
		for _, e := range index {
			fmt.Printf("%-4s %s\n", e.id, e.claim)
		}
		return
	}
	ran := 0
	for _, e := range index {
		if *only != "" && !strings.EqualFold(*only, e.id) {
			continue
		}
		e.run(os.Stdout)
		ran++
	}
	if ran == 0 {
		fmt.Fprintf(os.Stderr, "experiments: unknown experiment %q (use -list)\n", *only)
		os.Exit(1)
	}
}

// runScenarios is the scenario-suite mode: evaluate one file, or every
// scenario in a directory (sorted by name, so the report order is
// stable), and exit 1 if any gate fails.
func runScenarios(path string, seeds, workers int) {
	info, err := os.Stat(path)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	files := []string{path}
	if info.IsDir() {
		files = nil
		entries, err := os.ReadDir(path)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		for _, e := range entries {
			if ext := filepath.Ext(e.Name()); !e.IsDir() && (ext == ".json" || ext == ".toml") {
				files = append(files, filepath.Join(path, e.Name()))
			}
		}
		sort.Strings(files)
		if len(files) == 0 {
			fmt.Fprintf(os.Stderr, "experiments: no .json or .toml scenarios in %s\n", path)
			os.Exit(2)
		}
	}
	failed := 0
	for i, f := range files {
		if i > 0 {
			fmt.Println()
		}
		sc, err := scenario.Load(f)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		// The seattle base is single-loop only (one channel — nothing
		// to shard), so a suite-wide -workers setting falls back to the
		// reference engine for it rather than failing the whole run.
		w := workers
		if sc.Topology.Base == "seattle" && w > 0 {
			fmt.Printf("# %s: seattle base, falling back to -workers 0\n", sc.Name)
			w = 0
		}
		rep, err := scenario.Evaluate(sc, seeds, w)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		rep.WriteText(os.Stdout)
		if !rep.Pass() {
			failed++
		}
	}
	if failed > 0 {
		fmt.Fprintf(os.Stderr, "experiments: %d of %d scenarios failed their gates\n", failed, len(files))
		os.Exit(1)
	}
}
