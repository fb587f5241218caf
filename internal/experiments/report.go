// Package experiments contains one driver per table and figure in the
// paper's evaluation. Each driver runs the relevant workload on the
// simulated platform and renders the same rows/series the paper reports,
// so EXPERIMENTS.md can put paper values and reproduced values side by
// side. Drivers are deterministic in Options.Seed.
package experiments

import (
	"encoding/csv"
	"fmt"
	"io"
	"strings"
)

// Options configures a driver run.
type Options struct {
	// Seed drives all randomness.
	Seed uint64
	// Quick subsamples the large banks so the full suite stays fast
	// (useful in tests; benches run full size).
	Quick bool

	// Fleet* parameterize the "fleet" driver (the CLI's fleet
	// subcommand threads them through); zero values select the driver's
	// defaults and other drivers ignore them.
	FleetReplicas int     // fleet size (default 4)
	FleetPolicy   string  // routing policy, or ""/"all" for every policy
	FleetQPS      float64 // offered load (default 2.0)
	FleetDevices  string  // comma-separated device cycle (default heterogeneous Orin mix)

	// Auto* parameterize the "autoscale" driver (the CLI's autoscale
	// subcommand threads them through); zero values select the driver's
	// defaults and other drivers ignore them. The driver also honors
	// FleetQPS (background load) and FleetDevices (provision cycle).
	AutoMin       int    // pool floor (default 1)
	AutoMax       int    // pool ceiling (default 6)
	AutoAdmission string // ingress discipline for the elastic run (default fifo)
	AutoScaleOn   string // scale-up signals: depth, miss, or both (default both)

	// Session* parameterize the "sessions" driver (the CLI's sessions
	// subcommand threads them through); zero values select the driver's
	// defaults and other drivers ignore them.
	SessionCount  int    // concurrent sessions (default 10; quick 6)
	SessionTurns  int    // agent-loop turns per session (default 5; quick 3)
	SessionBranch int    // parallel think samples at branch turns (default 2)
	SessionPolicy string // affinity-table policy, or ""/"all" for the comparison set

	// Tier* parameterize the "tiering" driver (the CLI's tiering
	// subcommand threads them through); zero values select the driver's
	// defaults and other drivers ignore them. The driver also honors the
	// Session* workload knobs above.
	TierDeviceBlocks string  // comma-separated device-cache sizes in blocks (default 192,384,768)
	TierHostBlocks   int     // host-tier capacity in blocks (default 1024)
	TierLinkBW       float64 // host-link bandwidth in bytes/s (default kvcache.DefaultHostLinkBandwidth)

	// Drill* parameterize the "drills" driver (the CLI's drills
	// subcommand threads them through); zero values select the driver's
	// defaults and other drivers ignore them. The driver also honors
	// FleetDevices (replica provision cycle).
	DrillReplicas int     // pool size under fault injection (default 3)
	DrillRestart  float64 // crash restart delay in seconds (default 5)

	// Sat* parameterize the "saturate" driver (the CLI's saturate
	// subcommand threads them through); zero values select the driver's
	// defaults and other drivers ignore them. The driver also honors
	// FleetDevices (replica provision cycle).
	SatSLO      float64 // objective: p99 bound in seconds, or hit-rate floor in [0,1]
	SatMetric   string  // "p99" (default) or "hitrate"
	SatRequests int     // requests offered per probe (default 240; quick 120)
}

// DefaultOptions is the standard full-fidelity configuration.
func DefaultOptions() Options { return Options{Seed: 7} }

// knob names one numeric Options value for nonNegative, spelled as the
// CLI flag that sets it.
type knob struct {
	flag string
	v    float64
}

// nonNegative rejects the first negative knob. Zero still selects the
// driver's default, so drivers call it before defaulting and before
// building their first engine.
func nonNegative(driver string, knobs ...knob) error {
	for _, k := range knobs {
		if k.v < 0 {
			return fmt.Errorf("%s: %s must be non-negative, got %g", driver, k.flag, k.v)
		}
	}
	return nil
}

// sessionShape resolves the agentic workload knobs shared by the
// sessions and tiering drivers: a zero count selects the default of 10
// sessions x 5 turns (6 x 3 under Quick) at branch 2, and a negative one
// is an error.
func (o Options) sessionShape(driver string) (sessions, turns, branch int, err error) {
	if err := nonNegative(driver, knob{"-sessions", float64(o.SessionCount)},
		knob{"-turns", float64(o.SessionTurns)}, knob{"-branch", float64(o.SessionBranch)}); err != nil {
		return 0, 0, 0, err
	}
	sessions, turns, branch = o.SessionCount, o.SessionTurns, o.SessionBranch
	if sessions == 0 {
		sessions = 10
		if o.Quick {
			sessions = 6
		}
	}
	if turns == 0 {
		turns = 5
		if o.Quick {
			turns = 3
		}
	}
	if branch == 0 {
		branch = 2
	}
	return sessions, turns, branch, nil
}

// sample returns the bank subsample size for a nominal full size.
func (o Options) sample(full int) int {
	if !o.Quick {
		return full
	}
	quick := full / 10
	if quick < 150 {
		quick = 150
	}
	if quick > full {
		quick = full
	}
	return quick
}

// Table is one rendered artifact (a paper table, or a figure's underlying
// series).
type Table struct {
	ID      string // "table2", "fig7b", ...
	Title   string
	Columns []string
	Rows    [][]string
	// Notes carry caveats (interpolated cells, known deviations).
	Notes []string
	// Failed names each claim row marked FAIL by its first cell, in order.
	Failed []string
}

// AddRow appends a formatted row.
func (t *Table) AddRow(cells ...string) { t.Rows = append(t.Rows, cells) }

// Claim appends a claim row: the cells, then its verdict mark, "pass"
// or "FAIL". A failed claim is also recorded in Failed.
func (t *Table) Claim(ok bool, cells ...string) { t.claim(ok, "pass", cells...) }

// claim is Claim with the passing mark spelled pass. It copies cells, so
// a call's variadic cells stay on the caller's stack.
func (t *Table) claim(ok bool, pass string, cells ...string) {
	if !ok {
		pass = "FAIL"
		t.Failed = append(t.Failed, cells[0])
	}
	row := append(make([]string, 0, len(cells)+1), cells...)
	t.Rows = append(t.Rows, append(row, pass))
}

// Render writes an aligned text table.
func (t *Table) Render(w io.Writer) error {
	widths := make([]int, len(t.Columns))
	for i, c := range t.Columns {
		widths[i] = len(c)
	}
	for _, row := range t.Rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	if _, err := fmt.Fprintf(w, "== %s: %s ==\n", t.ID, t.Title); err != nil {
		return err
	}
	line := func(cells []string) error {
		var b strings.Builder
		for i, cell := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			b.WriteString(cell)
			if i < len(widths) && i < len(cells)-1 {
				b.WriteString(strings.Repeat(" ", widths[i]-len(cell)))
			}
		}
		_, err := fmt.Fprintln(w, b.String())
		return err
	}
	if err := line(t.Columns); err != nil {
		return err
	}
	rule := make([]string, len(t.Columns))
	for i := range rule {
		rule[i] = strings.Repeat("-", widths[i])
	}
	if err := line(rule); err != nil {
		return err
	}
	for _, row := range t.Rows {
		if err := line(row); err != nil {
			return err
		}
	}
	for _, n := range t.Notes {
		if _, err := fmt.Fprintf(w, "note: %s\n", n); err != nil {
			return err
		}
	}
	_, err := fmt.Fprintln(w)
	return err
}

// WriteCSV emits the table as CSV (header + rows).
func (t *Table) WriteCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	if err := cw.Write(t.Columns); err != nil {
		return err
	}
	for _, row := range t.Rows {
		if err := cw.Write(row); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// Formatting helpers used across drivers.
func f1(x float64) string  { return fmt.Sprintf("%.1f", x) }
func f2(x float64) string  { return fmt.Sprintf("%.2f", x) }
func f3(x float64) string  { return fmt.Sprintf("%.3f", x) }
func f4(x float64) string  { return fmt.Sprintf("%.4f", x) }
func sci(x float64) string { return fmt.Sprintf("%.3g", x) }
func pct(x float64) string { return fmt.Sprintf("%.1f", x*100) }
func di(x int) string      { return fmt.Sprintf("%d", x) }

// Driver produces one or more artifacts.
type Driver func(Options) ([]Table, error)

// suite is every experiment in the order IDs, the suite runs and the CLI
// list them: the paper's artifacts in paper order, then the extensions
// beyond its measured artifacts (§VI future work and design-choice
// ablations), then the supporting analyses and the reproduction
// scorecard.
var suite = []struct {
	id  string
	run Driver
}{
	{"fig1", fig1Tradeoff},
	{"table2", table2ModelComparison},
	{"table3", table3EdgeVsCloud},
	{"fig2", fig2PrefillLatency},
	{"fig3", fig3DecodeLatency},
	{"table6", table6LatencyMAPE},
	{"table7", table7PrefillDecodeRatios},
	{"fig4", fig4PrefillPowerEnergy},
	{"fig5", fig5DecodePowerEnergy},
	{"table8", table8EnergyMAPE},
	{"fig6", figAccuracyVsTokens},
	{"fig7", figAccuracyVsLatency},
	{"fig8", figAccuracyVsCost},
	{"table10", table10BaseGrid},
	{"table11", table11BudgetGrid},
	{"fig9", fig9ParallelAccuracy},
	{"fig10", fig10ParallelCost},
	{"quant", quantSuite},
	{"table9", table9Frameworks},
	{"table12", table12MMLU15k},
	{"naturalplan", naturalPlan},
	{"cpu", cpuVsGPU},
	{"pareto", paretoRegimes},
	// Extensions beyond the paper's measured artifacts.
	{"saturation", sequentialSaturation},
	{"batchsweep", ablationBatchSweep},
	{"powermodes", ablationPowerModes},
	{"specdec", ablationSpeculative},
	{"offload", ablationHostOffload},
	{"fleet", fleetSweep},
	{"sessions", sessionStudy},
	{"tiering", tieringStudy},
	{"autoscale", autoscaleStudy},
	{"saturate", saturateStudy},
	{"drills", drillsStudy},
	{"breakdown", breakdownStudy},
	// Supporting analyses and the reproduction scorecard.
	{"qps", qpsSweep},
	{"roofline", rooflineAnalysis},
	{"sched", schedulerComparison},
	{"verify", scorecard},
}

// lookup returns the driver of experiment id.
func lookup(id string) (Driver, bool) {
	for _, e := range suite {
		if e.id == id {
			return e.run, true
		}
	}
	return nil, false
}

// Run executes one experiment by ID.
func Run(id string, opts Options) ([]Table, error) {
	d, ok := lookup(id)
	if !ok {
		return nil, UnknownIDError(id)
	}
	return d(opts)
}

// UnknownIDError is the canonical error for an unregistered experiment
// ID, listing the valid IDs so a typo is self-correcting.
func UnknownIDError(id string) error {
	return fmt.Errorf("experiments: unknown experiment %q (have %v)", id, IDs())
}

// Known reports whether an experiment ID is registered.
func Known(id string) bool {
	_, ok := lookup(id)
	return ok
}

// IDs lists every experiment in suite order.
func IDs() []string {
	out := make([]string, len(suite))
	for i, e := range suite {
		out[i] = e.id
	}
	return out
}
