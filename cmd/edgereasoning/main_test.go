package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"edgereasoning/internal/experiments"
)

func TestRunList(t *testing.T) {
	if err := run([]string{"list"}); err != nil {
		t.Fatal(err)
	}
}

func TestRunUnknownCommand(t *testing.T) {
	if err := run([]string{"frobnicate"}); err == nil {
		t.Error("unknown command must fail")
	}
}

func TestRunMissingArgs(t *testing.T) {
	if err := run(nil); err == nil {
		t.Error("no args must fail")
	}
	if err := run([]string{"run"}); err == nil {
		t.Error("run without id must fail")
	}
}

func TestRunExperimentWithCSV(t *testing.T) {
	dir := t.TempDir()
	if err := run([]string{"run", "saturation", "-quick", "-csv", dir}); err != nil {
		t.Fatal(err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) == 0 {
		t.Fatal("no CSV files written")
	}
	data, err := os.ReadFile(filepath.Join(dir, entries[0].Name()))
	if err != nil {
		t.Fatal(err)
	}
	if len(data) == 0 {
		t.Error("empty CSV")
	}
}

func TestProfileFlags(t *testing.T) {
	dir := t.TempDir()
	cpu := filepath.Join(dir, "cpu.out")
	mem := filepath.Join(dir, "mem.out")
	if err := run([]string{"run", "saturation", "-quick", "-cpuprofile", cpu, "-memprofile", mem}); err != nil {
		t.Fatal(err)
	}
	for _, p := range []string{cpu, mem} {
		info, err := os.Stat(p)
		if err != nil {
			t.Fatalf("profile not written: %v", err)
		}
		if info.Size() == 0 {
			t.Errorf("%s is empty", p)
		}
	}
}

func TestProfileFlagBadPath(t *testing.T) {
	if err := run([]string{"run", "saturation", "-quick", "-cpuprofile", filepath.Join(t.TempDir(), "no", "such", "dir", "cpu.out")}); err == nil {
		t.Error("unwritable cpuprofile path must fail")
	}
}

func TestFleetSubcommand(t *testing.T) {
	dir := t.TempDir()
	if err := run([]string{"fleet", "-quick", "-replicas", "2", "-policy", "deadline", "-csv", dir}); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"fleet.csv", "fleet-verify.csv"} {
		if _, err := os.Stat(filepath.Join(dir, want)); err != nil {
			t.Errorf("missing %s: %v", want, err)
		}
	}
}

func TestFleetSubcommandRejectsBadFlags(t *testing.T) {
	if err := run([]string{"fleet", "-policy", "chaos"}); err == nil {
		t.Error("unknown policy must fail before engines spin up")
	}
	if err := run([]string{"fleet", "-devices", "tpu"}); err == nil {
		t.Error("unknown device must fail before engines spin up")
	}
	if err := run([]string{"fleet", "-seeds", "1,2"}); err == nil {
		t.Error("-seeds must be rejected on fleet")
	}
	if err := run([]string{"run", "qps", "-replicas", "4"}); err == nil {
		t.Error("fleet flags must not leak into run")
	}
}

func TestSessionsSubcommand(t *testing.T) {
	dir := t.TempDir()
	if err := run([]string{"sessions", "-quick", "-sessions", "3", "-turns", "2",
		"-branch", "1", "-policy", "sa", "-csv", dir}); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"sessions.csv", "sessions-affinity.csv", "sessions-verify.csv"} {
		if _, err := os.Stat(filepath.Join(dir, want)); err != nil {
			t.Errorf("missing %s: %v", want, err)
		}
	}
}

func TestSessionsSubcommandRejectsBadFlags(t *testing.T) {
	if err := run([]string{"sessions", "-policy", "chaos"}); err == nil {
		t.Error("unknown policy must fail before engines spin up")
	}
	if err := run([]string{"sessions", "-turns", "-3"}); err == nil {
		t.Error("negative turn count must be rejected")
	}
	if err := run([]string{"sessions", "-seeds", "1,2"}); err == nil {
		t.Error("-seeds must be rejected on sessions")
	}
	if err := run([]string{"run", "qps", "-turns", "4"}); err == nil {
		t.Error("sessions flags must not leak into run")
	}
	if err := run([]string{"fleet", "-turns", "4"}); err == nil {
		t.Error("sessions flags must not leak into fleet")
	}
}

func TestAutoscaleSubcommand(t *testing.T) {
	dir := t.TempDir()
	if err := run([]string{"autoscale", "-quick", "-min", "1", "-max", "4",
		"-admission", "shed", "-scale-on", "depth", "-csv", dir}); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"autoscale.csv", "autoscale-events.csv",
		"autoscale-admission.csv", "autoscale-verify.csv"} {
		if _, err := os.Stat(filepath.Join(dir, want)); err != nil {
			t.Errorf("missing %s: %v", want, err)
		}
	}
}

func TestAutoscaleSubcommandRejectsBadFlags(t *testing.T) {
	if err := run([]string{"autoscale", "-admission", "lifo"}); err == nil {
		t.Error("unknown admission discipline must fail before engines spin up")
	}
	if err := run([]string{"autoscale", "-scale-on", "vibes"}); err == nil {
		t.Error("unknown scale signal must fail before engines spin up")
	}
	if err := run([]string{"autoscale", "-devices", "tpu"}); err == nil {
		t.Error("unknown device must fail before engines spin up")
	}
	if err := run([]string{"autoscale", "-min", "4", "-max", "2"}); err == nil {
		t.Error("-max below -min must be rejected")
	}
	if err := run([]string{"autoscale", "-min", "-1"}); err == nil {
		t.Error("negative bounds must be rejected")
	}
	if err := run([]string{"autoscale", "-seeds", "1,2"}); err == nil {
		t.Error("-seeds must be rejected on autoscale")
	}
	if err := run([]string{"run", "qps", "-admission", "shed"}); err == nil {
		t.Error("autoscale flags must not leak into run")
	}
	if err := run([]string{"fleet", "-max", "4"}); err == nil {
		t.Error("autoscale flags must not leak into fleet")
	}
}

func TestSaturateSubcommand(t *testing.T) {
	dir := t.TempDir()
	if err := run([]string{"saturate", "-quick", "-csv", dir}); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"saturate.csv", "saturate-verify.csv"} {
		if _, err := os.Stat(filepath.Join(dir, want)); err != nil {
			t.Errorf("missing %s: %v", want, err)
		}
	}
}

func TestSaturateSubcommandRejectsBadFlags(t *testing.T) {
	if err := run([]string{"saturate", "-metric", "vibes"}); err == nil {
		t.Error("unknown metric must fail before probes spin up")
	}
	if err := run([]string{"saturate", "-slo", "-1"}); err == nil {
		t.Error("negative SLO must be rejected")
	}
	if err := run([]string{"saturate", "-metric", "hitrate", "-slo", "1.5"}); err == nil {
		t.Error("hit-rate SLO above 1 must be rejected")
	}
	if err := run([]string{"saturate", "-requests", "-5"}); err == nil {
		t.Error("negative probe size must be rejected")
	}
	if err := run([]string{"saturate", "-devices", "tpu"}); err == nil {
		t.Error("unknown device must fail before probes spin up")
	}
	if err := run([]string{"saturate", "-seeds", "1,2"}); err == nil {
		t.Error("-seeds must be rejected on saturate")
	}
	if err := run([]string{"run", "qps", "-slo", "3"}); err == nil {
		t.Error("saturate flags must not leak into run")
	}
	if err := run([]string{"fleet", "-metric", "p99"}); err == nil {
		t.Error("saturate flags must not leak into fleet")
	}
}

func TestSoakSubcommand(t *testing.T) {
	if err := run([]string{"soak", "-requests", "200", "-qps", "2"}); err != nil {
		t.Fatal(err)
	}
}

func TestSoakSubcommandRejectsBadFlags(t *testing.T) {
	if err := run([]string{"soak", "-requests", "0.5"}); err == nil {
		t.Error("fractional request count must be rejected")
	}
	if err := run([]string{"soak", "-requests", "0"}); err == nil {
		t.Error("zero request count must be rejected")
	}
	if err := run([]string{"soak", "-qps", "-1"}); err == nil {
		t.Error("non-positive qps must be rejected")
	}
	if err := run([]string{"soak", "extra"}); err == nil {
		t.Error("positional arguments must be rejected")
	}
	if err := run([]string{"run", "qps", "-requests", "100"}); err == nil {
		t.Error("soak flags must not leak into run")
	}
}

func TestRunUnknownExperiment(t *testing.T) {
	if err := run([]string{"run", "fig999"}); err == nil {
		t.Error("unknown experiment must fail")
	}
}

func TestHelp(t *testing.T) {
	if err := run([]string{"help"}); err != nil {
		t.Error("help must succeed")
	}
	// -h on a command (fleet, trace, ...) prints its flags and succeeds.
	for _, c := range commands {
		args := []string{c.name, "-h"}
		if c.id {
			args = []string{c.name, "saturation", "-h"}
		}
		if err := run(args); err != nil {
			t.Errorf("%v: %v", args, err)
		}
	}
}

// TestCommandTable runs every command that simulates at a tiny size with
// both profile flags, and checks that each rejects a flag another
// command owns.
func TestCommandTable(t *testing.T) {
	dir := t.TempDir()
	cases := []struct {
		args    []string
		foreign string
	}{
		{[]string{"run", "saturation", "-quick"}, "-replicas"},
		{[]string{"all", "-quick"}, "-seeds"},
		{[]string{"fleet", "-quick", "-replicas", "2", "-policy", "rr"}, "-turns"},
		{[]string{"sessions", "-quick", "-sessions", "2", "-turns", "2", "-branch", "1", "-policy", "sa"}, "-max"},
		{[]string{"tiering", "-quick", "-sessions", "2", "-turns", "2", "-branch", "1"}, "-policy"},
		{[]string{"autoscale", "-quick", "-max", "2"}, "-metric"},
		{[]string{"saturate", "-quick", "-requests", "40"}, "-restart"},
		{[]string{"drills", "-quick", "-replicas", "2"}, "-admission"},
		{[]string{"soak", "-requests", "200", "-qps", "2"}, "-quick"},
		{[]string{"trace", "-requests", "60", "-out", filepath.Join(dir, "trace.json")}, "-csv"},
		{[]string{"sweep", "saturation", "-quick", "-seeds", "3"}, "-seed"},
	}
	covered := map[string]bool{}
	for _, tc := range cases {
		name := tc.args[0]
		covered[name] = true
		cpu := filepath.Join(dir, name+".cpu")
		mem := filepath.Join(dir, name+".mem")
		if err := run(append(tc.args, "-cpuprofile", cpu, "-memprofile", mem)); err != nil {
			t.Errorf("%v: %v", tc.args, err)
			continue
		}
		for _, p := range []string{cpu, mem} {
			if info, err := os.Stat(p); err != nil || info.Size() == 0 {
				t.Errorf("%s: profile %s missing or empty (%v)", name, p, err)
			}
		}
		err := run(append(tc.args, tc.foreign, "1"))
		if err == nil || !strings.Contains(err.Error(), "not defined") {
			t.Errorf("%s must reject %s as undefined, got %v", name, tc.foreign, err)
		}
	}
	for _, c := range commands {
		if c.flags&profileFlags != 0 && !covered[c.name] {
			t.Errorf("command %s has no case here", c.name)
		}
	}
	if err := run([]string{"list", "-cpuprofile", filepath.Join(dir, "list.cpu")}); err == nil {
		t.Error("list simulates nothing and must not take profile flags")
	}
}

func TestRunWithRunnerFlags(t *testing.T) {
	dir := t.TempDir()
	err := run([]string{"run", "saturation", "-quick", "-parallel", "2",
		"-timeout", "5m", "-metrics", "-csv", dir})
	if err != nil {
		t.Fatal(err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) == 0 {
		t.Fatal("no CSV files written")
	}
}

func TestSweepCommand(t *testing.T) {
	dir := t.TempDir()
	err := run([]string{"sweep", "saturation", "-quick", "-seeds", "3,5", "-csv", dir})
	if err != nil {
		t.Fatal(err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 2 {
		t.Fatalf("got %d CSV files, want one per seed (2)", len(entries))
	}
	for _, e := range entries {
		if !strings.Contains(e.Name(), "seed") {
			t.Errorf("sweep CSV %q not tagged with its seed", e.Name())
		}
	}
}

func TestSweepMissingID(t *testing.T) {
	if err := run([]string{"sweep"}); err == nil {
		t.Error("sweep without id must fail")
	}
	if err := run([]string{"sweep", "tabl2"}); err == nil ||
		!strings.Contains(err.Error(), "unknown experiment") {
		t.Errorf("sweep with unknown id must fail up front, got %v", err)
	}
}

func TestSeedFlagsRejectedCrossCommand(t *testing.T) {
	// -seeds on run/all and -seed on sweep would otherwise be silently
	// ignored; the CLI must reject them instead.
	if err := run([]string{"run", "saturation", "-seeds", "1,2"}); err == nil {
		t.Error("run with -seeds must fail")
	}
	if err := run([]string{"all", "-quick", "-seeds", "1,2"}); err == nil {
		t.Error("all with -seeds must fail")
	}
	if err := run([]string{"sweep", "saturation", "-seed", "42"}); err == nil {
		t.Error("sweep with -seed must fail")
	}
}

func TestBadSeedList(t *testing.T) {
	if err := run([]string{"sweep", "saturation", "-seeds", "1,bogus"}); err == nil {
		t.Error("malformed seed list must fail")
	}
	if err := run([]string{"sweep", "saturation", "-seeds", "3,3"}); err == nil {
		t.Error("duplicate seeds must fail (they clobber seed-tagged CSVs)")
	}
	if err := run([]string{"sweep", "saturation", "-seeds", ""}); err == nil {
		t.Error("explicitly empty -seeds must fail, not silently sweep the defaults")
	}
}

func TestTrailingPositionalArgsRejected(t *testing.T) {
	// `sweep table2 5 7` looks like it passes seeds but flag.Parse would
	// silently drop the positionals; reject them instead.
	if err := run([]string{"sweep", "saturation", "5", "7"}); err == nil {
		t.Error("trailing positional args must fail")
	}
	if err := run([]string{"run", "saturation", "extra"}); err == nil {
		t.Error("trailing positional args must fail")
	}
}

func TestParseSeedsDefault(t *testing.T) {
	seeds, err := parseSeeds("")
	if err != nil {
		t.Fatal(err)
	}
	if len(seeds) != 8 || seeds[0] != 1 || seeds[7] != 8 {
		t.Errorf("default seeds = %v, want 1..8", seeds)
	}
}

func TestExecuteFailSoft(t *testing.T) {
	// A broken ID mixed into the list is reported at the end instead of
	// aborting the drivers scheduled after it: the good driver's CSV
	// still lands on disk.
	dir := t.TempDir()
	cfg := config{opts: experiments.Options{Seed: 7, Quick: true}, csvDir: dir, parallel: 1}
	err := execute([]string{"fig999", "saturation"}, cfg)
	if err == nil || !strings.Contains(err.Error(), "fig999") {
		t.Fatalf("err = %v, want failure naming fig999", err)
	}
	if _, statErr := os.Stat(filepath.Join(dir, "saturation.csv")); statErr != nil {
		t.Errorf("driver after the broken one must still run: %v", statErr)
	}
}
