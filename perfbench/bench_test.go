package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"runtime/pprof"
	"strings"
	"testing"
	"time"
)

// benchmarkFile mirrors BENCHMARK.json at the repository root.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func loadBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	buf, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var f benchmarkFile
	if err := json.Unmarshal(buf, &f); err != nil {
		t.Fatal(err)
	}
	return f
}

// TestBenchmarkFileMatchesTables pins BENCHMARK.json to the workload and
// metric tables the command reports from, and checks that every
// layer-to-end-to-end mapping names a real metric and workload.
func TestBenchmarkFileMatchesTables(t *testing.T) {
	f := loadBenchmarkFile(t)
	ws := workloads()
	if len(f.Workloads) != len(ws) {
		t.Fatalf("BENCHMARK.json has %d workloads, tables have %d", len(f.Workloads), len(ws))
	}
	for i, w := range ws {
		if f.Workloads[i].Name != w.name || f.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json %+v, table %s: %s", i, f.Workloads[i], w.name, w.why)
		}
		if w.opUnit == "" || len(w.layers) == 0 {
			t.Errorf("workload %s lacks an op unit or layers", w.name)
		}
	}
	if len(f.EndToEnd) != len(endToEnd) {
		t.Fatalf("BENCHMARK.json has %d end-to-end metrics, table has %d", len(f.EndToEnd), len(endToEnd))
	}
	for i, d := range endToEnd {
		got := f.EndToEnd[i]
		if got.Name != d.name || got.Unit != d.unit || got.Better != d.better || got.Bound != d.bound {
			t.Errorf("end-to-end %d: BENCHMARK.json %+v, table %+v", i, got, d)
		}
	}
	if len(f.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json has %d per-layer metrics, table has %d", len(f.PerLayer), len(perLayer))
	}
	for i, d := range perLayer {
		got := f.PerLayer[i]
		if got.Name != d.name || got.Unit != d.unit || got.Better != d.better {
			t.Errorf("per-layer %d: BENCHMARK.json %+v, table %+v", i, got, d)
		}
		if d.moves == "" {
			continue
		}
		for _, target := range strings.Split(d.moves, "; ") {
			metric, names, ok := strings.Cut(target, "@")
			if !ok || !isEndToEnd(metric) {
				t.Errorf("%s moves %q: not an end-to-end metric", d.name, target)
				continue
			}
			for _, name := range strings.Split(names, ",") {
				if _, ok := lookupWorkload(name); !ok {
					t.Errorf("%s moves %q: unknown workload %q", d.name, target, name)
				}
			}
		}
	}
}

func isEndToEnd(name string) bool {
	for _, d := range endToEnd {
		if d.name == name {
			return true
		}
	}
	return false
}

// TestMiniatureRuns runs every workload at miniature size, untraced and
// traced, through the command's entry point, and checks that the last
// line reports every metric BENCHMARK.json names, finite and with its
// unit, for correct outputs and no failed ops.
func TestMiniatureRuns(t *testing.T) {
	f := loadBenchmarkFile(t)
	for _, w := range f.Workloads {
		for _, trace := range []string{"0", "1"} {
			t.Run(w.Name+"/trace"+trace, func(t *testing.T) {
				var stdout, stderr bytes.Buffer
				dir := t.TempDir()
				args := []string{"--workload", w.Name, "--seed", "3", "--seconds", "0.05", "--trace", trace}
				if code := run(args, &stdout, &stderr, runConfig{mini: true, traceDir: dir}); code != 0 {
					t.Fatalf("exit %d: %s", code, stderr.String())
				}
				lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
				var res struct {
					Correct   bool `json:"correct"`
					Attempted int  `json:"attempted"`
					Failed    int  `json:"failed"`
					Metrics   map[string]struct {
						Value *float64 `json:"value"`
						Unit  string   `json:"unit"`
					} `json:"metrics"`
				}
				if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
					t.Fatalf("last line is not the result: %v\n%s", err, stdout.String())
				}
				if !res.Correct || res.Attempted < 1 || res.Failed != 0 {
					t.Fatalf("correct %v, attempted %d, failed %d: %s", res.Correct, res.Attempted, res.Failed, stderr.String())
				}
				want := map[string]string{}
				if trace == "0" {
					for _, m := range f.EndToEnd {
						want[m.Name] = m.Unit
					}
				} else {
					for _, m := range f.PerLayer {
						want[m.Name] = m.Unit
					}
					if _, err := os.Stat(filepath.Join(dir, "trace-"+w.Name+"-seed3.json")); err != nil {
						t.Errorf("traced run wrote no spans: %v", err)
					}
				}
				if len(res.Metrics) != len(want) {
					t.Errorf("reported %d metrics, want %d", len(res.Metrics), len(want))
				}
				for name, unit := range want {
					got, ok := res.Metrics[name]
					switch {
					case !ok || got.Value == nil:
						t.Errorf("metric %s missing", name)
					case math.IsNaN(*got.Value) || math.IsInf(*got.Value, 0):
						t.Errorf("metric %s = %v, not finite", name, *got.Value)
					case got.Unit != unit || unit == "":
						t.Errorf("metric %s unit %q, want %q", name, got.Unit, unit)
					}
				}
			})
		}
	}
}

// TestRejectsBadArguments checks that bad flags fail without a result.
func TestRejectsBadArguments(t *testing.T) {
	for _, args := range [][]string{
		{"--workload", "nope"},
		{"--workload", "engine-soak", "--seconds", "0"},
		{"--workload", "engine-soak", "--trace", "2"},
		{"--workload", "engine-soak", "extra"},
	} {
		var stdout, stderr bytes.Buffer
		if code := run(args, &stdout, &stderr, runConfig{mini: true, traceDir: t.TempDir()}); code == 0 || stdout.Len() != 0 {
			t.Errorf("%q: exit %d, stdout %q", args, code, stdout.String())
		}
	}
}

// TestProfileAttributesToInnermostRepoPackage decodes a real CPU profile
// and checks that samples land and that symbols map to their layer.
func TestProfileAttributesToInnermostRepoPackage(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skip("CPU profiler unavailable:", err)
	}
	spin(300 * time.Millisecond)
	pprof.StopCPUProfile()
	var c cpuSamples
	if err := c.addProfile(buf.Bytes()); err != nil {
		t.Fatal(err)
	}
	if c.total == 0 {
		t.Skip("no samples taken")
	}
	// spin is the benchmark's own code and calls only the standard
	// library, so its samples count toward "perfbench".
	if c.byLayer["perfbench"] == 0 {
		t.Errorf("spin samples not attributed to the benchmark: %v", c.byLayer)
	}
	for sym, want := range map[string]string{
		"edgereasoning/internal/engine.(*Engine).ServeSource.func3": "engine",
		"edgereasoning/internal/llm.solveCensoredMu":                "llm",
		"main.(*timedSource).Next":                                  "perfbench",
		"math.Erf":                                                  "",
	} {
		if got, _ := repoLayer(sym); got != want {
			t.Errorf("repoLayer(%q) = %q, want %q", sym, got, want)
		}
	}
}

var sink float64

func spin(d time.Duration) {
	for end := time.Now().Add(d); time.Now().Before(end); {
		for i := 0; i < 1000; i++ {
			sink += math.Sqrt(float64(i))
		}
	}
}
