package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"strings"
	"testing"

	"activego/internal/analysis"
	"activego/internal/core"
	"activego/internal/platform"
	"activego/internal/profile"
	"activego/internal/workloads"
)

// benchmarkFile is the part of BENCHMARK.json these tests read.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name, Unit, Better string
	} `json:"end_to_end"`
	PerLayer []struct {
		Name, Unit, Better string
	} `json:"per_layer"`
}

// TestMetricsMatchBenchmarkJSON checks that the metrics the benchmark
// prints are the ones BENCHMARK.json declares, with the same units and
// directions, and that every declared workload exists.
func TestMetricsMatchBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(data, &bf); err != nil {
		t.Fatal(err)
	}
	for _, w := range bf.Workloads {
		if _, err := workloadByName(w.Name, true); err != nil {
			t.Error(err)
		}
	}
	check := func(kind string, defs []metricDef, declared []struct{ Name, Unit, Better string }) {
		if len(defs) != len(declared) {
			t.Errorf("%s: benchmark prints %d metrics, BENCHMARK.json declares %d", kind, len(defs), len(declared))
			return
		}
		for i, d := range defs {
			got := declared[i]
			if got.Name != d.name || got.Unit != d.unit || got.Better != d.better {
				t.Errorf("%s %d: BENCHMARK.json has %+v, benchmark prints %s [%s, %s]",
					kind, i, got, d.name, d.unit, d.better)
			}
		}
	}
	check("end_to_end", endToEnd, bf.EndToEnd)
	check("per_layer", perLayer, bf.PerLayer)
}

// printed runs res.print and decodes the JSON result line.
func printed(t *testing.T, res *result, name string, cfg runConfig) map[string]any {
	t.Helper()
	var buf bytes.Buffer
	if err := res.print(&buf, name, cfg); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	var out map[string]any
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &out); err != nil {
		t.Fatalf("last line is not JSON: %v", err)
	}
	return out
}

// TestTinyRuns runs every workload at its tiny size twice untraced and
// once traced: the result line carries every metric with its unit, the
// outputs check clean, and the sim_* metrics are identical across the
// two untraced runs and in the traced run's passes, and alloc_mb repeats
// within 1%.
func TestTinyRuns(t *testing.T) {
	for _, name := range []string{"sweep", "pipeline", "serving", "device"} {
		t.Run(name, func(t *testing.T) {
			w, err := workloadByName(name, true)
			if err != nil {
				t.Fatal(err)
			}
			var runs []*result
			for _, traced := range []bool{false, false, true} {
				cfg := runConfig{seed: 7, traced: traced}
				res, err := measure(w, cfg)
				if err != nil {
					t.Fatal(err)
				}
				if !res.correct || res.failed != 0 || res.attempted < 1 {
					t.Fatalf("traced=%t: correct=%t attempted=%d failed=%d %v",
						traced, res.correct, res.attempted, res.failed, res.problems)
				}
				defs := endToEnd
				if traced {
					defs = perLayer
				}
				metrics := printed(t, res, name, cfg)["metrics"].(map[string]any)
				if len(metrics) != len(defs) {
					t.Errorf("traced=%t: %d metrics, want %d", traced, len(metrics), len(defs))
				}
				for _, d := range defs {
					m, ok := metrics[d.name].(map[string]any)
					if !ok || m["unit"] != d.unit {
						t.Errorf("traced=%t: metric %s missing or not in %s: %v", traced, d.name, d.unit, m)
						continue
					}
					if !traced && m["value"].(float64) <= 0 {
						t.Errorf("end-to-end metric %s = %v, want > 0", d.name, m["value"])
					}
				}
				runs = append(runs, res)
			}
			for name, a := range runs[0].sim {
				if b, tr := runs[1].sim[name], runs[2].sim[name]; a != b || a != tr {
					t.Errorf("%s: untraced %v and %v, traced %v", name, a, b, tr)
				}
			}
			if a, b := runs[0].values["alloc_mb"], runs[1].values["alloc_mb"]; math.Abs(a-b) > 0.01*a {
				t.Errorf("alloc_mb %v and %v differ by more than 1%%", a, b)
			}
		})
	}
}

// TestSweepCountsManifestMismatch checks the exact manifest comparison at
// the committed seed: the Table I study matches its committed manifest,
// and the same pass against an altered expected value counts one failed
// operation.
func TestSweepCountsManifestMismatch(t *testing.T) {
	w := newSweep(2048, []string{"table1"})
	for _, alter := range []bool{false, true} {
		p, err := w.setup(committedSeed, nil)
		if err != nil {
			t.Fatal(err)
		}
		sp := p.(*sweepPass)
		if !sp.exact {
			t.Fatal("seed 42 at scalediv 2048 should compare manifests exactly")
		}
		if alter {
			sp.studies[0].expected.Workloads[0].Values[0].Value++
		}
		if err := p.run(&meter{}, nil); err != nil {
			t.Fatal(err)
		}
		out := p.check()
		want := 0
		if alter {
			want = 1
		}
		if out.attempted != 1 || out.failed != want {
			t.Errorf("altered=%t: attempted %d failed %d, want 1 and %d: %v",
				alter, out.attempted, out.failed, want, out.problems)
		}
	}
}

// TestPlanMatchesRuntime checks that the pipeline workload's planning
// step, driven layer by layer, chooses the partition core.Runtime does.
func TestPlanMatchesRuntime(t *testing.T) {
	params := workloads.TestParams()
	for _, spec := range workloads.All() {
		inst := spec.Build(params)
		rt := core.New(platform.Default())
		rt.SampleScales = profile.ScaledScales
		prog, report, want, err := rt.Analyze(inst.Source, inst.Registry)
		if err != nil {
			t.Fatal(err)
		}
		static, err := analysis.Analyze(prog)
		if err != nil {
			t.Fatal(err)
		}
		got := planProgram(static, report, rt.Machine)
		if !got.Partition.Equal(want.Partition) || got.Planner != want.Planner {
			t.Errorf("%s: plan %v (%s), runtime chose %v (%s)", spec.Name,
				got.Partition.Lines(), got.Planner, want.Partition.Lines(), want.Planner)
		}
	}
}
