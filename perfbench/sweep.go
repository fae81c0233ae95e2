package main

import (
	"fmt"
	"os"
	"path/filepath"
	"slices"

	"activego/internal/bench"
	"activego/internal/driver"
	"activego/internal/experiments"
	"activego/internal/plan"
	"activego/internal/workloads"
)

// The sweep workload is `benchsuite -exp all -scalediv 2048 -j 1`: the
// twelve studies in suite order, each turned into its manifest. At the
// committed seed 42 every manifest must equal benchmarks/BENCH_<study>.json
// in every value and plan line; at other seeds the studies' own reference
// checks run (a study whose outputs fail them returns an error) and each
// manifest must keep the committed shape: the same workloads, planner
// labels and value names, units and directions.

// committedSeed is the seed the committed manifests were produced with.
const committedSeed = 42

// runStudy runs one benchsuite study and returns its manifest plus the
// harness result, for the studies the sim metrics are read from.
func runStudy(name string, params workloads.Params) (*bench.Manifest, any, error) {
	switch name {
	case "table1":
		rows, _, err := experiments.Table1(params)
		if err != nil {
			return nil, nil, err
		}
		return experiments.BenchTable1(rows, params), rows, nil
	case "fig2":
		return bench1(experiments.Fig2(params))(params)
	case "fig4":
		return bench1(experiments.Fig4(params))(params)
	case "fig5":
		return bench1(experiments.Fig5(params))(params)
	case "accuracy":
		return bench1(experiments.Accuracy(params))(params)
	case "runtimeopt":
		return bench1(experiments.RuntimeOpt(params))(params)
	case "robustness":
		return bench1(experiments.Robustness(params))(params)
	case "resilience":
		return bench1(experiments.Resilience(params))(params)
	case "utilization":
		return bench1(experiments.Utilization(params))(params)
	case "serving":
		return bench1(experiments.Serving(params))(params)
	case "drift":
		return bench1(experiments.Drift(params))(params)
	case "planner":
		return bench1(experiments.Planner(params))(params)
	}
	return nil, nil, fmt.Errorf("unknown study %q", name)
}

// benchResult is a study result that converts into its manifest.
type benchResult interface {
	Bench(params workloads.Params) *bench.Manifest
}

// bench1 adapts a harness's (result, table, error) return.
func bench1[R benchResult, T any](res R, _ T, err error) func(workloads.Params) (*bench.Manifest, any, error) {
	return func(params workloads.Params) (*bench.Manifest, any, error) {
		if err != nil {
			return nil, nil, err
		}
		return res.Bench(params), res, nil
	}
}

func sweepWorkload(tiny bool) workload {
	if tiny {
		return newSweep(2048, []string{"table1", "fig4", "serving"})
	}
	return newSweep(2048, sweepStudies)
}

// newSweep runs studies at scaleDiv.
func newSweep(scaleDiv int64, studies []string) workload {
	return workload{name: "sweep", setup: func(seed int64, tr *tracer) (pass, error) {
		defer tr.begin("experiments.load_expected", "setup")()
		dir, err := benchmarksDir()
		if err != nil {
			return nil, err
		}
		s := &sweepPass{
			params: workloads.Params{ScaleDiv: scaleDiv, Seed: seed},
			exact:  seed == committedSeed && scaleDiv == 2048,
		}
		for _, name := range studies {
			m, err := bench.ReadFile(filepath.Join(dir, "BENCH_"+name+".json"))
			if err != nil {
				return nil, err
			}
			s.studies = append(s.studies, sweepStudy{name: name, expected: m})
		}
		// Each pass starts from a cold scenario plan cache, as a fresh
		// benchsuite process does.
		driver.SetPlanCache(plan.NewCache())
		return s, nil
	}}
}

// benchmarksDir finds the committed manifests from the repository root
// (where the benchmark runs) or from this package's directory (tests).
func benchmarksDir() (string, error) {
	for _, dir := range []string{"benchmarks", filepath.Join("..", "benchmarks")} {
		if _, err := os.Stat(filepath.Join(dir, "BENCH_table1.json")); err == nil {
			return dir, nil
		}
	}
	return "", fmt.Errorf("committed manifests not found: run from the repository root")
}

type sweepStudy struct {
	name     string
	expected *bench.Manifest
	got      *bench.Manifest
	result   any
	err      error
}

type sweepPass struct {
	params  workloads.Params
	exact   bool
	studies []sweepStudy
}

func (s *sweepPass) run(_ *meter, tr *tracer) error {
	for i := range s.studies {
		st := &s.studies[i]
		end := tr.begin("experiments."+st.name, st.name)
		st.got, st.result, st.err = runStudy(st.name, s.params)
		end()
	}
	return nil
}

func (s *sweepPass) check() outcome {
	o := newOutcome()
	for _, st := range s.studies {
		o.attempted++
		if st.err != nil {
			o.fail("study %s: %v", st.name, st.err)
			continue
		}
		if err := compareManifest(st.expected, st.got, s.exact); err != nil {
			o.fail("study %s: %v", st.name, err)
		}
		switch r := st.result.(type) {
		case *experiments.Fig4Result:
			var xs []float64
			for _, row := range r.Rows {
				xs = append(xs, row.ActivePySpeedup)
			}
			o.values["sim_speedup_geomean"] = geomean(xs)
		case *experiments.ServingResult:
			// NVMe command latencies of the study's overloaded load
			// point, the one run whose trace the study records.
			var lat []float64
			for _, sp := range r.Rec.Spans() {
				if sp.Component == "nvme" {
					lat = append(lat, sp.End-sp.Start)
				}
			}
			o.values["sim.p99_ms"] = nearestRank(lat, 0.99) * 1e3
			o.values["sim.p99_samples"] = float64(len(lat))
			o.samples["sim.p99_ms"] = len(lat)
			if cell := r.Cells[len(r.Cells)-1]; cell.Res.Makespan > 0 {
				o.values["sim_iops"] = float64(len(lat)) / cell.Res.Makespan
			}
		}
	}
	return o
}

// compareManifest checks got against the committed manifest. exact
// compares every tracked value and plan line; otherwise only the shape.
func compareManifest(want, got *bench.Manifest, exact bool) error {
	if want.Experiment != got.Experiment {
		return fmt.Errorf("experiment %q, want %q", got.Experiment, want.Experiment)
	}
	if len(want.Workloads) != len(got.Workloads) {
		return fmt.Errorf("%d workloads, want %d", len(got.Workloads), len(want.Workloads))
	}
	for i := range want.Workloads {
		w, g := want.Workloads[i], got.Workloads[i]
		if w.Name != g.Name || w.Planner != g.Planner || len(w.Values) != len(g.Values) {
			return fmt.Errorf("workload %d is %s/%s with %d values, want %s/%s with %d",
				i, g.Name, g.Planner, len(g.Values), w.Name, w.Planner, len(w.Values))
		}
		if exact && (w.Migrated != g.Migrated || !slices.Equal(w.PlanLines, g.PlanLines)) {
			return fmt.Errorf("%s: plan lines %v migrated %t, want %v migrated %t",
				w.Name, g.PlanLines, g.Migrated, w.PlanLines, w.Migrated)
		}
		for j := range w.Values {
			wv, gv := w.Values[j], g.Values[j]
			if wv.Name != gv.Name || wv.Unit != gv.Unit || wv.Better != gv.Better {
				return fmt.Errorf("%s: value %d is %s [%s, %s], want %s [%s, %s]",
					w.Name, j, gv.Name, gv.Unit, gv.Better, wv.Name, wv.Unit, wv.Better)
			}
			if exact && wv.Value != gv.Value {
				return fmt.Errorf("%s: %s = %v, want %v", w.Name, wv.Name, gv.Value, wv.Value)
			}
		}
	}
	return nil
}
