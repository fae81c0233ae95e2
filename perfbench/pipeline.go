package main

import (
	"fmt"

	"activego/internal/analysis"
	"activego/internal/baseline"
	"activego/internal/codegen"
	"activego/internal/core"
	"activego/internal/exec"
	"activego/internal/lang/interp"
	"activego/internal/lang/parser"
	"activego/internal/plan"
	"activego/internal/platform"
	"activego/internal/profile"
	"activego/internal/workloads"
)

// The pipeline workload is what `activego -workload <name>` does, for
// every embedded program, driven one layer at a time so each call can be
// timed from outside: parse, static analysis, sampling, planning, the
// full-scale interpreter run plus its reference check, the ActivePy
// execution, the host-only C baseline and the static baseline search.
// Inputs are generated from the seed in setup.

// maxExhaustiveLines mirrors baseline's limit for its power-set search:
// up to it the search measures every subset of the trace's lines, past
// it only the prefixes and suffixes.
const maxExhaustiveLines = 14

func pipelineWorkload(tiny bool) workload {
	specs := workloads.All()
	if tiny {
		return newPipeline(8192, specs[:3])
	}
	return newPipeline(512, specs)
}

func newPipeline(scaleDiv int64, specs []workloads.Spec) workload {
	return workload{name: "pipeline", setup: func(seed int64, tr *tracer) (pass, error) {
		params := workloads.Params{ScaleDiv: scaleDiv, Seed: seed}
		p := &pipelinePass{params: params}
		for _, spec := range specs {
			end := tr.begin("workloads.build", spec.Name)
			p.progs = append(p.progs, &program{inst: spec.Build(params)})
			end()
		}
		return p, nil
	}}
}

// program is one embedded workload's inputs and what its pass produced.
type program struct {
	inst *workloads.Instance

	err                error
	activePy, hostOnly float64 // simulated seconds
	nvmeCommands       uint64
	records, csdLines  int
	candidates         int
	simEvents          uint64
	platforms          int
}

type pipelinePass struct {
	params workloads.Params
	progs  []*program
}

func (p *pipelinePass) run(m *meter, tr *tracer) error {
	for _, pr := range p.progs {
		pr.err = p.runProgram(pr, m, tr)
	}
	return nil
}

func (p *pipelinePass) runProgram(pr *program, m *meter, tr *tracer) error {
	group := pr.inst.Name
	defer tr.begin("pipeline.program", group)()
	inst := pr.inst

	end := tr.begin("platform.new", group)
	plat := platform.Default()
	machine := plan.MachineFromPlatform(plat)
	pr.platforms++
	end()
	end = tr.begin("storage.preload", group)
	for _, name := range inst.Registry.Names() {
		e, _ := inst.Registry.Get(name)
		plat.Dev.Store.Preload(name, e.Value.SizeBytes())
	}
	end()

	end = tr.begin("lang.parse", group)
	prog, err := parser.Parse(inst.Source)
	end()
	if err != nil {
		return fmt.Errorf("parse: %w", err)
	}
	end = tr.begin("analysis.analyze", group)
	static, err := analysis.Analyze(prog)
	end()
	if err != nil {
		return fmt.Errorf("analyze: %w", err)
	}
	end = tr.begin("profile.sample", group)
	report, err := profile.RunScalesPool(prog, inst.Registry, profile.ScaledScales, nil, nil)
	end()
	if err != nil {
		return fmt.Errorf("sample: %w", err)
	}
	end = tr.begin("plan.plan", group)
	planRes := planProgram(static, report, machine)
	end()
	pr.csdLines = len(planRes.Partition.Lines())

	end = tr.begin("lang.interp", group)
	trace, env, err := interp.Run(prog, inst.Registry.Context(1))
	end()
	if err != nil {
		return fmt.Errorf("trace: %w", err)
	}
	pr.records = len(trace.Records)
	m.stop()
	err = inst.Check(env)
	m.start()
	if err != nil {
		return fmt.Errorf("reference check: %w", err)
	}

	end = tr.begin("exec.run", group)
	res, err := runActivePy(plat, trace, planRes, static, p.params)
	end()
	if err != nil {
		return fmt.Errorf("activepy: %w", err)
	}
	pr.activePy = res.Duration
	pr.simEvents = plat.Sim.EventsFired()
	_, pr.nvmeCommands = plat.Dev.QP.Stats()

	end = tr.begin("platform.new", group)
	hostPlat := platform.Default()
	pr.platforms++
	end()
	end = tr.begin("baseline.hostonly", group)
	base, err := baseline.RunHostOnly(hostPlat, trace, codegen.C)
	end()
	if err != nil {
		return fmt.Errorf("host-only baseline: %w", err)
	}
	pr.hostOnly = base.Duration

	end = tr.begin("baseline.search", group)
	_, _, err = baseline.Search(platform.DefaultConfig(), trace)
	end()
	if err != nil {
		return fmt.Errorf("static search: %w", err)
	}
	pr.platforms++ // Search builds its own scratch platform
	if n := len(trace.Lines()); n <= maxExhaustiveLines {
		pr.candidates = 1 << n
	} else {
		pr.candidates = 1 + 2*n
	}
	return nil
}

// planProgram is the planning step of core.Runtime.Analyze: Equation 1
// estimates from the sampled fits, host pins from static analysis plus
// the lines that provably never win on the device, then the auto ladder.
func planProgram(static *analysis.Report, report *profile.Report, m plan.Machine) *plan.Result {
	estimates := plan.BuildEstimates(report.Predictions(), m, codegen.Native)
	cons := plan.Constraints{HostOnly: static.HostPinned()}
	for _, pr := range plan.NeverWin(estimates, m) {
		if _, pinned := cons.HostOnly[pr.Line]; !pinned {
			cons.HostOnly[pr.Line] = pr.Reason
		}
	}
	var stats plan.BnBStats
	return plan.AutoPool(estimates, cons, m, nil, plan.DefaultBnBNodeBudget, &stats)
}

// runActivePy executes the trace as core.Runtime.Run does with the
// default configuration.
func runActivePy(p *platform.Platform, trace *interp.Trace, planRes *plan.Result, static *analysis.Report, params workloads.Params) (*exec.Result, error) {
	return exec.Run(p, trace, exec.Options{
		Backend:          codegen.Native,
		Partition:        planRes.Partition,
		Estimates:        planRes.ByLine(),
		Migration:        exec.DefaultMigration(),
		SamplingOverhead: core.SamplingOverhead,
		OverheadScale:    params.OverheadScale(),
		UseCallQueue:     true,
		Analysis:         static,
	})
}

func (p *pipelinePass) check() outcome {
	o := newOutcome()
	var speedups, times []float64
	var commands uint64
	for _, pr := range p.progs {
		o.attempted++
		if pr.err != nil {
			o.fail("program %s: %v", pr.inst.Name, pr.err)
			continue
		}
		speedups = append(speedups, pr.hostOnly/pr.activePy)
		times = append(times, pr.activePy)
		commands += pr.nvmeCommands
		o.values["lang.trace_records"] += float64(pr.records)
		o.values["plan.csd_lines"] += float64(pr.csdLines)
		o.values["baseline.candidates"] += float64(pr.candidates)
		o.values["exec.sim_events"] += float64(pr.simEvents)
		o.values["platform.new_count"] += float64(pr.platforms)
	}
	o.values["sim_speedup_geomean"] = geomean(speedups)
	// One ActivePy run per program: the percentile is over the programs'
	// simulated run times.
	o.values["sim.p99_ms"] = nearestRank(times, 0.99) * 1e3
	o.values["sim.p99_samples"] = float64(len(times))
	o.samples["sim.p99_ms"] = len(times)
	var total float64
	for _, t := range times {
		total += t
	}
	if total > 0 {
		o.values["sim_iops"] = float64(commands) / total
	}
	return o
}
