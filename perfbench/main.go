// Command perfbench measures the host cost of the activego reproduction:
// the wall time, heap allocation and live heap that producing its
// simulated results takes, next to the simulated results themselves.
//
//	perfbench --workload sweep|pipeline|serving|device [--seed N]
//	          [--seconds S] [--trace 0|1]
//
// Each run is one process. It sets a workload up, forces a GC, times one
// pass, checks the pass's outputs, and forces a GC again to read the live
// heap; it repeats that while another pass fits in --seconds. Set-up and
// pass times are this process's CPU seconds, which leave out the time the
// hypervisor or other processes hold the CPU; wall times are printed too. With
// --trace 1 every second pass is traced: the benchmark records a span
// around each call it makes into a layer, and reports per-layer self
// time, per-layer counts and the tracing overhead instead of the
// end-to-end metrics. The program under test is not instrumented.
//
// The last line of standard output is one JSON object:
// {"correct", "attempted", "failed", "metrics": {name: {value, unit}}}.
// Lines before it print every metric with its unit, its clock (cpu =
// this process's CPU time, host = its wall clock, sim = modelled time) and, for percentiles,
// the sample count. perfbench/README.md documents each metric.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"time"
)

// metricDef describes one reported metric.
type metricDef struct {
	name   string
	unit   string
	clock  string // "cpu", "host" or "sim"
	better string // "lower" or "higher"
}

// endToEnd are the metrics of an untraced run, reported on every workload.
var endToEnd = []metricDef{
	{"setup_s", "s", "cpu", "lower"},
	{"pass_cpu_s", "s", "cpu", "lower"},
	{"alloc_mb", "MB", "host", "lower"},
	{"heap_mb", "MB", "host", "lower"},
	{"sim_speedup_geomean", "x", "sim", "higher"},
	{"sim_iops", "1/s", "sim", "higher"},
}

// sweepStudies are the benchsuite studies in suite order.
var sweepStudies = []string{"table1", "fig2", "fig4", "fig5", "accuracy", "runtimeopt",
	"robustness", "resilience", "utilization", "serving", "drift", "planner"}

// perLayer are the metrics of a traced run, reported on every workload;
// a layer a workload does not call reads 0.
var perLayer = func() []metricDef {
	var out []metricDef
	for _, s := range sweepStudies {
		out = append(out,
			metricDef{"experiments." + s + "_s", "s", "host", "lower"},
			metricDef{"experiments." + s + "_alloc_mb", "MB", "host", "lower"})
	}
	return append(out, []metricDef{
		{"platform.new_s", "s", "host", "lower"},
		{"platform.new_count", "count", "host", "lower"},
		{"storage.preload_s", "s", "host", "lower"},
		{"lang.parse_s", "s", "host", "lower"},
		{"lang.interp_s", "s", "host", "lower"},
		{"lang.trace_records", "count", "sim", "lower"},
		{"analysis.analyze_s", "s", "host", "lower"},
		{"profile.sample_s", "s", "host", "lower"},
		{"plan.plan_s", "s", "host", "lower"},
		{"plan.csd_lines", "count", "sim", "higher"},
		{"plan.cache_hits", "count", "host", "higher"},
		{"plan.cache_misses", "count", "host", "lower"},
		{"exec.run_s", "s", "host", "lower"},
		{"exec.sim_events", "count", "sim", "lower"},
		{"exec.ns_per_event", "ns", "host", "lower"},
		{"baseline.hostonly_s", "s", "host", "lower"},
		{"baseline.search_s", "s", "host", "lower"},
		{"baseline.candidates", "count", "host", "lower"},
		{"baseline.us_per_candidate", "us", "host", "lower"},
		{"driver.build_s", "s", "host", "lower"},
		{"driver.calibrate_s", "s", "host", "lower"},
		{"driver.offered", "count", "sim", "higher"},
		{"driver.completed", "count", "sim", "higher"},
		{"driver.shed", "count", "sim", "lower"},
		{"driver.failed", "count", "sim", "lower"},
		{"driver.queued", "count", "sim", "lower"},
		{"driver.host_us_per_request", "us", "host", "lower"},
		{"driver.sim_p50_ms", "ms", "sim", "lower"},
		{"driver.jain", "ratio", "sim", "higher"},
		{"nvme.reads", "count", "sim", "higher"},
		{"nvme.writes", "count", "sim", "higher"},
		{"nvme.calls", "count", "sim", "higher"},
		{"nvme.errors", "count", "sim", "lower"},
		{"nvme.read_p99_ms", "ms", "sim", "lower"},
		{"nvme.write_p99_ms", "ms", "sim", "lower"},
		{"nvme.call_p99_ms", "ms", "sim", "lower"},
		{"flash.reads", "count", "sim", "lower"},
		{"flash.programs", "count", "sim", "lower"},
		{"ftl.mapped_pages", "count", "sim", "lower"},
		{"ftl.gc_runs", "count", "sim", "lower"},
		{"device.host_ns_per_cmd", "ns", "host", "lower"},
		{"sim.events", "count", "sim", "lower"},
		{"sim.ns_per_event", "ns", "cpu", "lower"},
		{"sim.p99_ms", "ms", "sim", "lower"},
		{"sim.p99_samples", "count", "sim", "higher"},
		{"sim.cse_util", "ratio", "sim", "higher"},
		{"sim.d2h_util", "ratio", "sim", "higher"},
		{"sim.host_util", "ratio", "sim", "higher"},
		{"runtime.cpu_s", "s", "cpu", "lower"},
		{"runtime.gc_cpu_s", "s", "cpu", "lower"},
		{"runtime.wall_s", "s", "host", "lower"},
		{"bench.trace_overhead_s", "s", "cpu", "lower"},
	}...)
}()

// outcome is what a pass's output check finds, plus the simulated
// results and layer counts read from that pass.
type outcome struct {
	attempted, failed int
	problems          []string           // the first failed checks, for the log
	values            map[string]float64 // sim_* metrics and per-layer counts
	samples           map[string]int     // sample count behind each percentile
}

func newOutcome() outcome {
	return outcome{values: map[string]float64{}, samples: map[string]int{}}
}

// fail counts one failed operation and remembers why.
func (o *outcome) fail(format string, args ...any) { o.failN(1, format, args...) }

// failN counts n failed operations that share one cause.
func (o *outcome) failN(n int, format string, args ...any) {
	o.failed += n
	if len(o.problems) < 8 {
		o.problems = append(o.problems, fmt.Sprintf(format, args...))
	}
}

// pass is one prepared, timed unit of work.
type pass interface {
	// run is the timed pass. m is running on entry; a pass that must
	// check an output inside its loop stops m around the check.
	run(m *meter, tr *tracer) error
	// check verifies the outputs after the timed window.
	check() outcome
}

// workload prepares passes from a seed; the seed is its only input.
type workload struct {
	name  string
	setup func(seed int64, tr *tracer) (pass, error)
}

// workloadByName returns the named workload at its benchmark size, or at
// the tiny size the benchmark's own tests use.
func workloadByName(name string, tiny bool) (workload, error) {
	switch name {
	case "sweep":
		return sweepWorkload(tiny), nil
	case "pipeline":
		return pipelineWorkload(tiny), nil
	case "serving":
		return servingWorkload(tiny), nil
	case "device":
		return deviceWorkload(tiny), nil
	}
	return workload{}, fmt.Errorf("unknown workload %q (want sweep, pipeline, serving or device)", name)
}

// runConfig is one invocation's settings.
type runConfig struct {
	seed    int64
	seconds float64
	traced  bool
	spans   string // where a traced run writes its spans; "" = nowhere
}

// result is one run's report.
type result struct {
	correct           bool
	attempted, failed int
	problems          []string
	passWall, passCPU []float64 // wall and CPU seconds of each untraced pass
	setups            []float64 // CPU seconds of every setup
	defs              []metricDef
	values            map[string]float64
	samples           map[string]int
	sim               map[string]float64 // the sim_* metrics, in either kind of run
}

// A run sets up at least minSetups times and for at least minSetupSecs
// CPU seconds in total, so setup_s is a median of several samples even when one pass
// fills the run, and a quick setup is sampled often.
const (
	minSetups    = 5
	minSetupSecs = 2
	maxSetups    = 500
)

// measure runs w under cfg: set up, force a GC, time a pass, check, force
// a GC and read the live heap; repeat while another pass fits in
// cfg.seconds of wall time.
// A traced run alternates untraced and traced passes, so its tracing
// overhead compares passes of one process.
func measure(w workload, cfg runConfig) (*result, error) {
	minPasses := 1
	if cfg.traced {
		minPasses = 2
	}
	var (
		tr                           *tracer
		setups, walls, allocs, heaps []float64
		cpus, gcs, tracedCPUs        []float64
		layerSecs                    = map[string]float64{}
		layerAlloc                   = map[string]float64{}
		tracedPasses                 int
		attempted, failed            int
		problems                     []string
		first, last                  outcome
	)
	if cfg.traced {
		tr = newTracer()
	}
	start := time.Now()
	for rep := 0; ; rep++ {
		var rtr *tracer
		if cfg.traced && rep%2 == 1 {
			rtr = tr
		}
		repStart := time.Now()
		from := rtr.mark()
		endPass := rtr.begin("bench.pass", fmt.Sprintf("pass%d", rep))

		runtime.GC()
		c0 := processCPU()
		p, err := w.setup(cfg.seed, rtr)
		if err != nil {
			return nil, fmt.Errorf("%s: setup: %w", w.name, err)
		}
		setups = append(setups, processCPU()-c0)

		runtime.GC()
		var m meter
		m.start()
		err = p.run(&m, rtr)
		m.stop()
		endPass()
		if err != nil {
			return nil, fmt.Errorf("%s: pass: %w", w.name, err)
		}
		// The check runs before the live heap is read, so a pass can
		// release its per-operation results and the reading holds what
		// the program keeps: the platform and scenarios, still reachable.
		out := p.check()
		runtime.GC()
		heap := readRuntime(rmLive)[0]
		runtime.KeepAlive(p)

		if rtr != nil {
			tracedPasses++
			tracedCPUs = append(tracedCPUs, m.cpu)
			secs, alloc := rtr.selfTimes(from)
			for k, v := range secs {
				layerSecs[k] += v
			}
			for k, v := range alloc {
				layerAlloc[k] += v
			}
		} else {
			walls = append(walls, m.wall.Seconds())
			allocs = append(allocs, m.alloc)
			heaps = append(heaps, heap)
			cpus = append(cpus, m.cpu)
			gcs = append(gcs, m.gcCPU)
		}
		attempted += out.attempted
		failed += out.failed
		problems = append(problems, out.problems...)
		if rep == 0 {
			first = out
		} else if !sameValues(first, out) {
			failed++
			problems = append(problems, fmt.Sprintf("pass %d: simulated results or counts differ from pass 0", rep))
		}
		last = out
		// Stop before a pass that would end after cfg.seconds, so a run
		// measures for at most that long once its minimum passes are in.
		elapsed := time.Since(start).Seconds()
		if rep+1 >= minPasses && elapsed+time.Since(repStart).Seconds() > cfg.seconds {
			break
		}
	}
	for len(setups) < maxSetups && (len(setups) < minSetups || sum(setups) < minSetupSecs) {
		runtime.GC()
		c0 := processCPU()
		if _, err := w.setup(cfg.seed, nil); err != nil {
			return nil, fmt.Errorf("%s: setup: %w", w.name, err)
		}
		setups = append(setups, processCPU()-c0)
	}

	res := &result{
		correct:   failed == 0,
		attempted: attempted,
		failed:    failed,
		problems:  problems,
		passWall:  walls,
		passCPU:   cpus,
		setups:    setups,
		values:    map[string]float64{},
		samples:   last.samples,
		sim:       map[string]float64{},
	}
	for _, d := range append(endToEnd, perLayer...) {
		if d.clock == "sim" {
			res.sim[d.name] = last.values[d.name]
		}
	}
	if !cfg.traced {
		res.defs = endToEnd
		res.values["setup_s"] = median(setups)
		res.values["pass_cpu_s"] = median(cpus)
		res.values["alloc_mb"] = median(allocs) / 1e6
		res.values["heap_mb"] = median(heaps) / 1e6
		for _, d := range endToEnd {
			if d.clock == "sim" {
				res.values[d.name] = res.sim[d.name]
			}
		}
		return res, nil
	}

	res.defs = perLayer
	for _, d := range perLayer {
		res.values[d.name] = last.values[d.name]
	}
	// Span names are layer.operation; a layer's time metric is the
	// operation's self time per traced pass.
	self := map[string]float64{}
	for name, s := range layerSecs {
		self[name] = s / float64(tracedPasses)
		if _, ok := res.values[name+"_s"]; ok {
			res.values[name+"_s"] = self[name]
		}
		if _, ok := res.values[name+"_alloc_mb"]; ok {
			res.values[name+"_alloc_mb"] = layerAlloc[name] / float64(tracedPasses) / 1e6
		}
	}
	derive(res.values, self, median(cpus))
	res.values["runtime.cpu_s"] = median(cpus)
	res.values["runtime.gc_cpu_s"] = median(gcs)
	res.values["runtime.wall_s"] = median(walls)
	res.values["bench.trace_overhead_s"] = median(tracedCPUs) - median(cpus)
	if cfg.spans != "" {
		if err := tr.write(cfg.spans); err != nil {
			return nil, fmt.Errorf("write spans: %w", err)
		}
	}
	return res, nil
}

// derive fills the per-unit host costs from per-pass self times, counts
// and the untraced pass's CPU time.
func derive(v, self map[string]float64, pass float64) {
	ratio := func(num, den, scale float64) float64 {
		if den == 0 {
			return 0
		}
		return num / den * scale
	}
	v["exec.ns_per_event"] = ratio(v["exec.run_s"], v["exec.sim_events"], 1e9)
	v["baseline.us_per_candidate"] = ratio(v["baseline.search_s"], v["baseline.candidates"], 1e6)
	v["driver.host_us_per_request"] = ratio(self["driver.run"], v["driver.offered"], 1e6)
	v["device.host_ns_per_cmd"] = ratio(self["device.run"], v["nvme.reads"]+v["nvme.writes"]+v["nvme.calls"], 1e9)
	v["sim.ns_per_event"] = ratio(pass, v["sim.events"], 1e9)
}

func sum(xs []float64) float64 {
	var t float64
	for _, x := range xs {
		t += x
	}
	return t
}

// sameValues reports whether two passes produced identical simulated
// results and counts; the simulator is deterministic for a fixed seed.
func sameValues(a, b outcome) bool {
	if len(a.values) != len(b.values) {
		return false
	}
	for k, v := range a.values {
		if w, ok := b.values[k]; !ok || w != v {
			return false
		}
	}
	return true
}

// print writes the readable table and then the JSON result line.
func (r *result) print(w io.Writer, name string, cfg runConfig) error {
	nproc := runtime.NumCPU()
	fmt.Fprintf(w, "# workload=%s seed=%d seconds=%g trace=%t go=%s GOMAXPROCS=%d nproc=%d\n",
		name, cfg.seed, cfg.seconds, cfg.traced, runtime.Version(), runtime.GOMAXPROCS(0), nproc)
	fmt.Fprintln(w, "# sim metrics come from a model not validated against hardware; no error figure is given")
	fmt.Fprintf(w, "# untraced pass wall (s): %s\n", fmtSeconds(r.passWall))
	fmt.Fprintf(w, "# untraced pass CPU (s): %s\n", fmtSeconds(r.passCPU))
	fmt.Fprintf(w, "# setup CPU (s): n=%d median=%.4g min=%.4g max=%.4g\n", len(r.setups),
		median(r.setups), slices.Min(r.setups), slices.Max(r.setups))
	for _, p := range r.problems {
		fmt.Fprintf(w, "# FAILED: %s\n", p)
	}
	fmt.Fprintf(w, "# %-34s %16s %-6s %-5s %s\n", "metric", "value", "unit", "clock", "samples")
	out := map[string]map[string]any{}
	for _, d := range r.defs {
		v := r.values[d.name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("metric %s is %v", d.name, v)
		}
		n := ""
		if c, ok := r.samples[d.name]; ok {
			n = fmt.Sprint(c)
		}
		fmt.Fprintf(w, "# %-34s %16.6g %-6s %-5s %s\n", d.name, v, d.unit, d.clock, n)
		out[d.name] = map[string]any{"value": v, "unit": d.unit}
	}
	// Every simulated result is printed in either kind of run, so traced
	// and untraced runs can be compared.
	for _, d := range append(endToEnd, perLayer...) {
		if _, in := out[d.name]; !in && d.clock == "sim" {
			fmt.Fprintf(w, "# %-34s %16.6g %-6s %-5s %s\n", d.name, r.sim[d.name], d.unit, d.clock, "(not in result)")
		}
	}
	line, err := json.Marshal(map[string]any{
		"correct":   r.correct,
		"attempted": r.attempted,
		"failed":    r.failed,
		"metrics":   out,
	})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}

func main() {
	name := flag.String("workload", "", "sweep, pipeline, serving or device")
	seed := flag.Int64("seed", 42, "workload seed; 42 matches the committed benchmarks/BENCH_*.json")
	seconds := flag.Float64("seconds", 20, "repeat passes while another one fits in this many seconds")
	traced := flag.Int("trace", 0, "1 = traced run: per-layer metrics and tracing overhead")
	flag.Parse()
	if err := run(*name, *seed, *seconds, *traced); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(name string, seed int64, seconds float64, traced int) error {
	if traced != 0 && traced != 1 {
		return errors.New("--trace must be 0 or 1")
	}
	w, err := workloadByName(name, false)
	if err != nil {
		return err
	}
	cfg := runConfig{seed: seed, seconds: seconds, traced: traced == 1}
	if cfg.traced {
		cfg.spans = filepath.Join(".bench_build", "spans", fmt.Sprintf("%s-seed%d.json", name, seed))
	}
	res, err := measure(w, cfg)
	if err != nil {
		return err
	}
	return res.print(os.Stdout, name, cfg)
}

func fmtSeconds(xs []float64) string {
	parts := make([]string, len(xs))
	for i, x := range xs {
		parts[i] = fmt.Sprintf("%.4g", x)
	}
	return strings.Join(parts, " ")
}
