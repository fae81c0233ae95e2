package main

import (
	"fmt"
	"sort"
	"strings"

	"activego/internal/baseline"
	"activego/internal/codegen"
	"activego/internal/driver"
	"activego/internal/exec"
	"activego/internal/experiments"
	"activego/internal/metrics"
	"activego/internal/plan"
	"activego/internal/platform"
	"activego/internal/workloads"
)

// The serving workload is driver.Run with the serving study's three
// tenants (interactive and batch Poisson streams, a spiky bursty one) on
// one long-lived platform, open loop at servingLoad of the capacity
// calibrated from solo service times. Scenario builds (sampling,
// planning, the plan cache) and the calibration run in setup; the pass
// is request replay contending on the CSE, the link and the NVMe queue.

// servingLoad is the offered rate as a fraction of calibrated capacity.
const servingLoad = 0.2

// servingQueue bounds the admission queue high enough that the spiky
// tenant's bursts queue instead of shedding: every offered request is
// served, so a shed or failed request is a real failure.
const servingQueue = 1 << 16

func servingWorkload(tiny bool) workload {
	if tiny {
		return newServing(2048, 40)
	}
	return newServing(2048, 3000)
}

// newServing offers about perTenant requests per tenant at scaleDiv.
func newServing(scaleDiv int64, perTenant int) workload {
	return workload{name: "serving", setup: func(seed int64, tr *tracer) (pass, error) {
		params := workloads.Params{ScaleDiv: scaleDiv, Seed: seed}
		// A cold cache per setup: every setup builds the same scenarios,
		// so each pays the same misses and hits.
		driver.SetPlanCache(plan.NewCache())
		specs := experiments.ServingTenants
		mixes := make([]*driver.Mix, len(specs))
		for i, spec := range specs {
			end := tr.begin("driver.build", spec.Name)
			mix, err := driver.BuildMix(params, spec.Weights)
			end()
			if err != nil {
				return nil, fmt.Errorf("tenant %s: %w", spec.Name, err)
			}
			mixes[i] = mix
		}
		cache := driver.PlanCacheStats()

		end := tr.begin("driver.calibrate", "setup")
		solo, hostOnly, err := calibrate(mixes, tr)
		end()
		if err != nil {
			return nil, err
		}
		// Capacity is the study's: service slots over the tenants' mean
		// mix-weighted solo service time.
		var mean float64
		for _, spec := range specs {
			var acc, wsum float64
			for _, w := range spec.Weights {
				acc += w.Weight * solo[w.Name]
				wsum += w.Weight
			}
			mean += acc / wsum
		}
		mean /= float64(len(specs))
		totalQPS := servingLoad * experiments.ServingMaxInFlight / mean
		horizon := float64(perTenant*len(specs)) / totalQPS

		tenants := make([]driver.TenantConfig, len(specs))
		for i, spec := range specs {
			arr := driver.Arrival{Process: spec.Process, QPS: totalQPS / float64(len(specs))}
			if spec.Process == driver.Bursty {
				arr.BurstFactor, arr.DutyCycle = spec.BurstFactor, spec.DutyCycle
				arr.Period = 10 * mean
			}
			tenants[i] = driver.TenantConfig{Name: spec.Name, Mix: mixes[i], Arrival: arr}
		}

		end = tr.begin("platform.new", "setup")
		p := platform.Default()
		end()
		var speedups []float64
		for _, name := range sortedKeys(solo) {
			speedups = append(speedups, hostOnly[name]/solo[name])
		}
		return &servingPass{
			plat:      p,
			platforms: 1 + 2*len(solo),
			speedup:   geomean(speedups),
			cache:     cache,
			cfg: driver.Config{
				Seed:        uint64(seed),
				Duration:    horizon,
				Tenants:     tenants,
				MaxInFlight: experiments.ServingMaxInFlight,
				MaxQueue:    servingQueue,
				Metrics:     metrics.New(),
				// One window spanning the whole run: the driver's windowed
				// series give exact per-tenant percentiles.
				ObsWindow: 1e9,
			},
		}, nil
	}}
}

// calibrate measures each scenario's solo warm ActivePy service time and
// its host-only C time, each on a fresh platform.
func calibrate(mixes []*driver.Mix, tr *tracer) (solo, hostOnly map[string]float64, err error) {
	solo, hostOnly = map[string]float64{}, map[string]float64{}
	for _, mix := range mixes {
		for _, sc := range mix.Scenarios() {
			if _, done := solo[sc.Name]; done {
				continue
			}
			end := tr.begin("platform.new", sc.Name)
			p, hp := platform.Default(), platform.Default()
			end()
			res, err := exec.Run(p, sc.Trace, exec.Options{
				Backend: sc.Backend, Partition: sc.Partition, Estimates: sc.Estimates,
				OverheadScale: sc.OverheadScale, UseCallQueue: true, Warm: true,
			})
			if err != nil {
				return nil, nil, fmt.Errorf("calibrate %s: %w", sc.Name, err)
			}
			base, err := baseline.RunHostOnly(hp, sc.Trace, codegen.C)
			if err != nil {
				return nil, nil, fmt.Errorf("calibrate %s: host-only: %w", sc.Name, err)
			}
			solo[sc.Name], hostOnly[sc.Name] = res.Duration, base.Duration
		}
	}
	return solo, hostOnly, nil
}

type servingPass struct {
	plat      *platform.Platform
	platforms int // built in setup, the serving one included
	cfg       driver.Config
	speedup   float64
	cache     plan.CacheStats
	res       *driver.Result
	err       error
}

func (s *servingPass) run(_ *meter, tr *tracer) error {
	end := tr.begin("driver.run", "pass")
	s.res, s.err = driver.Run(s.plat, s.cfg)
	end()
	return nil
}

func (s *servingPass) check() outcome {
	o := newOutcome()
	if s.err != nil {
		o.attempted++
		o.fail("driver.Run: %v", s.err)
		return o
	}
	r := s.res
	var worstP99, worstP50 float64
	var samples int
	for i, t := range r.Tenants {
		o.attempted += t.Offered
		if t.Offered != t.Completed+t.Failed+t.Shed {
			o.fail("tenant %s: offered %d != completed %d + failed %d + shed %d",
				t.Name, t.Offered, t.Completed, t.Failed, t.Shed)
		}
		if n := t.Failed + t.Shed; n > 0 {
			o.failN(n, "tenant %s: %d failed, %d shed", t.Name, t.Failed, t.Shed)
		}
		p50, p99, n := tenantPercentiles(s.cfg.Metrics, i)
		if n != t.Completed {
			o.fail("tenant %s: %d latency samples for %d completed requests", t.Name, n, t.Completed)
		}
		if p99 > worstP99 {
			worstP99, samples = p99, n
		}
		if p50 > worstP50 {
			worstP50 = p50
		}
	}
	o.values["sim_speedup_geomean"] = s.speedup
	o.values["sim.p99_ms"] = worstP99 * 1e3
	o.values["sim.p99_samples"] = float64(samples)
	o.samples["sim.p99_ms"] = samples
	var commands uint64
	if r.Makespan > 0 {
		_, commands = s.plat.Dev.QP.Stats()
		o.values["sim_iops"] = float64(commands) / r.Makespan
	}
	o.values["driver.offered"] = float64(r.Offered)
	o.values["driver.completed"] = float64(r.Completed)
	o.values["driver.shed"] = float64(r.Shed)
	o.values["driver.failed"] = float64(r.Failed)
	for _, t := range r.Tenants {
		o.values["driver.queued"] += float64(t.Queued)
	}
	o.values["driver.sim_p50_ms"] = worstP50 * 1e3
	o.values["driver.jain"] = r.Fairness
	o.values["plan.cache_hits"] = float64(s.cache.Hits)
	o.values["plan.cache_misses"] = float64(s.cache.Misses)
	o.values["platform.new_count"] = float64(s.platforms)
	o.values["sim.events"] = float64(s.plat.Sim.EventsFired())
	platformValues(o.values, s.plat)
	return o
}

// tenantPercentiles reads tenant i's exact latency p50 and p99 and the
// sample count from the single window the run folded into reg.
func tenantPercentiles(reg *metrics.Registry, i int) (p50, p99 float64, n int) {
	series := fmt.Sprintf(".t%d.latency.seconds.", i)
	for _, g := range reg.Snapshot().Gauges {
		if !strings.HasPrefix(g.Name, metrics.ObsWindowPrefix) || !strings.Contains(g.Name, series) {
			continue
		}
		switch {
		case strings.HasSuffix(g.Name, ".p50"):
			p50 = g.Value
		case strings.HasSuffix(g.Name, ".p99"):
			p99 = g.Value
		case strings.HasSuffix(g.Name, ".count"):
			n = int(g.Value)
		}
	}
	return p50, p99, n
}

// platformValues reads the device and simulator counters of p.
func platformValues(v map[string]float64, p *platform.Platform) {
	reads, programs, _, _, _ := p.Dev.Array.Stats()
	gcRuns, _, _ := p.Dev.FTL.Stats()
	v["flash.reads"] = float64(reads)
	v["flash.programs"] = float64(programs)
	v["ftl.mapped_pages"] = float64(p.Dev.FTL.MappedPages())
	v["ftl.gc_runs"] = float64(gcRuns)
	v["sim.cse_util"] = p.Dev.CSE.Utilization()
	v["sim.d2h_util"] = p.Topo.D2H.Utilization()
	v["sim.host_util"] = p.Host.CPU.Utilization()
}

// sortedKeys lists m's keys in order, for deterministic iteration.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
