package main

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"runtime/metrics"
	"sort"
	"syscall"
	"time"
)

// Go runtime counters read around a timed window.
const (
	rmAllocs = "/gc/heap/allocs:bytes"
	rmLive   = "/gc/heap/live:bytes"
	rmGCCPU  = "/cpu/classes/gc/total:cpu-seconds"
)

// readRuntime samples the named runtime/metrics values.
func readRuntime(names ...string) []float64 {
	s := make([]metrics.Sample, len(names))
	for i, n := range names {
		s[i].Name = n
	}
	metrics.Read(s)
	out := make([]float64, len(s))
	for i := range s {
		switch s[i].Value.Kind() {
		case metrics.KindUint64:
			out[i] = float64(s[i].Value.Uint64())
		case metrics.KindFloat64:
			out[i] = s[i].Value.Float64()
		}
	}
	return out
}

// processCPU is this process's user plus system CPU time in seconds.
func processCPU() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// meter accumulates host wall time, heap allocation and CPU over one or
// more running intervals. A pass is timed by one meter; a workload that
// must keep an output check inside its loop stops the meter around it.
type meter struct {
	running           bool
	t0                time.Time
	alloc0, cpu0, gc0 float64
	wall              time.Duration
	alloc, cpu, gcCPU float64
}

func (m *meter) start() {
	if m.running {
		return
	}
	m.running = true
	v := readRuntime(rmAllocs, rmGCCPU)
	m.alloc0, m.gc0 = v[0], v[1]
	m.cpu0 = processCPU()
	m.t0 = time.Now()
}

func (m *meter) stop() {
	if !m.running {
		return
	}
	m.wall += time.Since(m.t0)
	m.cpu += processCPU() - m.cpu0
	v := readRuntime(rmAllocs, rmGCCPU)
	m.alloc += v[0] - m.alloc0
	m.gcCPU += v[1] - m.gc0
	m.running = false
}

// median of xs (xs is not modified); NaN when empty.
func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quantile is the linearly interpolated q-quantile of xs.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

// nearestRank is the nearest-rank q-quantile of xs, the convention the
// simulator's own exact percentiles use: a value that was observed.
func nearestRank(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	k := int(math.Ceil(q*float64(len(s)))) - 1
	if k < 0 {
		k = 0
	}
	return s[k]
}

// geomean of positive xs; 0 when empty.
func geomean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += math.Log(x)
	}
	return math.Exp(sum / float64(len(xs)))
}

// span is one call the benchmark made into a layer, on the host clock.
// Group is the program, study, scenario or pass the call belongs to;
// Parent indexes the enclosing span (-1 for none).
type span struct {
	Name   string  `json:"name"`
	Group  string  `json:"group"`
	Parent int     `json:"parent"`
	Start  float64 `json:"start_s"`
	End    float64 `json:"end_s"`
	Alloc  float64 `json:"alloc_bytes"`
}

// tracer keeps spans in memory for the traced run. A nil *tracer records
// nothing, so untraced code paths call it unconditionally.
type tracer struct {
	t0    time.Time
	spans []span
	open  []int
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span and returns the function that closes it.
func (t *tracer) begin(name, group string) func() {
	if t == nil {
		return func() {}
	}
	parent := -1
	if n := len(t.open); n > 0 {
		parent = t.open[n-1]
	}
	idx := len(t.spans)
	a0 := readRuntime(rmAllocs)[0]
	t.spans = append(t.spans, span{Name: name, Group: group, Parent: parent,
		Start: time.Since(t.t0).Seconds()})
	t.open = append(t.open, idx)
	return func() {
		sp := &t.spans[idx]
		sp.End = time.Since(t.t0).Seconds()
		sp.Alloc = readRuntime(rmAllocs)[0] - a0
		t.open = t.open[:len(t.open)-1]
	}
}

// mark returns the current span count, so a caller can reduce only the
// spans recorded after it.
func (t *tracer) mark() int {
	if t == nil {
		return 0
	}
	return len(t.spans)
}

// selfTimes reduces the spans recorded since from to self time and self
// allocation per span name: a span's duration minus the part its child
// spans cover.
func (t *tracer) selfTimes(from int) (secs, alloc map[string]float64) {
	secs, alloc = map[string]float64{}, map[string]float64{}
	if t == nil {
		return
	}
	childT := make([]float64, len(t.spans))
	childA := make([]float64, len(t.spans))
	for i := from; i < len(t.spans); i++ {
		if p := t.spans[i].Parent; p >= from {
			childT[p] += t.spans[i].End - t.spans[i].Start
			childA[p] += t.spans[i].Alloc
		}
	}
	for i := from; i < len(t.spans); i++ {
		sp := t.spans[i]
		secs[sp.Name] += sp.End - sp.Start - childT[i]
		alloc[sp.Name] += sp.Alloc - childA[i]
	}
	return
}

// write stores every span as JSON at path.
func (t *tracer) write(path string) error {
	if t == nil {
		return nil
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	data, err := json.MarshalIndent(t.spans, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
