package main

import (
	"fmt"

	"activego/internal/csd"
	"activego/internal/fault"
	"activego/internal/nvme"
	"activego/internal/platform"
	"activego/internal/sim"
)

// The device workload drives the device substrate alone on the default
// 2 TiB platform, bypassing the language stack, the planner, the
// executor, the baselines and the serving driver: a closed loop at a
// fixed queue depth over one preloaded object. The NVMe command mix is
// 70% random reads, 20% overwrites (FTL remaps) and 10% CSE calls that
// read an extent on the device and compute over it. One read in seven is
// the host path of such a call: the host reads the extent and then
// computes over it on its own CPU, with work drawn from the calls'
// distribution, so the simulator itself prices what offloading saves.
// Commands are generated from the seed as they are issued.

const (
	deviceQD      = 32
	deviceIOBytes = 128 << 10
	deviceObject  = "perfbench-object"
	// Work units of one CSE call or host-path compute, drawn uniformly
	// from [min, min+span).
	callWorkMin  = 2.5e5
	callWorkSpan = 7.5e5
)

type opKind uint8

const (
	opRead     opKind = iota
	opWrite           // an overwrite of one extent
	opCall            // a CSE call: a device-side read plus compute
	opHostPath        // a host read plus compute on the host CPU
	numOpKinds
)

// deviceOp is one generated command.
type deviceOp struct {
	kind   opKind
	offset int64
	work   float64 // compute of a call or host-path operation
}

// opStream generates the command stream from a seed; the same seed gives
// the same stream, so the check can regenerate what the pass issued.
type opStream struct {
	state, extents uint64
}

func (s *opStream) next64() uint64 { s.state = fault.Mix64(s.state); return s.state }

func (s *opStream) next() deviceOp {
	var op deviceOp
	switch r := s.next64() % 10; {
	case r < 6:
		op.kind = opRead
	case r < 8:
		op.kind = opWrite
	case r < 9:
		op.kind = opCall
	default:
		op.kind = opHostPath
	}
	if op.kind == opCall || op.kind == opHostPath {
		op.work = callWorkMin + callWorkSpan*float64(s.next64()>>11)/(1<<53)
	}
	op.offset = int64(s.next64()%s.extents) * deviceIOBytes
	return op
}

func deviceWorkload(tiny bool) workload {
	if tiny {
		return newDevice(64<<20, 2000)
	}
	return newDevice(4<<30, 1_000_000)
}

// newDevice issues commands over an object of objBytes.
func newDevice(objBytes int64, commands int) workload {
	return workload{name: "device", setup: func(seed int64, tr *tracer) (pass, error) {
		end := tr.begin("platform.new", "setup")
		p := platform.Default()
		end()
		end = tr.begin("storage.preload", "setup")
		p.Dev.Store.Preload(deviceObject, objBytes)
		end()
		return &devicePass{
			plat:      p,
			seed:      uint64(seed),
			extents:   uint64(objBytes / deviceIOBytes),
			latency:   make([]float64, commands),
			status:    make([]uint16, commands),
			completed: make([]uint8, commands),
		}, nil
	}}
}

type devicePass struct {
	plat          *platform.Platform
	seed, extents uint64

	// Per command, filled by the pass and released by the check so the
	// live heap reading holds the platform only.
	latency    []float64 // simulated seconds from submission to completion
	status     []uint16
	completed  []uint8
	start, end sim.Time
}

func (d *devicePass) stream() *opStream { return &opStream{state: d.seed, extents: d.extents} }

func (d *devicePass) run(_ *meter, tr *tracer) error {
	p := d.plat
	n := len(d.latency)
	ops := d.stream()
	issued := 0
	var issue func()
	record := func(i int, latency sim.Time, status uint16) {
		d.latency[i] = latency
		d.status[i] = status
		d.completed[i]++
		if issued < n {
			issue()
		}
	}
	issue = func() {
		i := issued
		issued++
		op := ops.next()
		done := func(c nvme.Completion) { record(i, c.Completed-c.Submitted, c.Status) }
		switch op.kind {
		case opRead:
			p.Host.ReadObject(p.Dev, deviceObject, op.offset, deviceIOBytes, done)
		case opWrite:
			p.Host.WriteObject(p.Dev, deviceObject, op.offset, deviceIOBytes, done)
		case opCall:
			p.Host.Call(p.Dev, csd.Call(func(dev *csd.Device, finish func(uint16, any)) {
				dev.Store.ReadChecked(deviceObject, op.offset, deviceIOBytes, func(_, _ sim.Time, err error) {
					if err != nil {
						finish(nvme.StatusMediaError, err.Error())
						return
					}
					dev.CSE.Submit(op.work, func(_, _ sim.Time) { finish(nvme.StatusOK, nil) })
				})
			}), done)
		case opHostPath:
			p.Host.ReadObject(p.Dev, deviceObject, op.offset, deviceIOBytes, func(c nvme.Completion) {
				if c.Status != nvme.StatusOK {
					done(c)
					return
				}
				p.Host.CPU.Submit(op.work, func(_, end sim.Time) { record(i, end-c.Submitted, nvme.StatusOK) })
			})
		}
	}
	defer tr.begin("device.run", "pass")()
	d.start = p.Sim.Now()
	for k := 0; k < deviceQD && issued < n; k++ {
		issue()
	}
	p.Sim.Run()
	d.end = p.Sim.Now()
	return nil
}

func (d *devicePass) check() outcome {
	o := newOutcome()
	var counts [numOpKinds]int
	badStatus := 0
	var byKind [numOpKinds][]float64
	var all []float64
	ops := d.stream()
	for i := range d.latency {
		op := ops.next()
		o.attempted++
		counts[op.kind]++
		switch {
		case d.completed[i] != 1:
			o.fail("command %d completed %d times", i, d.completed[i])
			continue
		case d.status[i] != nvme.StatusOK:
			badStatus++
			o.fail("command %d: status %#x", i, d.status[i])
			continue
		}
		byKind[op.kind] = append(byKind[op.kind], d.latency[i])
		all = append(all, d.latency[i])
	}
	d.latency, d.status, d.completed = nil, nil, nil

	reads := counts[opRead] + counts[opHostPath]
	readBytes, writeBytes := d.plat.Dev.Store.Stats()
	wantRead := float64((reads + counts[opCall]) * deviceIOBytes)
	wantWrite := float64(counts[opWrite] * deviceIOBytes)
	if readBytes != wantRead || writeBytes != wantWrite {
		o.fail("store moved %v read / %v written bytes, commands issued %v / %v",
			readBytes, writeBytes, wantRead, wantWrite)
	}

	o.values["sim.p99_ms"] = nearestRank(all, 0.99) * 1e3
	o.values["sim.p99_samples"] = float64(len(all))
	o.samples["sim.p99_ms"] = len(all)
	if d.end > d.start {
		o.values["sim_iops"] = float64(len(all)) / (d.end - d.start)
	}
	// Calls and host-path operations draw their work from one
	// distribution and share the loop, so the ratio of their geometric
	// mean latencies is the geometric-mean speedup of offloading.
	if len(byKind[opCall]) > 0 && len(byKind[opHostPath]) > 0 {
		o.values["sim_speedup_geomean"] = geomean(byKind[opHostPath]) / geomean(byKind[opCall])
	}

	o.values["nvme.reads"] = float64(reads)
	o.values["nvme.writes"] = float64(counts[opWrite])
	o.values["nvme.calls"] = float64(counts[opCall])
	for k, name := range map[opKind]string{opRead: "read", opWrite: "write", opCall: "call"} {
		o.values[fmt.Sprintf("nvme.%s_p99_ms", name)] = nearestRank(byKind[k], 0.99) * 1e3
		o.samples[fmt.Sprintf("nvme.%s_p99_ms", name)] = len(byKind[k])
	}
	o.values["nvme.errors"] = float64(badStatus)
	o.values["platform.new_count"] = 1
	o.values["sim.events"] = float64(d.plat.Sim.EventsFired())
	platformValues(o.values, d.plat)
	return o
}
