package exec

import (
	"activego/internal/lang/interp"
	"activego/internal/sim"
)

// runRecord bills one dynamic line on the given unit and calls done when
// its last event completes (with the storage error, if the line's data
// access failed). The phases run strictly in sequence, the way a single
// program thread experiences them: pull remote operands, read storage,
// compute, then (on the CSD) emit the status update.
func (e *executor) runRecord(rec *interp.LineRecord, unit Unit, done func(err error)) {
	e.pullRemoteReads(rec, unit, func() {
		e.readStorage(rec, unit, func(err error) {
			if err != nil {
				// The line's data never materialized; computing on it
				// would be garbage-in. Fail the line at this phase.
				done(err)
				return
			}
			e.compute(rec, unit, func() {
				if unit == UnitCSD {
					// Status updates are fire-and-forget (§III-C-b): the
					// line does not stall on the report landing.
					e.p.Dev.SendStatus(nil)
				}
				done(nil)
			})
		})
	})
}

// pullRemoteReads moves any consumed variables that live on the other
// side of the link. In the shared address space this is a remote access;
// the executor models it with move semantics so repeated consumers pay
// once.
func (e *executor) pullRemoteReads(rec *interp.LineRecord, unit Unit, done func()) {
	var bytes int64
	for _, r := range rec.Reads {
		st, ok := e.varHome[r.Name]
		if !ok {
			continue
		}
		if st.unit != unit {
			bytes += st.bytes
			st.unit = unit
			e.varHome[r.Name] = st
		}
	}
	if bytes == 0 {
		done()
		return
	}
	e.p.Topo.D2H.Transfer(float64(bytes), func(_, _ sim.Time) { done() })
}

// readStorage bills the line's data-access volume: the flash array always
// pays; a host consumer additionally streams the data across the external
// link — the DS_raw / BW_D2H term of Equation 1. The array read and the
// link stream proceed in a pipeline (NVMe reads stream pages as they are
// sensed), so the host path costs the *slower* of the two stages, not
// their sum; both queues are still occupied for contention purposes.
func (e *executor) readStorage(rec *interp.LineRecord, unit Unit, done func(err error)) {
	bytes := rec.Cost.StorageBytes
	if bytes == 0 {
		done(nil)
		return
	}
	if unit == UnitHost {
		remaining := 2
		var readErr error
		dec := func(err error) {
			if err != nil {
				readErr = err
			}
			remaining--
			if remaining == 0 {
				done(readErr)
			}
		}
		e.p.Dev.Array.ReadChecked(bytes, func(_, _ sim.Time, err error) { dec(err) })
		e.p.Topo.D2H.Transfer(float64(bytes), func(_, _ sim.Time) { dec(nil) })
		return
	}
	e.p.Dev.Array.ReadChecked(bytes, func(_, _ sim.Time, err error) { done(err) })
}

// compute bills kernel work (data-parallel across the unit's cores),
// surviving glue (serial), and wrapper copies (memory bus), in sequence.
func (e *executor) compute(rec *interp.LineRecord, unit Unit, done func()) {
	res := e.p.Host.CPU
	mem := e.p.Topo.HostMem
	if unit == UnitCSD {
		res = e.p.Dev.CSE
		mem = e.p.Topo.DevMem
	}
	b := e.opts.Backend

	kernelDone := func() {
		glue := b.GlueFactor * rec.Cost.GlueWork
		glueDone := func() {
			if !b.CopyElim && rec.Cost.CopyBytes > 0 {
				mem.Transfer(float64(rec.Cost.CopyBytes), func(_, _ sim.Time) { done() })
				return
			}
			done()
		}
		if glue <= 0 {
			glueDone()
			return
		}
		res.Submit(glue, func(_, _ sim.Time) { glueDone() })
	}

	work := rec.Cost.KernelWork
	if work <= 0 {
		kernelDone()
		return
	}
	// Data-parallel: split across the unit's cores, complete when the
	// slowest shard finishes. Every shard shares one completion callback.
	cores := res.Cores()
	remaining := cores
	shard := work / float64(cores)
	shardDone := func(_, _ sim.Time) {
		remaining--
		if remaining == 0 {
			kernelDone()
		}
	}
	for i := 0; i < cores; i++ {
		res.Submit(shard, shardDone)
	}
}
