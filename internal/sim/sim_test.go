package sim

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"activego/internal/trace"
)

func TestEventOrdering(t *testing.T) {
	s := New()
	var got []float64
	times := []float64{3, 1, 2, 5, 4, 0.5}
	for _, at := range times {
		at := at
		s.At(at, func() { got = append(got, at) })
	}
	s.Run()
	want := append([]float64(nil), times...)
	sort.Float64s(want)
	if len(got) != len(want) {
		t.Fatalf("fired %d events, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("event %d fired at %v, want %v", i, got[i], want[i])
		}
	}
	if s.Now() != 5 {
		t.Errorf("clock at %v, want 5", s.Now())
	}
}

func TestTieBreakBySchedulingOrder(t *testing.T) {
	s := New()
	var got []int
	for i := 0; i < 10; i++ {
		i := i
		s.At(1, func() { got = append(got, i) })
	}
	s.Run()
	for i, v := range got {
		if v != i {
			t.Fatalf("tie order broken at %d: %v", i, got)
		}
	}
}

func TestCancel(t *testing.T) {
	s := New()
	fired := false
	e := s.At(1, func() { fired = true })
	e.Cancel()
	s.Run()
	if fired {
		t.Error("canceled event fired")
	}
	if !e.Canceled() {
		t.Error("Canceled() false after Cancel")
	}
}

func TestSchedulingInPastPanics(t *testing.T) {
	s := New()
	s.At(2, func() {})
	s.Run()
	defer func() {
		if recover() == nil {
			t.Error("scheduling in the past must panic")
		}
	}()
	s.At(1, func() {})
}

func TestRunUntil(t *testing.T) {
	s := New()
	fired := 0
	s.At(1, func() { fired++ })
	s.At(2, func() { fired++ })
	s.At(3, func() { fired++ })
	s.RunUntil(2)
	if fired != 2 {
		t.Errorf("fired %d events by t=2, want 2", fired)
	}
	if s.Now() != 2 {
		t.Errorf("clock at %v, want 2", s.Now())
	}
	s.Run()
	if fired != 3 {
		t.Errorf("fired %d total, want 3", fired)
	}
}

func TestNestedScheduling(t *testing.T) {
	s := New()
	depth := 0
	var recurse func()
	recurse = func() {
		depth++
		if depth < 100 {
			s.After(0.1, recurse)
		}
	}
	s.After(0.1, recurse)
	s.Run()
	if depth != 100 {
		t.Errorf("depth %d, want 100", depth)
	}
}

// TestClockMonotone is a property test: under any random schedule, event
// callbacks observe a non-decreasing clock.
func TestClockMonotone(t *testing.T) {
	f := func(seed int64, n uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		s := New()
		last := -1.0
		ok := true
		var schedule func(remaining int)
		schedule = func(remaining int) {
			if remaining <= 0 {
				return
			}
			s.After(rng.Float64(), func() {
				if s.Now() < last {
					ok = false
				}
				last = s.Now()
				if rng.Intn(2) == 0 {
					schedule(remaining - 1)
				}
			})
			schedule(remaining - 1)
		}
		schedule(int(n%12) + 1)
		s.Run()
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

func TestResourceSingleJob(t *testing.T) {
	s := New()
	r := NewResource(s, "r", 1, 100)
	var start, end Time
	r.Submit(200, func(st, en Time) { start, end = st, en })
	s.Run()
	if start != 0 || end != 2 {
		t.Errorf("job ran [%v,%v], want [0,2]", start, end)
	}
}

func TestResourceFIFOQueueing(t *testing.T) {
	s := New()
	r := NewResource(s, "r", 1, 100)
	var ends []Time
	for i := 0; i < 3; i++ {
		r.Submit(100, func(_, en Time) { ends = append(ends, en) })
	}
	s.Run()
	want := []Time{1, 2, 3}
	for i := range want {
		if ends[i] != want[i] {
			t.Errorf("job %d ended at %v, want %v", i, ends[i], want[i])
		}
	}
}

func TestResourceMultiServer(t *testing.T) {
	s := New()
	r := NewResource(s, "r", 2, 100)
	var ends []Time
	for i := 0; i < 4; i++ {
		r.Submit(100, func(_, en Time) { ends = append(ends, en) })
	}
	s.Run()
	// Two cores: jobs finish at 1,1,2,2.
	want := []Time{1, 1, 2, 2}
	for i := range want {
		if ends[i] != want[i] {
			t.Errorf("job %d ended at %v, want %v", i, ends[i], want[i])
		}
	}
}

func TestResourceAvailabilityRescalesInFlight(t *testing.T) {
	s := New()
	r := NewResource(s, "r", 1, 100)
	var end Time
	r.Submit(100, func(_, en Time) { end = en }) // 1s at full rate
	// Halfway through, availability drops to 50%: remaining 50 units now
	// take 1s, so completion moves from t=1 to t=1.5.
	s.At(0.5, func() { r.SetAvailability(0.5) })
	s.Run()
	if end < 1.499 || end > 1.501 {
		t.Errorf("rescaled job ended at %v, want 1.5", end)
	}
}

func TestResourceAvailabilityRestores(t *testing.T) {
	s := New()
	r := NewResource(s, "r", 1, 100)
	var end Time
	r.Submit(100, func(_, en Time) { end = en })
	s.At(0.25, func() { r.SetAvailability(0.5) })
	s.At(0.75, func() { r.SetAvailability(1.0) })
	// 25 units by 0.25; 25 units in [0.25,0.75] at half rate; 50 left at
	// full rate -> ends at 1.25.
	s.Run()
	if end < 1.249 || end > 1.251 {
		t.Errorf("job ended at %v, want 1.25", end)
	}
}

// TestResourceWorkConservation is a property test: total completed work
// equals total submitted work, for any schedule of jobs and availability
// changes.
func TestResourceWorkConservation(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		s := New()
		r := NewResource(s, "r", 1+rng.Intn(4), 1+rng.Float64()*100)
		var submitted float64
		n := 1 + rng.Intn(10)
		for i := 0; i < n; i++ {
			w := rng.Float64() * 50
			submitted += w
			at := rng.Float64() * 2
			s.At(at, func() { r.Submit(w, nil) })
		}
		for i := 0; i < 3; i++ {
			at := rng.Float64() * 3
			frac := 0.1 + 0.9*rng.Float64()
			s.At(at, func() { r.SetAvailability(frac) })
		}
		s.Run()
		done := r.CompletedWork()
		return done > submitted*0.999 && done < submitted*1.001
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestResourceUtilization(t *testing.T) {
	s := New()
	r := NewResource(s, "r", 2, 100)
	r.Submit(100, nil) // one core busy 1s
	s.Run()
	s.At(s.Now()+1, func() {}) // idle second
	s.Run()
	u := r.Utilization()
	if u < 0.24 || u > 0.26 {
		t.Errorf("utilization %v, want 0.25 (1 of 2 cores for 1 of 2 seconds)", u)
	}
}

func TestLinkTransferTime(t *testing.T) {
	s := New()
	l := NewLink(s, "l", 1000, 0.01)
	var end Time
	l.Transfer(500, func(_, en Time) { end = en })
	s.Run()
	if end < 0.509 || end > 0.511 {
		t.Errorf("transfer ended at %v, want 0.51", end)
	}
	if got := l.TransferTime(500); got < 0.509 || got > 0.511 {
		t.Errorf("TransferTime %v, want 0.51", got)
	}
}

func TestLinkSerializesFIFO(t *testing.T) {
	s := New()
	l := NewLink(s, "l", 1000, 0)
	var ends []Time
	l.Transfer(1000, func(_, en Time) { ends = append(ends, en) })
	l.Transfer(1000, func(_, en Time) { ends = append(ends, en) })
	s.Run()
	if ends[0] != 1 || ends[1] != 2 {
		t.Errorf("transfers ended at %v, want [1 2]", ends)
	}
}

func TestLinkZeroByteDoorbell(t *testing.T) {
	s := New()
	l := NewLink(s, "l", 1000, 0.005)
	var end Time
	l.Transfer(0, func(_, en Time) { end = en })
	s.Run()
	if end != 0.005 {
		t.Errorf("doorbell landed at %v, want 0.005 (latency only)", end)
	}
}

func TestLinkStats(t *testing.T) {
	s := New()
	l := NewLink(s, "l", 1000, 0)
	l.Transfer(300, nil)
	l.Transfer(700, nil)
	s.Run()
	if l.TotalBytes() != 1000 || l.TotalTransfers() != 2 {
		t.Errorf("stats: %v bytes / %d transfers, want 1000/2", l.TotalBytes(), l.TotalTransfers())
	}
	if u := l.Utilization(); u < 0.99 || u > 1.0 {
		t.Errorf("utilization %v, want ~1 (wire always busy)", u)
	}
}

// TestEventRecycling pins the free-list mechanics behind the kernel's
// zero-alloc steady state: fired and canceled events return to the free
// list with their callback dropped (so the list never pins closures),
// and a subsequent schedule reuses the same struct.
func TestEventRecycling(t *testing.T) {
	s := New()
	e1 := s.After(1, func() {})
	s.Run()
	if len(s.free) != 1 || s.free[0] != e1 {
		t.Fatalf("after firing, free list = %v, want the fired event", s.free)
	}
	if e1.fn != nil {
		t.Error("recycled event still holds its callback")
	}

	e2 := s.After(1, func() {})
	if e2 != e1 {
		t.Error("schedule after recycle allocated a fresh Event instead of reusing the free one")
	}
	e2.Cancel()
	s.Run()
	if len(s.free) != 1 || s.free[0] != e2 {
		t.Fatalf("canceled event was not recycled; free list = %v", s.free)
	}
}

// TestSteadyStateAllocFree pins the headline: once the free list is
// primed, schedule+fire allocates nothing.
func TestSteadyStateAllocFree(t *testing.T) {
	s := New()
	fn := func() {}
	s.After(1, fn) // prime the free list
	s.Run()
	allocs := testing.AllocsPerRun(100, func() {
		s.After(1, fn)
		s.Run()
	})
	if allocs != 0 {
		t.Errorf("steady-state schedule+fire allocates %.1f objects/op, want 0", allocs)
	}
}

// TestResourceRebookOrderDeterministic pins the tie-break of rebooked
// completions: eight identical jobs on eight cores all finish at the same
// instant after a mid-run availability change, so the order their done
// callbacks fire in is decided by the seq each rebooking takes. Rebooking
// walks the in-service jobs in start order, so done fires in submission
// order in every trial.
func TestResourceRebookOrderDeterministic(t *testing.T) {
	for trial := 0; trial < 200; trial++ {
		s := New()
		r := NewResource(s, "r", 8, 100)
		var order []int
		for i := 0; i < 8; i++ {
			r.Submit(100, func(_, _ Time) { order = append(order, i) })
		}
		s.At(0.5, func() { r.SetAvailability(0.5) })
		s.Run()
		if len(order) != 8 {
			t.Fatalf("trial %d: %d completions, want 8", trial, len(order))
		}
		for i, got := range order {
			if got != i {
				t.Fatalf("trial %d: completion order %v, want submission order", trial, order)
			}
		}
	}
}

// TestResourceRebookWithRecycledJobs changes availability mid-job on jobs
// that reuse recycled structs, including one submitted from another job's
// done callback. Each rebooking must cancel the old completion and land
// at the rescaled time, and every done must fire exactly once.
func TestResourceRebookWithRecycledJobs(t *testing.T) {
	s := New()
	r := NewResource(s, "r", 1, 100)
	r.Submit(100, nil) // prime the job free list
	s.Run()
	if len(r.free) != 1 {
		t.Fatalf("job free list has %d entries after one job, want 1", len(r.free))
	}
	recycled := r.free[0]

	t0 := s.Now()
	var ends []Time
	r.Submit(100, func(_, en Time) {
		ends = append(ends, en)
		// Re-enter: the finished job is already back on the free list, so
		// this submission reuses it.
		r.Submit(100, func(_, en Time) { ends = append(ends, en) })
	})
	if len(r.free) != 0 || r.inFly[0] != recycled {
		t.Fatal("submit after a completion did not reuse the recycled job")
	}
	// First job: 50 units by t0+0.5, the rest at half rate -> t0+1.5.
	s.At(t0+0.5, func() { r.SetAvailability(0.5) })
	// Second job starts at t0+1.5 at half rate: 25 units by t0+2, the
	// remaining 75 at full rate -> t0+2.75.
	s.At(t0+2, func() { r.SetAvailability(1) })
	s.Run()
	want := []Time{t0 + 1.5, t0 + 2.75}
	if len(ends) != len(want) {
		t.Fatalf("%d completions %v, want %v", len(ends), ends, want)
	}
	for i := range want {
		if d := ends[i] - want[i]; d < -1e-9 || d > 1e-9 {
			t.Errorf("job %d ended at %v, want %v", i, ends[i], want[i])
		}
	}
	if got := r.CompletedWork(); got < 300-1e-6 || got > 300+1e-6 {
		t.Errorf("completed work %v, want 300", got)
	}
	if r.InFlight() != 0 || r.QueueLen() != 0 || len(r.inFly) != 0 {
		t.Errorf("resource not drained: %d in flight, %d queued", r.InFlight(), r.QueueLen())
	}
}

// TestResourceSteadyStateAllocFree: once the job and event free lists are
// primed, a queued Submit and its completion allocate nothing.
func TestResourceSteadyStateAllocFree(t *testing.T) {
	s := New()
	r := NewResource(s, "r", 2, 100)
	done := func(_, _ Time) {}
	for i := 0; i < 4; i++ { // two in service, two queued
		r.Submit(100, done)
	}
	s.Run()
	allocs := testing.AllocsPerRun(100, func() {
		for i := 0; i < 4; i++ {
			r.Submit(100, done)
		}
		s.Run()
	})
	if allocs != 0 {
		t.Errorf("steady-state Submit+fire allocates %.1f objects/op, want 0", allocs)
	}
}

// TestLinkSteadyStateAllocFree: once the transfer and event free lists
// are primed, Transfer and its arrival allocate nothing.
func TestLinkSteadyStateAllocFree(t *testing.T) {
	s := New()
	l := NewLink(s, "l", 1000, 0.001)
	done := func(_, _ Time) {}
	l.Transfer(100, done)
	l.Transfer(100, done)
	s.Run()
	allocs := testing.AllocsPerRun(100, func() {
		l.Transfer(100, done)
		l.Transfer(100, done)
		s.Run()
	})
	if allocs != 0 {
		t.Errorf("steady-state Transfer+fire allocates %.1f objects/op, want 0", allocs)
	}
}

// TestRecycledPathsTracedEqualsUntraced runs the same mixed resource and
// link schedule — re-entrant submissions and transfers, a mid-run
// availability change — with and without a recorder. Recording must not
// perturb any completion, and the traced run must account for every
// transfer's bytes.
func TestRecycledPathsTracedEqualsUntraced(t *testing.T) {
	run := func(rec *trace.Recorder) ([]Time, *Link) {
		s := New()
		s.SetRecorder(rec)
		r := NewResource(s, "r", 2, 100)
		l := NewLink(s, "l", 1000, 0.001)
		var ends []Time
		var step func(i int)
		step = func(i int) {
			if i == 0 {
				return
			}
			r.Submit(float64(10*i), func(_, en Time) {
				ends = append(ends, en)
				l.Transfer(float64(50*i), func(_, en Time) {
					ends = append(ends, en)
					step(i - 1)
				})
			})
		}
		for k := 0; k < 3; k++ {
			step(6)
		}
		s.At(0.3, func() { r.SetAvailability(0.4) })
		s.Run()
		return ends, l
	}
	plain, _ := run(nil)
	rec := trace.New()
	traced, l := run(rec)
	if len(plain) != len(traced) {
		t.Fatalf("traced run completed %d operations, untraced %d", len(traced), len(plain))
	}
	for i := range plain {
		if plain[i] != traced[i] {
			t.Fatalf("completion %d: traced %v, untraced %v", i, traced[i], plain[i])
		}
	}
	var xfers int
	var bytes float64
	for _, sp := range rec.Spans() {
		if sp.Name == "xfer" {
			xfers++
			bytes += sp.Args[0].Value.(float64)
		}
	}
	if xfers != len(plain)/2 {
		t.Errorf("traced run recorded %d transfer spans, want %d", xfers, len(plain)/2)
	}
	if bytes != l.TotalBytes() || l.bytesInflight != 0 {
		t.Errorf("transfer spans carry %v bytes of %v moved, %v still in flight; want all landed",
			bytes, l.TotalBytes(), l.bytesInflight)
	}
}
