package flash

import (
	"fmt"
	"math/rand"
	"runtime"
	"testing"

	"activego/internal/sim"
)

// eagerFTL is the reference model for FTL, written the direct way: it
// builds per-block state and a free list for every block of the geometry
// up front, and scans every block for a GC victim. It tracks the mapping
// only — channel billing for GC copy-back is the array's concern and
// cannot change which physical page a write lands on.
type eagerFTL struct {
	pagesPerBlk int
	totalBlocks int64

	l2p        map[int64]int64
	validCount []int     // -1 marks erased/free
	owner      [][]int64 // owner[block][slot] = logical page or -1
	freeBlocks []int64
	openBlock  int64
	openSlot   int

	gcLowWater int
	gcRuns     uint64
	gcMoved    uint64
}

func newEagerFTL(g Geometry) *eagerFTL {
	f := &eagerFTL{
		pagesPerBlk: g.PagesPerBlk,
		totalBlocks: g.Blocks,
		l2p:         make(map[int64]int64),
		validCount:  make([]int, g.Blocks),
		owner:       make([][]int64, g.Blocks),
		gcLowWater:  4,
	}
	for b := int64(0); b < g.Blocks; b++ {
		f.validCount[b] = -1
		f.freeBlocks = append(f.freeBlocks, b)
	}
	f.openNext()
	return f
}

func (f *eagerFTL) openNext() {
	if len(f.freeBlocks) == 0 {
		panic("eager FTL out of free blocks")
	}
	f.openBlock = f.freeBlocks[0]
	f.freeBlocks = f.freeBlocks[1:]
	f.validCount[f.openBlock] = 0
	f.owner[f.openBlock] = make([]int64, f.pagesPerBlk)
	for i := range f.owner[f.openBlock] {
		f.owner[f.openBlock][i] = -1
	}
	f.openSlot = 0
}

func (f *eagerFTL) place(lp int64) int64 {
	if f.openSlot == f.pagesPerBlk {
		f.openNext()
	}
	pp := f.openBlock*int64(f.pagesPerBlk) + int64(f.openSlot)
	f.owner[f.openBlock][f.openSlot] = lp
	f.validCount[f.openBlock]++
	f.openSlot++
	f.l2p[lp] = pp
	return pp
}

func (f *eagerFTL) invalidate(pp int64) {
	blk := pp / int64(f.pagesPerBlk)
	f.owner[blk][pp%int64(f.pagesPerBlk)] = -1
	f.validCount[blk]--
}

func (f *eagerFTL) WritePage(lp int64) int64 {
	if old, ok := f.l2p[lp]; ok {
		f.invalidate(old)
	}
	pp := f.place(lp)
	if len(f.freeBlocks) < f.gcLowWater {
		f.collect()
	}
	return pp
}

func (f *eagerFTL) Trim(lp int64) {
	if pp, ok := f.l2p[lp]; ok {
		f.invalidate(pp)
		delete(f.l2p, lp)
	}
}

func (f *eagerFTL) collect() {
	victim := int64(-1)
	best := f.pagesPerBlk + 1
	for b := int64(0); b < f.totalBlocks; b++ {
		if b == f.openBlock || f.validCount[b] < 0 {
			continue
		}
		if f.validCount[b] < best {
			best = f.validCount[b]
			victim = b
		}
	}
	if victim < 0 {
		return
	}
	f.gcRuns++
	for slot := 0; slot < f.pagesPerBlk; slot++ {
		lp := f.owner[victim][slot]
		if lp < 0 {
			continue
		}
		f.owner[victim][slot] = -1
		f.validCount[victim]--
		f.place(lp)
		f.gcMoved++
	}
	f.validCount[victim] = -1
	f.owner[victim] = nil
	f.freeBlocks = append(f.freeBlocks, victim)
}

func (f *eagerFTL) Stats() (uint64, uint64, int) { return f.gcRuns, f.gcMoved, len(f.freeBlocks) }

// TestFTLMatchesEagerReference drives seeded write/trim/overwrite streams
// through the lazy FTL and the eager reference on geometries small enough
// that GC runs many times. After every step the two must agree on the
// physical page the write returned, on Lookup for every logical page, and
// on Stats — so the lazy free-block accounting, the fresh-before-reclaimed
// open order and the victim scan over opened blocks all match.
func TestFTLMatchesEagerReference(t *testing.T) {
	geoms := []struct{ blocks, pages, logical int }{
		{8, 4, 12},
		{16, 4, 24},
		{32, 8, 96},
		{64, 16, 400},
	}
	for _, gc := range geoms {
		for seed := int64(1); seed <= 5; seed++ {
			name := fmt.Sprintf("blocks%d_pages%d_seed%d", gc.blocks, gc.pages, seed)
			t.Run(name, func(t *testing.T) {
				g := DefaultGeometry()
				g.Blocks = int64(gc.blocks)
				g.PagesPerBlk = gc.pages
				s := sim.New()
				lazy := NewFTL(s, NewArray(s, g))
				ref := newEagerFTL(g)
				rng := rand.New(rand.NewSource(seed))
				for step := 0; step < 5000; step++ {
					lp := int64(rng.Intn(gc.logical))
					var what string
					switch r := rng.Intn(10); {
					case r == 0:
						what = "trim"
						lazy.Trim(lp)
						ref.Trim(lp)
					case r < 4:
						// Overwrite a hot page: concentrates invalidation so
						// victims have few live pages.
						lp %= 4
						fallthrough
					default:
						what = "write"
						got, want := lazy.WritePage(lp), ref.WritePage(lp)
						if got != want {
							t.Fatalf("step %d: WritePage(%d) = %d, reference %d", step, lp, got, want)
						}
					}
					gr, gm, gf := lazy.Stats()
					wr, wm, wf := ref.Stats()
					if gr != wr || gm != wm || gf != wf {
						t.Fatalf("step %d (%s %d): Stats = (%d,%d,%d), reference (%d,%d,%d)",
							step, what, lp, gr, gm, gf, wr, wm, wf)
					}
					for q := int64(0); q < int64(gc.logical); q++ {
						gp, gok := lazy.Lookup(q)
						wp, wok := ref.l2p[q]
						if gp != wp || gok != wok {
							t.Fatalf("step %d (%s %d): Lookup(%d) = %d,%v; reference %d,%v",
								step, what, lp, q, gp, gok, wp, wok)
						}
					}
				}
				s.Run()
				if runs, _, _ := lazy.Stats(); runs < 50 {
					t.Errorf("GC ran %d times; the stream must exercise it heavily", runs)
				}
			})
		}
	}
}

var ftlSink *FTL

// TestNewFTLAllocatesOneBlock guards the lazy construction: building an
// FTL over the default 2 TiB geometry (512Ki blocks) allocates the state
// of the one block it opens, not of every block.
func TestNewFTLAllocatesOneBlock(t *testing.T) {
	g := DefaultGeometry()
	s := sim.New()
	a := NewArray(s, g)
	allocs := testing.AllocsPerRun(20, func() { ftlSink = NewFTL(s, a) })
	if allocs > 8 {
		t.Errorf("NewFTL allocates %.0f objects, want a handful (one block's state)", allocs)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	const n = 20
	for i := 0; i < n; i++ {
		ftlSink = NewFTL(s, a)
	}
	runtime.ReadMemStats(&after)
	perBuild := (after.TotalAlloc - before.TotalAlloc) / n
	// One block's owner slice is PagesPerBlk*8 bytes; leave room for the
	// map header and the small slices, but nowhere near one word per block.
	if limit := uint64(g.PagesPerBlk)*8 + 4096; perBuild > limit {
		t.Errorf("NewFTL allocates %d bytes on a %d-block geometry, want <= %d (one block)",
			perBuild, g.Blocks, limit)
	}
}
