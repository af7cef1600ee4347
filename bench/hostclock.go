package main

// hostclock.go takes the host's speed out of the benchmark's times. The
// box the bounds were set on is a small guest on a shared machine that
// executes the same instructions 1.0× to 1.3× as slowly from one
// stretch of seconds to the next (NOISE.md shows the two plateaus), and
// a run that happens to sit on the slow plateau reads a quarter worse
// than one that does not. No amount of medians inside a run removes a
// factor that multiplies the whole run, so the harness measures the
// factor: between operations it times a fixed reference kernel of its
// own, which no change to the planner can touch, and every duration the
// benchmark reports is the wall-clock duration divided by how much more
// slowly than refNominal the kernel ran around it. The reported
// milliseconds are therefore milliseconds at the reference speed. The
// raw wall-clock numbers stay visible as harness.* per-layer metrics.

import (
	"sort"
	"time"
)

const (
	// refNominal is the reference kernel's typical time on the box the
	// bounds were set on while its host is quiet. It is only a unit: on
	// another machine every reported time scales by one constant.
	refNominal = 290 * time.Microsecond
	// refGap is how old a reading may be before the next boundary takes
	// a new one; a reading costs under 2 ms, so readings take at most a
	// fourteenth of the run.
	refGap = 25 * time.Millisecond
	// refReps is how many timed kernel passes one reading is the median
	// of, after one untimed pass that refills the caches.
	refReps = 5
)

// refKernel is a sparse lower-triangular solve over 0.9 MB (it stays in the
// second-level cache), the access
// pattern of the simplex kernel's FTRAN: indirect loads and stores, a
// division and a multiply-add per entry, no allocation.
type refKernel struct {
	idx  []int32
	val  []float64
	diag []float64
	x    []float64
}

const (
	refRows   = 8192
	refNnz    = 8 // off-diagonal entries per column
	refRounds = 5
)

func newRefKernel() *refKernel {
	k := &refKernel{
		idx: make([]int32, refRows*refNnz), val: make([]float64, refRows*refNnz),
		diag: make([]float64, refRows), x: make([]float64, refRows),
	}
	state := uint32(5)
	next := func() uint32 { state = state*1664525 + 1013904223; return state >> 8 }
	for j := 0; j < refRows; j++ {
		k.diag[j] = 1 + float64(next()&1023)/1024
		for e := j * refNnz; e < (j+1)*refNnz; e++ {
			k.idx[e] = int32(min(j+1+int(next())%(refRows-j), refRows-1))
			k.val[e] = (float64(next()&1023)/1024 - 0.5) * 1e-3
		}
	}
	return k
}

// pass solves the system refRounds times over from a fresh right-hand side.
func (k *refKernel) pass() float64 {
	x, idx, val, diag := k.x, k.idx, k.val, k.diag
	for i := range x {
		x[i] = 1
	}
	for round := 0; round < refRounds; round++ {
		for j := range x {
			xj := x[j] / diag[j]
			x[j] = xj
			for e := j * refNnz; e < (j+1)*refNnz; e++ {
				x[idx[e]] -= val[e] * xj
			}
		}
	}
	return x[refRows-1]
}

// hostClock is the record of how slowly the host ran during the run:
// one slowdown factor per reading, with the time the reading ended.
type hostClock struct {
	k    *refKernel
	at   []time.Time
	slow []float64
	sink float64 // keeps the kernel's result alive
}

// refReadings is the room made for readings up front (a 60 s run takes
// about 2400), so the record does not grow while the run is measured.
const refReadings = 4096

func newHostClock() *hostClock {
	return &hostClock{k: newRefKernel(), at: make([]time.Time, 0, refReadings), slow: make([]float64, 0, refReadings)}
}

// heapBytes is what the clock itself keeps on the heap, which
// retained_heap_mb leaves out: it is the harness's, not the planner's.
func (h *hostClock) heapBytes() int {
	k := h.k
	return 4*cap(k.idx) + 8*(cap(k.val)+cap(k.diag)+cap(k.x)) + 24*cap(h.at) + 8*cap(h.slow)
}

// tick takes a reading unless the last one is younger than refGap.
func (h *hostClock) tick() {
	if n := len(h.at); n > 0 && time.Since(h.at[n-1]) < refGap {
		return
	}
	h.sink += h.k.pass()
	took := make([]float64, refReps)
	for i := range took {
		t0 := time.Now()
		h.sink += h.k.pass()
		took[i] = float64(time.Since(t0))
	}
	h.at = append(h.at, time.Now())
	h.slow = append(h.slow, median(took)/float64(refNominal))
}

// between is the slowdown assumed from reading i-1 to reading i: the
// mean of the two, and the nearest reading outside the recorded span.
func (h *hostClock) between(i int) float64 {
	switch n := len(h.slow); {
	case n == 0:
		return 1
	case i <= 0:
		return h.slow[0]
	case i >= n:
		return h.slow[n-1]
	}
	return (h.slow[i-1] + h.slow[i]) / 2
}

// quiet is how long the interval [t0, t1] would have taken at the
// reference speed: each stretch between two readings is divided by the
// slowdown measured around it.
func (h *hostClock) quiet(t0, t1 time.Time) time.Duration {
	i := sort.Search(len(h.at), func(i int) bool { return h.at[i].After(t0) })
	total := 0.0
	for cur := t0; cur.Before(t1); i++ {
		end := t1
		if i < len(h.at) && h.at[i].Before(t1) {
			end = h.at[i]
		}
		total += float64(end.Sub(cur)) / h.between(i)
		cur = end
	}
	return time.Duration(total)
}
