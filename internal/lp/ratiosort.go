// Copyright 2022 The Go Authors. All rights reserved.
//
// Redistribution and use in source and binary forms, with or without
// modification, are permitted provided that the following conditions are
// met:
//
//   - Redistributions of source code must retain the above copyright
//     notice, this list of conditions and the following disclaimer.
//   - Redistributions in binary form must reproduce the above
//     copyright notice, this list of conditions and the following disclaimer
//     in the documentation and/or other materials provided with the
//     distribution.
//   - Neither the name of Google LLC nor the names of its
//     contributors may be used to endorse or promote products derived from
//     this software without specific prior written permission.
//
// THIS SOFTWARE IS PROVIDED BY THE COPYRIGHT HOLDERS AND CONTRIBUTORS
// "AS IS" AND ANY EXPRESS OR IMPLIED WARRANTIES, INCLUDING, BUT NOT
// LIMITED TO, THE IMPLIED WARRANTIES OF MERCHANTABILITY AND FITNESS FOR
// A PARTICULAR PURPOSE ARE DISCLAIMED. IN NO EVENT SHALL THE COPYRIGHT
// OWNER OR CONTRIBUTORS BE LIABLE FOR ANY DIRECT, INDIRECT, INCIDENTAL,
// SPECIAL, EXEMPLARY, OR CONSEQUENTIAL DAMAGES (INCLUDING, BUT NOT
// LIMITED TO, PROCUREMENT OF SUBSTITUTE GOODS OR SERVICES; LOSS OF USE,
// DATA, OR PROFITS; OR BUSINESS INTERRUPTION) HOWEVER CAUSED AND ON ANY
// THEORY OF LIABILITY, WHETHER IN CONTRACT, STRICT LIABILITY, OR TORT
// (INCLUDING NEGLIGENCE OR OTHERWISE) ARISING IN ANY WAY OUT OF THE USE
// OF THIS SOFTWARE, EVEN IF ADVISED OF THE POSSIBILITY OF SUCH DAMAGE.

package lp

// ratiosort.go orders the breakpoints of both ratio tests (dualIterate's
// bound-flipping walk, ratioTestPhase1's long-step and Bland walks). It
// is Go 1.24's pattern-defeating quicksort (slices/zsortanyfunc.go;
// Peters, arXiv 2106.05123) specialized to {key, at} pairs under
// cmp.Less(key) — cmp.Compare's order, NaN first — and run lazily: at(k)
// returns sorted position k and finishes only the pending subranges that
// start at or before k.
//
// The prefix is pdqsort's own, ties included, because pdqsort's work on
// a subrange reads only that subrange and the already-final element
// just before it. Processing the leftmost pending subrange first, and
// deferring the others with the limit, wasBalanced and wasPartitioned
// values pdqsort would hand them, therefore lays down exactly the order
// slices.SortFunc would — read only as far as the walk needs. The
// degenerate time-expanded LPs produce long runs of tied ratios, and the
// walks pick the first candidate of a run, so the tie order is part of
// every pivot path; this file owns it instead of the toolchain.

import (
	"math"
	"math/bits"
)

// ratioPair is one breakpoint: its key (a ratio or a step length) and
// the index of its candidate in the caller's array.
type ratioPair struct {
	key float64
	at  int32
}

// ratioRange is a pending subrange [a, b) with the state pdqsort would
// carry into it.
type ratioRange struct {
	a, b, limit                 int
	wasBalanced, wasPartitioned bool
}

// ratioSort is the lazy sorter. data is sorted below the first pending
// subrange; pending holds the unsorted subranges, disjoint, with the
// leftmost on top.
type ratioSort struct {
	data    []ratioPair
	pending []ratioRange
}

// bind sizes the sorter for up to n breakpoints (room when larger),
// reusing what it holds.
func (r *ratioSort) bind(n, room int) {
	r.data = fit(r.data, n, room)
	// Every pending subrange but the top is the right part of a partition
	// on the top's path from the whole array. Along that path a partition
	// leaves at most 7/8 of the range (≤ 5.2 steps per halving) or is
	// unbalanced and spends one unit of the bits.Len limit.
	if want := 7*bits.Len(uint(len(r.data))) + 1; cap(r.pending) < want {
		r.pending = make([]ratioRange, 0, want)
	}
}

// load starts a sort of n breakpoints and returns their array, for the
// caller to fill before the first at.
func (r *ratioSort) load(n int) []ratioPair {
	r.data = fit(r.data, n, n)
	r.pending = append(r.pending[:0], ratioRange{a: 0, b: n, limit: bits.Len(uint(n)), wasBalanced: true, wasPartitioned: true})
	return r.data
}

// at returns the index of the breakpoint at sorted position k.
func (r *ratioSort) at(k int) int {
	//teccl:allow-ctxcheck bounded: every step sorts or shrinks the top subrange, and k < len(data)
	for len(r.pending) > 0 && r.pending[len(r.pending)-1].a <= k {
		r.step()
	}
	return int(r.data[k].at)
}

// ratioLess is cmp.Less on keys: NaN sorts before every other value.
func ratioLess(x, y ratioPair) bool {
	return x.key < y.key || (math.IsNaN(x.key) && !math.IsNaN(y.key))
}

// step runs one iteration of pdqsort's loop on the top subrange. A
// subrange it finishes leaves the stack; a partition replaces it with
// its left part on top of its right part.
func (r *ratioSort) step() {
	const maxInsertion = 12
	top := len(r.pending) - 1
	p := &r.pending[top]
	data, a, b := r.data, p.a, p.b
	length := b - a

	if length <= maxInsertion {
		insertionSortRatio(data, a, b)
		r.pending = r.pending[:top]
		return
	}

	// Fall back to heapsort if too many bad choices were made.
	if p.limit == 0 {
		heapSortRatio(data, a, b)
		r.pending = r.pending[:top]
		return
	}

	// If the last partitioning was imbalanced, we need to breakPatterns.
	if !p.wasBalanced {
		breakPatternsRatio(data, a, b)
		p.limit--
	}

	pivot, hint := choosePivotRatio(data, a, b)
	if hint == decreasingHint {
		reverseRangeRatio(data, a, b)
		// The chosen pivot was pivot-a elements after the start of the array.
		// After reversing it is pivot-a elements before the end of the array.
		pivot = (b - 1) - (pivot - a)
		hint = increasingHint
	}

	// The slice is likely already sorted.
	if p.wasBalanced && p.wasPartitioned && hint == increasingHint {
		if partialInsertionSortRatio(data, a, b) {
			r.pending = r.pending[:top]
			return
		}
	}

	// Probably the slice contains many duplicate elements, partition the slice into
	// elements equal to and elements greater than the pivot.
	if a > 0 && !ratioLess(data[a-1], data[pivot]) {
		p.a = partitionEqualRatio(data, a, b, pivot)
		return
	}

	mid, alreadyPartitioned := partitionRatio(data, a, b, pivot)
	leftLen, rightLen := mid-a, b-mid
	balanceThreshold := length / 8
	// pdqsort recurses into the shorter part with fresh state and loops
	// on the longer one with the partition's.
	left := ratioRange{a: a, b: mid, limit: p.limit, wasBalanced: true, wasPartitioned: true}
	right := ratioRange{a: mid + 1, b: b, limit: p.limit, wasBalanced: true, wasPartitioned: true}
	if leftLen < rightLen {
		right.wasBalanced, right.wasPartitioned = leftLen >= balanceThreshold, alreadyPartitioned
	} else {
		left.wasBalanced, left.wasPartitioned = rightLen >= balanceThreshold, alreadyPartitioned
	}
	*p = right
	r.pending = append(r.pending, left)
}

type sortedHint int // hint for pdqsort when choosing the pivot

const (
	unknownHint sortedHint = iota
	increasingHint
	decreasingHint
)

// xorshift paper: https://www.jstatsoft.org/article/view/v008i14/xorshift.pdf
type xorshift uint64

func (r *xorshift) Next() uint64 {
	*r ^= *r << 13
	*r ^= *r >> 7
	*r ^= *r << 17
	return uint64(*r)
}

func nextPowerOfTwo(length int) uint {
	return 1 << bits.Len(uint(length))
}

// insertionSortRatio sorts data[a:b] using insertion sort.
func insertionSortRatio(data []ratioPair, a, b int) {
	for i := a + 1; i < b; i++ {
		for j := i; j > a && ratioLess(data[j], data[j-1]); j-- {
			data[j], data[j-1] = data[j-1], data[j]
		}
	}
}

// siftDownRatio implements the heap property on data[lo:hi].
// first is an offset into the array where the root of the heap lies.
func siftDownRatio(data []ratioPair, lo, hi, first int) {
	root := lo
	//teccl:allow-ctxcheck bounded: root at least doubles each pass, below hi
	for {
		child := 2*root + 1
		if child >= hi {
			break
		}
		if child+1 < hi && ratioLess(data[first+child], data[first+child+1]) {
			child++
		}
		if !ratioLess(data[first+root], data[first+child]) {
			return
		}
		data[first+root], data[first+child] = data[first+child], data[first+root]
		root = child
	}
}

func heapSortRatio(data []ratioPair, a, b int) {
	first := a
	lo := 0
	hi := b - a

	// Build heap with greatest element at top.
	for i := (hi - 1) / 2; i >= 0; i-- {
		siftDownRatio(data, i, hi, first)
	}

	// Pop elements, largest first, into end of data.
	for i := hi - 1; i >= 0; i-- {
		data[first], data[first+i] = data[first+i], data[first]
		siftDownRatio(data, lo, i, first)
	}
}

// partitionRatio does one quicksort partition.
// Let p = data[pivot]
// Moves elements in data[a:b] around, so that data[i]<p and data[j]>=p for i<newpivot and j>newpivot.
// On return, data[newpivot] = p
func partitionRatio(data []ratioPair, a, b, pivot int) (newpivot int, alreadyPartitioned bool) {
	data[a], data[pivot] = data[pivot], data[a]
	i, j := a+1, b-1 // i and j are inclusive of the elements remaining to be partitioned

	//teccl:allow-ctxcheck bounded: i only grows, j only shrinks
	for i <= j && ratioLess(data[i], data[a]) {
		i++
	}
	//teccl:allow-ctxcheck bounded: i only grows, j only shrinks
	for i <= j && !ratioLess(data[j], data[a]) {
		j--
	}
	if i > j {
		data[j], data[a] = data[a], data[j]
		return j, true
	}
	data[i], data[j] = data[j], data[i]
	i++
	j--

	//teccl:allow-ctxcheck bounded: every pass grows i and shrinks j
	for {
		//teccl:allow-ctxcheck bounded: i only grows, j only shrinks
		for i <= j && ratioLess(data[i], data[a]) {
			i++
		}
		//teccl:allow-ctxcheck bounded: i only grows, j only shrinks
		for i <= j && !ratioLess(data[j], data[a]) {
			j--
		}
		if i > j {
			break
		}
		data[i], data[j] = data[j], data[i]
		i++
		j--
	}
	data[j], data[a] = data[a], data[j]
	return j, false
}

// partitionEqualRatio partitions data[a:b] into elements equal to data[pivot] followed by elements greater than data[pivot].
// It assumed that data[a:b] does not contain elements smaller than the data[pivot].
func partitionEqualRatio(data []ratioPair, a, b, pivot int) (newpivot int) {
	data[a], data[pivot] = data[pivot], data[a]
	i, j := a+1, b-1 // i and j are inclusive of the elements remaining to be partitioned

	//teccl:allow-ctxcheck bounded: every pass grows i and shrinks j
	for {
		//teccl:allow-ctxcheck bounded: i only grows, j only shrinks
		for i <= j && !ratioLess(data[a], data[i]) {
			i++
		}
		//teccl:allow-ctxcheck bounded: i only grows, j only shrinks
		for i <= j && ratioLess(data[a], data[j]) {
			j--
		}
		if i > j {
			break
		}
		data[i], data[j] = data[j], data[i]
		i++
		j--
	}
	return i
}

// partialInsertionSortRatio partially sorts a slice, returns true if the slice is sorted at the end.
func partialInsertionSortRatio(data []ratioPair, a, b int) bool {
	const (
		maxSteps         = 5  // maximum number of adjacent out-of-order pairs that will get shifted
		shortestShifting = 50 // don't shift any elements on short arrays
	)
	i := a + 1
	for j := 0; j < maxSteps; j++ {
		//teccl:allow-ctxcheck bounded: i only grows, below b
		for i < b && !ratioLess(data[i], data[i-1]) {
			i++
		}

		if i == b {
			return true
		}

		if b-a < shortestShifting {
			return false
		}

		data[i], data[i-1] = data[i-1], data[i]

		// Shift the smaller one to the left.
		if i-a >= 2 {
			for j := i - 1; j >= 1; j-- {
				if !ratioLess(data[j], data[j-1]) {
					break
				}
				data[j], data[j-1] = data[j-1], data[j]
			}
		}
		// Shift the greater one to the right.
		if b-i >= 2 {
			for j := i + 1; j < b; j++ {
				if !ratioLess(data[j], data[j-1]) {
					break
				}
				data[j], data[j-1] = data[j-1], data[j]
			}
		}
	}
	return false
}

// breakPatternsRatio scatters some elements around in an attempt to break some patterns
// that might cause imbalanced partitions in quicksort.
func breakPatternsRatio(data []ratioPair, a, b int) {
	length := b - a
	if length >= 8 {
		random := xorshift(length)
		modulus := nextPowerOfTwo(length)

		for idx := a + (length/4)*2 - 1; idx <= a+(length/4)*2+1; idx++ {
			other := int(uint(random.Next()) & (modulus - 1))
			if other >= length {
				other -= length
			}
			data[idx], data[a+other] = data[a+other], data[idx]
		}
	}
}

// choosePivotRatio chooses a pivot in data[a:b].
//
// [0,8): chooses a static pivot.
// [8,shortestNinther): uses the simple median-of-three method.
// [shortestNinther,∞): uses the Tukey ninther method.
func choosePivotRatio(data []ratioPair, a, b int) (pivot int, hint sortedHint) {
	const (
		shortestNinther = 50
		maxSwaps        = 4 * 3
	)

	l := b - a

	var (
		swaps int
		i     = a + l/4*1
		j     = a + l/4*2
		k     = a + l/4*3
	)

	if l >= 8 {
		if l >= shortestNinther {
			// Tukey ninther method, the idea came from Rust's implementation.
			i = medianAdjacentRatio(data, i, &swaps)
			j = medianAdjacentRatio(data, j, &swaps)
			k = medianAdjacentRatio(data, k, &swaps)
		}
		// Find the median among i, j, k and stores it into j.
		j = medianRatio(data, i, j, k, &swaps)
	}

	switch swaps {
	case 0:
		return j, increasingHint
	case maxSwaps:
		return j, decreasingHint
	default:
		return j, unknownHint
	}
}

// order2Ratio returns x,y where data[x] <= data[y], where x,y=a,b or x,y=b,a.
func order2Ratio(data []ratioPair, a, b int, swaps *int) (int, int) {
	if ratioLess(data[b], data[a]) {
		*swaps++
		return b, a
	}
	return a, b
}

// medianRatio returns x where data[x] is the median of data[a],data[b],data[c], where x is a, b, or c.
func medianRatio(data []ratioPair, a, b, c int, swaps *int) int {
	a, b = order2Ratio(data, a, b, swaps)
	b, c = order2Ratio(data, b, c, swaps)
	_, b = order2Ratio(data, a, b, swaps)
	return b
}

// medianAdjacentRatio finds the median of data[a - 1], data[a], data[a + 1] and stores the index into a.
func medianAdjacentRatio(data []ratioPair, a int, swaps *int) int {
	return medianRatio(data, a-1, a, a+1, swaps)
}

func reverseRangeRatio(data []ratioPair, a, b int) {
	i := a
	j := b - 1
	//teccl:allow-ctxcheck bounded: i only grows, j only shrinks
	for i < j {
		data[i], data[j] = data[j], data[i]
		i++
		j--
	}
}
