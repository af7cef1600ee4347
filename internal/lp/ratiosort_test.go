package lp

// The lazy sorter of ratiosort.go must lay down slices.SortFunc's order
// exactly, ties included: both ratio tests pick the first candidate of a
// run of tied ratios, so the order is part of every pivot path that
// TestKernelCountsPinned and TestKernelBitsPinned pin. These tests hold
// the sorter's prefix to slices.SortFunc(…, cmp.Compare) element for
// element, by index.
//
// If they fail after a toolchain upgrade, the toolchain's sort has
// changed, not the sorter: the copy still keeps the pivot paths the
// pinned kernel tests record. Keep the copy, and move the comparison
// target from slices.SortFunc to a golden file of orders recorded from
// this copy.

import (
	"cmp"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"
)

// checkRatioPrefix sorts keys lazily up to position stop and requires
// each position's index to equal slices.SortFunc's, then sorts the rest
// and requires the pending stack never to outgrow what bind sized.
func checkRatioPrefix(t testing.TB, keys []float64, stop int) {
	t.Helper()
	var r ratioSort
	r.bind(len(keys), 0)
	stackCap := cap(r.pending)
	data := r.load(len(keys))
	for i, k := range keys {
		data[i] = ratioPair{key: k, at: int32(i)}
	}
	want := slices.Clone(data)
	slices.SortFunc(want, func(a, b ratioPair) int { return cmp.Compare(a.key, b.key) })
	for k := 0; k <= stop && k < len(keys); k++ {
		if got := r.at(k); got != int(want[k].at) {
			t.Fatalf("n=%d stop=%d: position %d holds index %d (key %v), slices.SortFunc has %d (key %v)",
				len(keys), stop, k, got, keys[got], want[k].at, want[k].key)
		}
	}
	for k := range keys {
		if got := r.at(k); got != int(want[k].at) {
			t.Fatalf("n=%d after the prefix to %d: position %d holds index %d, slices.SortFunc has %d",
				len(keys), stop, k, got, want[k].at)
		}
	}
	if cap(r.pending) != stackCap {
		t.Fatalf("n=%d: the pending stack grew from %d to %d entries", len(keys), stackCap, cap(r.pending))
	}
}

// ratioShapes are the key patterns of TestRatioSortMatchesSortFunc: each
// fills n keys from rng.
var ratioShapes = []struct {
	name string
	fill func(rng *rand.Rand, n int) []float64
}{
	{"uniform", func(rng *rand.Rand, n int) []float64 {
		return ratioKeys(n, func(int) float64 { return rng.Float64() })
	}},
	{"ties", func(rng *rand.Rand, n int) []float64 {
		return ratioKeys(n, func(int) float64 { return float64(rng.Intn(3)) })
	}},
	{"zeros", mostlyZeroKeys},
	{"special", func(rng *rand.Rand, n int) []float64 {
		special := []float64{math.NaN(), math.Inf(1), math.Inf(-1), math.Copysign(0, -1), 0, 1, -1}
		return ratioKeys(n, func(int) float64 { return special[rng.Intn(len(special))] })
	}},
	{"sorted", func(rng *rand.Rand, n int) []float64 {
		return ratioKeys(n, func(i int) float64 { return float64(i / 3) })
	}},
	{"reversed", func(rng *rand.Rand, n int) []float64 {
		return ratioKeys(n, func(i int) float64 { return float64((n - i) / 2) })
	}},
	{"pipeorgan", func(rng *rand.Rand, n int) []float64 {
		return ratioKeys(n, func(i int) float64 { return float64(min(i, n-i)) })
	}},
	{"nearlysorted", func(rng *rand.Rand, n int) []float64 {
		keys := ratioKeys(n, func(i int) float64 { return float64(i) })
		for s := rng.Intn(6); s > 0 && n > 1; s-- {
			i, j := rng.Intn(n), rng.Intn(n)
			keys[i], keys[j] = keys[j], keys[i]
		}
		return keys
	}},
	{"sawtooth", func(rng *rand.Rand, n int) []float64 {
		m := 1 + rng.Intn(40)
		return ratioKeys(n, func(i int) float64 { return float64(i % m) })
	}},
	{"adversary", func(rng *rand.Rand, n int) []float64 { return ratioAdversary(n) }},
}

// mostlyZeroKeys are a degenerate LP's ratios: three in four tied at 0,
// the rest on eight values.
func mostlyZeroKeys(rng *rand.Rand, n int) []float64 {
	return ratioKeys(n, func(int) float64 {
		if rng.Intn(4) > 0 {
			return 0
		}
		return float64(rng.Intn(8)) / 4
	})
}

func ratioKeys(n int, key func(i int) float64) []float64 {
	keys := make([]float64, n)
	for i := range keys {
		keys[i] = key(i)
	}
	return keys
}

// ratioAdversary builds n keys in the manner of McIlroy's antiqsort ("A
// Killer Adversary for Quicksort", 1999), run against slices.SortFunc:
// every key starts as "gas", above every other, and each comparison of
// two gas keys freezes the first to the next smallest value, until half
// the keys are frozen; the rest stay gas, tied at the top. pdqsort is
// deterministic, so the frozen keys drive it through the same unbalanced
// partitions again, past breakPatterns, and the heapsort fallback
// orders nearly the whole array, ties included.
func ratioAdversary(n int) []float64 {
	val := make([]int, n)
	idx := make([]int, n)
	for i := range val {
		val[i], idx[i] = n, i
	}
	solid := 0
	slices.SortFunc(idx, func(x, y int) int {
		if val[x] == n && val[y] == n && solid < n/2 {
			val[x] = solid
			solid++
		}
		return cmp.Compare(val[x], val[y])
	})
	return ratioKeys(n, func(i int) float64 { return float64(val[i]) })
}

// TestRatioSortMatchesSortFunc holds the lazy prefix to slices.SortFunc
// on sizes 0–5 000 of every shape, at random stopping points and at
// both ends. The shapes reach every path of the copy: partitionEqual
// (ties), partialInsertionSort's shifts and early return (sorted,
// nearlysorted), breakPatterns and the heapsort fallback (adversary).
func TestRatioSortMatchesSortFunc(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	sizes := []int{0, 1, 2, 7, 12, 13, 49, 50, 51, 64, 255, 1000, 2000, 5000}
	for i := 0; i < 12; i++ {
		sizes = append(sizes, 1+rng.Intn(3000))
	}
	if testing.Short() {
		sizes = sizes[:12]
	}
	for _, shape := range ratioShapes {
		for _, n := range sizes {
			keys := shape.fill(rng, n)
			stops := []int{0, n - 1}
			if n > 0 {
				stops = append(stops, rng.Intn(n), rng.Intn(min(n, 20)))
			}
			for _, stop := range stops {
				checkRatioPrefix(t, keys, stop)
			}
		}
	}
}

// FuzzRatioSort is TestRatioSortMatchesSortFunc's relation on keys the
// fuzzer makes: each byte picks a key from sixteen values, NaN, ±Inf
// and -0 among them, so runs of ties are the rule; stop is the last
// position read lazily.
func FuzzRatioSort(f *testing.F) {
	f.Add([]byte{}, uint16(0))
	f.Add([]byte("\x00\x01\x02\x03\x10\x20\x30\x00\x00\x11\x12\x13\x14\x15\x16"), uint16(3))
	f.Add([]byte("the ratio tests sort only the breakpoints they read, ties and all"), uint16(7))
	f.Fuzz(func(t *testing.T, b []byte, stop uint16) {
		keys := ratioKeys(len(b), func(i int) float64 {
			switch v := b[i] & 15; v {
			case 0:
				return math.NaN()
			case 1:
				return math.Inf(1)
			case 2:
				return math.Inf(-1)
			case 3:
				return math.Copysign(0, -1)
			default:
				return float64(v - 4)
			}
		})
		checkRatioPrefix(t, keys, int(stop))
	})
}

// BenchmarkRatioSort prices the ratio tests' ordering both ways on the
// shapes the incremental replans see: 16, 70 and 255 breakpoints, three
// in four of them tied at zero, read to positions 6 and 14, and 2 000
// for a cold phase 1. "eager" is the full slices.SortFunc the tests ran
// before; "lazy" the prefix through at.
func BenchmarkRatioSort(b *testing.B) {
	for _, n := range []int{16, 70, 255, 2000} {
		keys := mostlyZeroKeys(rand.New(rand.NewSource(int64(n))), n)
		for _, stop := range []int{6, 14} {
			var r ratioSort
			r.bind(n, 0)
			fill := func() []ratioPair {
				data := r.load(n)
				for i, k := range keys {
					data[i] = ratioPair{key: k, at: int32(i)}
				}
				return data
			}
			b.Run(fmt.Sprintf("n=%d/k=%d/eager", n, stop), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					data := fill()
					slices.SortFunc(data, func(a, b ratioPair) int { return cmp.Compare(a.key, b.key) })
					benchSinkInt = int(data[stop].at)
				}
			})
			b.Run(fmt.Sprintf("n=%d/k=%d/lazy", n, stop), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					fill()
					for k := 0; k <= stop; k++ {
						benchSinkInt = r.at(k)
					}
				}
			})
		}
	}
}

var benchSinkInt int
