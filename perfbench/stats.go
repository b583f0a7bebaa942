package main

import (
	"math"
	"runtime"
	"runtime/metrics"
	"sort"
	"syscall"
	"time"
)

// minBeyond is the percentile rule: a tail percentile is reported only
// when at least this many samples lie beyond it.
const minBeyond = 10

// dist is a sample of one timing, kept whole so the median and the tail
// percentile come from the same sorted data.
type dist struct{ xs []float64 }

func (d *dist) add(v float64) { d.xs = append(d.xs, v) }

func (d *dist) n() int { return len(d.xs) }

// median returns the sample median (0 for an empty sample).
func (d *dist) median() float64 {
	if len(d.xs) == 0 {
		return 0
	}
	xs := sorted(d.xs)
	m := len(xs) / 2
	if len(xs)%2 == 1 {
		return xs[m]
	}
	return (xs[m-1] + xs[m]) / 2
}

// tail applies the percentile rule: it reports the want-th percentile
// when at least minBeyond samples lie beyond it, and otherwise the
// highest whole percentile that still has minBeyond samples beyond it.
// With too few samples for any such percentile it falls back to the
// median and reports pct 50. Ranks are nearest-rank: the p-th
// percentile of n sorted samples is the ceil(p*n/100)-th smallest.
func (d *dist) tail(want int) (pct int, v float64) {
	n := len(d.xs)
	if n == 0 {
		return want, 0
	}
	pct = want
	if max := 100 * (n - minBeyond) / n; n <= minBeyond || max < 50 {
		return 50, d.median()
	} else if max < pct {
		pct = max
	}
	if pct <= 50 {
		return 50, d.median()
	}
	xs := sorted(d.xs)
	rank := (pct*n + 99) / 100
	if rank < 1 {
		rank = 1
	}
	return pct, xs[rank-1]
}

func sorted(xs []float64) []float64 {
	out := append([]float64(nil), xs...)
	sort.Float64s(out)
	return out
}

// quartiles returns the first quartile, median and third quartile with
// the same "exclusive" interpolation as Python's
// statistics.quantiles(values, n=4).
func quartiles(values []float64) (q1, med, q3 float64) {
	xs := sorted(values)
	n := len(xs)
	switch n {
	case 0:
		return 0, 0, 0
	case 1:
		return xs[0], xs[0], xs[0]
	}
	at := func(i int) float64 {
		// statistics.quantiles, method "exclusive": j is clamped to
		// [1, n-1] and delta recomputed after clamping.
		m := n + 1
		j := i * m / 4
		if j < 1 {
			j = 1
		} else if j > n-1 {
			j = n - 1
		}
		delta := i*m - j*4
		return (xs[j-1]*float64(4-delta) + xs[j]*float64(delta)) / 4
	}
	return at(1), at(2), at(3)
}

// cpuTime returns the process's user+system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// Runtime metric names read around each measured window.
const (
	rmAllocObjects = "/gc/heap/allocs:objects"
	rmAllocBytes   = "/gc/heap/allocs:bytes"
	rmGCCycles     = "/gc/cycles/total:gc-cycles"
	rmGCCPU        = "/cpu/classes/gc/total:cpu-seconds"
	rmTotalCPU     = "/cpu/classes/total:cpu-seconds"
	rmIdleCPU      = "/cpu/classes/idle:cpu-seconds"
	rmLiveHeap     = "/gc/heap/live:bytes"
	rmSchedLat     = "/sched/latencies:seconds"
)

// rtSnap is one reading of the runtime metrics the benchmark uses.
type rtSnap struct {
	allocObjects, allocBytes, gcCycles uint64
	gcCPU, totalCPU, idleCPU           float64
	sched                              *metrics.Float64Histogram
}

func readRuntime() rtSnap {
	s := []metrics.Sample{
		{Name: rmAllocObjects}, {Name: rmAllocBytes}, {Name: rmGCCycles},
		{Name: rmGCCPU}, {Name: rmTotalCPU}, {Name: rmIdleCPU}, {Name: rmSchedLat},
	}
	metrics.Read(s)
	u := func(i int) uint64 {
		if s[i].Value.Kind() == metrics.KindUint64 {
			return s[i].Value.Uint64()
		}
		return 0
	}
	f := func(i int) float64 {
		if s[i].Value.Kind() == metrics.KindFloat64 {
			return s[i].Value.Float64()
		}
		return 0
	}
	r := rtSnap{allocObjects: u(0), allocBytes: u(1), gcCycles: u(2), gcCPU: f(3), totalCPU: f(4), idleCPU: f(5)}
	if s[6].Value.Kind() == metrics.KindFloat64Histogram {
		r.sched = s[6].Value.Float64Histogram()
	}
	return r
}

// liveHeap returns the live heap after a forced collection.
func liveHeap() uint64 {
	runtime.GC()
	s := []metrics.Sample{{Name: rmLiveHeap}}
	metrics.Read(s)
	if s[0].Value.Kind() != metrics.KindUint64 {
		return 0
	}
	return s[0].Value.Uint64()
}

// histQuantile returns the q-quantile of the difference of two
// cumulative runtime histograms (the window's own observations), using
// each bucket's upper bound.
func histQuantile(before, after *metrics.Float64Histogram, q float64) float64 {
	if after == nil {
		return 0
	}
	counts := make([]uint64, len(after.Counts))
	var total uint64
	for i, c := range after.Counts {
		if before != nil && i < len(before.Counts) {
			c -= before.Counts[i]
		}
		counts[i] = c
		total += c
	}
	if total == 0 {
		return 0
	}
	target := uint64(math.Ceil(q * float64(total)))
	var acc uint64
	for i, c := range counts {
		acc += c
		if acc >= target {
			hi := after.Buckets[i+1]
			if math.IsInf(hi, 1) {
				hi = after.Buckets[i]
			}
			return hi
		}
	}
	return after.Buckets[len(after.Buckets)-1]
}
