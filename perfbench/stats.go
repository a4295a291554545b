package main

import (
	"math"
	"runtime/metrics"
	"slices"
	"syscall"
	"time"
)

// quantile returns the q-quantile of xs (nearest rank on a sorted copy);
// 0 for no samples.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	return s[max(i, 0)]
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// cpuTime is the process's user plus system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB is the process's peak resident set size in MiB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// runtimeSample reads the runtime/metrics the proc.* metrics come from.
type runtimeSample []metrics.Sample

var runtimeNames = []string{
	"/gc/heap/allocs:objects",
	"/gc/heap/allocs:bytes",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
	"/sched/pauses/total/gc:seconds",
	"/sched/latencies:seconds",
}

func readRuntime() runtimeSample {
	s := make(runtimeSample, len(runtimeNames))
	for i, n := range runtimeNames {
		s[i].Name = n
	}
	metrics.Read(s)
	return s
}

func (s runtimeSample) uint(i int) float64 {
	if s[i].Value.Kind() != metrics.KindUint64 {
		return 0
	}
	return float64(s[i].Value.Uint64())
}

func (s runtimeSample) float(i int) float64 {
	if s[i].Value.Kind() != metrics.KindFloat64 {
		return 0
	}
	return s[i].Value.Float64()
}

// histQuantile is the q-quantile, in seconds, of the observations a
// runtime histogram gained between two samples, interpolated linearly
// within the bucket that holds it.
func histQuantile(before, after metrics.Sample, q float64) float64 {
	if after.Value.Kind() != metrics.KindFloat64Histogram || before.Value.Kind() != metrics.KindFloat64Histogram {
		return 0
	}
	a, b := after.Value.Float64Histogram(), before.Value.Float64Histogram()
	counts := make([]uint64, len(a.Counts))
	var total uint64
	for i := range a.Counts {
		counts[i] = a.Counts[i] - b.Counts[i]
		total += counts[i]
	}
	if total == 0 {
		return 0
	}
	rank := q * float64(total)
	var seen float64
	for i, c := range counts {
		if c == 0 || seen+float64(c) < rank {
			seen += float64(c)
			continue
		}
		lo, hi := a.Buckets[i], a.Buckets[i+1]
		switch {
		case math.IsInf(hi, 1):
			return lo
		case math.IsInf(lo, -1):
			return hi
		}
		return lo + (hi-lo)*(rank-seen)/float64(c)
	}
	return 0
}
