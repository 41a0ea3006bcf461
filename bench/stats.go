package main

import (
	"sort"
	"syscall"
)

// quantile returns the nearest-rank q-quantile of sorted (ascending); 0 for
// an empty sample.
func quantile(sorted []int64, q float64) int64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(q * float64(len(sorted)))
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}

func sortedCopy(v []int64) []int64 {
	out := append([]int64(nil), v...)
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// quantileOf is the q-quantile of an unsorted sample.
func quantileOf(samples []int64, q float64) float64 {
	return float64(quantile(sortedCopy(samples), q))
}

// segmentQuantile splits samples (in the order taken) into `segments` equal
// parts, takes the q-quantile of each and returns the median of those.
func segmentQuantile(samples []int64, q float64) float64 {
	var qs []float64
	for i := 0; i < segments; i++ {
		part := samples[len(samples)*i/segments : len(samples)*(i+1)/segments]
		if len(part) > 0 {
			qs = append(qs, quantileOf(part, q))
		}
	}
	return medianFloat(qs)
}

func medianFloat(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// cpuNs is the process's user+system CPU time so far.
func cpuNs() int64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return ru.Utime.Nano() + ru.Stime.Nano()
}
