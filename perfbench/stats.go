package main

import (
	"math"
	"sort"
	"time"
)

// tailLadder lists the percentiles the benchmark may report as a tail,
// in per-mille so the "samples beyond" count is exact integer arithmetic.
var tailLadder = []int{500, 900, 990, 999}

// tailPercentile returns the highest percentile on the ladder that has at
// least ten samples beyond it among n samples, and false when even the
// median has fewer than ten (n < 20). A sample lies beyond the p-th
// percentile when its rank exceeds ceil(n·p/100).
func tailPercentile(n int) (float64, bool) {
	best := -1
	for _, pm := range tailLadder {
		if n-(n*pm+999)/1000 >= 10 {
			best = pm
		}
	}
	if best < 0 {
		return 0, false
	}
	return float64(best) / 10, true
}

// percentile interpolates linearly between the closest ranks of xs
// (the "type 7" estimator), without modifying xs.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	h := (float64(len(s)) - 1) * p / 100
	lo := math.Floor(h)
	i := int(lo)
	if i+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[i] + (h-lo)*(s[i+1]-s[i])
}

func median(xs []float64) float64 { return percentile(xs, 50) }

func seconds(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = d.Seconds()
	}
	return out
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func millis(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = ms(d)
	}
	return out
}

func sum(ds []time.Duration) time.Duration {
	var t time.Duration
	for _, d := range ds {
		t += d
	}
	return t
}

// tally counts operations against their base. A refused request (a 429
// or 5xx answer) is an attempt of its own that failed, so a job that is
// refused once and then accepted counts two attempts and one failure.
type tally struct {
	attempted, failed int
}

func (t *tally) ok()   { t.attempted++ }
func (t *tally) fail() { t.attempted++; t.failed++ }

// failedShare is failed over attempted; an empty tally has failed nothing.
func (t tally) failedShare() float64 {
	if t.attempted == 0 {
		return 0
	}
	return float64(t.failed) / float64(t.attempted)
}

// splitmix64 derives well-spread 64-bit values from the workload seed.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}
