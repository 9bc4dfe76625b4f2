package main

import (
	"math"
	"os"
	"sort"
	"strconv"
	"strings"
)

// minBeyond is how many samples must lie above a percentile before it
// is reported: a p99 over 200 samples rests on two requests and says
// nothing a rerun would repeat.
const minBeyond = 10

// dist is a sorted sample of one measured quantity.
type dist struct{ xs []float64 }

func newDist(xs []float64) dist {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return dist{xs: s}
}

// N is the sample count every reported figure rests on.
func (d dist) N() int { return len(d.xs) }

// Median is the middle sample (mean of the two middle ones for an even
// count); 0 for an empty sample.
func (d dist) Median() float64 {
	n := len(d.xs)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return d.xs[n/2]
	}
	return (d.xs[n/2-1] + d.xs[n/2]) / 2
}

// Percentile returns the nearest-rank p-quantile (0 < p < 1) and
// whether at least minBeyond samples lie beyond it; callers print a
// percentile only when ok.
func (d dist) Percentile(p float64) (v float64, ok bool) {
	n := len(d.xs)
	if n == 0 {
		return 0, false
	}
	i := int(math.Ceil(p*float64(n))) - 1
	if i < 0 {
		i = 0
	}
	return d.xs[i], n-1-i >= minBeyond
}

// peakRSSMB reads the process's peak resident set (VmHWM) in MiB.
func peakRSSMB() (float64, error) {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, err
			}
			return kb / 1024, nil
		}
	}
	return 0, os.ErrNotExist
}
