package main

import (
	"math"
	"sort"
	"sync"
	"time"
)

// latencies keeps every observation, so its quantiles are measured values.
// The HDR benchmark.Histogram reports bucket upper edges about 3% apart:
// steady runs then read the same edge, and a change smaller than a bucket
// does not show.
type latencies struct {
	mu     sync.Mutex
	ds     []time.Duration
	sorted bool
}

// Record adds one observation; safe for concurrent use.
func (l *latencies) Record(d time.Duration) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.ds = append(l.ds, d)
	l.sorted = false
}

// Count returns the number of observations.
func (l *latencies) Count() int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return int64(len(l.ds))
}

// Mean returns the mean observation (0 for none).
func (l *latencies) Mean() time.Duration {
	l.mu.Lock()
	defer l.mu.Unlock()
	if len(l.ds) == 0 {
		return 0
	}
	var sum time.Duration
	for _, d := range l.ds {
		sum += d
	}
	return sum / time.Duration(len(l.ds))
}

// Quantile returns the nearest-rank q-quantile: the observation at rank
// ceil(q·n), so it is always one that was measured (0 for none).
func (l *latencies) Quantile(q float64) time.Duration {
	l.mu.Lock()
	defer l.mu.Unlock()
	if len(l.ds) == 0 {
		return 0
	}
	if !l.sorted {
		sort.Slice(l.ds, func(i, j int) bool { return l.ds[i] < l.ds[j] })
		l.sorted = true
	}
	rank := int(math.Ceil(q * float64(len(l.ds))))
	return l.ds[min(max(rank, 1), len(l.ds))-1]
}

// median returns the median of xs (0 for none).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// medianOf is the median of f over xs.
func medianOf[T any](xs []T, f func(T) float64) float64 {
	vs := make([]float64, len(xs))
	for i, x := range xs {
		vs[i] = f(x)
	}
	return median(vs)
}
