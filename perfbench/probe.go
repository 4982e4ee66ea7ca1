package main

import (
	"io/fs"
	"math"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sync/atomic"
	"syscall"
	"time"

	"ddemos/internal/store"
	"ddemos/internal/vc"
)

// Runtime metric names read through runtime/metrics, which never stops
// the world (ReadMemStats would, and would pause the timed phases).
const (
	rmAllocObjects = "/gc/heap/allocs:objects"
	rmAllocBytes   = "/gc/heap/allocs:bytes"
	rmGCPauses     = "/sched/pauses/total/gc:seconds"
	rmHeapLive     = "/gc/heap/live:bytes"
)

// counters is a point-in-time reading of every counter the vote path
// exposes from outside. Phase figures are differences of two readings.
type counters struct {
	frames     int64 // Memnet messages (frames after batching)
	netBytes   int64
	cpu        time.Duration // process user+sys
	allocs     uint64
	allocBytes uint64
	gcPause    float64 // seconds
	nodes      []vc.Snapshot
	diskReads  int64 // Gets that reached the store below the cache
	diskNanos  int64
}

// readRuntime fills the process-wide fields.
func (c *counters) readRuntime() {
	var ru syscall.Rusage
	if syscall.Getrusage(syscall.RUSAGE_SELF, &ru) == nil {
		c.cpu = time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
	}
	s := []metrics.Sample{{Name: rmAllocObjects}, {Name: rmAllocBytes}, {Name: rmGCPauses}}
	metrics.Read(s)
	if s[0].Value.Kind() == metrics.KindUint64 {
		c.allocs = s[0].Value.Uint64()
	}
	if s[1].Value.Kind() == metrics.KindUint64 {
		c.allocBytes = s[1].Value.Uint64()
	}
	if s[2].Value.Kind() == metrics.KindFloat64Histogram {
		c.gcPause = histSum(s[2].Value.Float64Histogram())
	}
}

// histSum approximates the sum of a runtime/metrics histogram by counting
// each observation at its bucket's midpoint (the finite edge for the
// open-ended end buckets).
func histSum(h *metrics.Float64Histogram) float64 {
	var sum float64
	for i, n := range h.Counts {
		if n == 0 {
			continue
		}
		lo, hi := h.Buckets[i], h.Buckets[i+1]
		mid := (lo + hi) / 2
		switch {
		case math.IsInf(lo, -1):
			mid = hi
		case math.IsInf(hi, 1):
			mid = lo
		}
		sum += float64(n) * mid
	}
	return sum
}

// liveHeapMB collects garbage and returns the live heap in MiB. Called
// only between phases, so the forced collection pauses no timed window; it
// also starts every phase from the same collector state.
func liveHeapMB() float64 {
	runtime.GC()
	s := []metrics.Sample{{Name: rmHeapLive}}
	metrics.Read(s)
	if s[0].Value.Kind() != metrics.KindUint64 {
		return 0
	}
	return float64(s[0].Value.Uint64()) / (1 << 20)
}

// timedStore decorates the ballot store the benchmark hands to a VC node.
// core wraps it in its LRU cache, so every Get that reaches it is a cache
// miss served by the segmented on-disk store.
type timedStore struct {
	inner store.Store
	tr    *tracer
	gets  *atomic.Int64
	nanos *atomic.Int64
}

func (s timedStore) Get(serial uint64) (*store.BallotData, error) {
	var id int64
	if s.tr.sampled(serial) {
		id = s.tr.startUnder(spanStoreGet, serial)
	}
	t0 := time.Now()
	bd, err := s.inner.Get(serial)
	s.nanos.Add(int64(time.Since(t0)))
	s.gets.Add(1)
	s.tr.end(id)
	return bd, err
}

func (s timedStore) Count() int   { return s.inner.Count() }
func (s timedStore) Close() error { return s.inner.Close() }

// dirBytes sums the sizes of the regular files under dir (0 if absent).
func dirBytes(dir string) int64 {
	var total int64
	_ = filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil // an unreadable entry adds nothing
		}
		if d.Type().IsRegular() {
			if info, err := d.Info(); err == nil {
				total += info.Size()
			}
		}
		return nil
	})
	return total
}
