package main

import (
	"runtime"
	"sort"
	"time"
)

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics (0 for an empty sample).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// gcWindow measures garbage-collector activity between start and stop.
type gcWindow struct{ cycles, pauseNS uint64 }

func startGC() gcWindow {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return gcWindow{uint64(m.NumGC), m.PauseTotalNs}
}

// stop reports the GC cycles and total pause time since start.
func (w gcWindow) stop() (cycles, pauseMs float64) {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(uint64(m.NumGC) - w.cycles), float64(m.PauseTotalNs-w.pauseNS) / 1e6
}

// residentMB is the Go heap in use after forced collections (two, so that
// sync.Pool victim caches are dropped too).
func residentMB() float64 {
	runtime.GC()
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.HeapAlloc) / 1e6
}

// mallocs is the process's cumulative heap allocation count.
func mallocs() uint64 {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.Mallocs
}
