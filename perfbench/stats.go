package main

import (
	"math"
	"runtime"
	"runtime/metrics"
	"sort"
	"sync"
	"time"
)

// quantile returns the q-quantile (0..1) of xs by nearest rank on a sorted
// copy; 0 for an empty slice.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(s) {
		i = len(s) - 1
	}
	return s[i]
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// heapObjects is the runtime metric the peak-heap sampler reads: bytes of
// heap memory occupied by objects, live or not yet swept. Reading it does
// not stop the world, unlike runtime.ReadMemStats.
const heapObjects = "/memory/classes/heap/objects:bytes"

// heapSampler records the peak heap-object bytes above a baseline taken
// right after a forced GC, sampling every two milliseconds until stopped.
type heapSampler struct {
	base uint64
	peak uint64
	stop chan struct{}
	wg   sync.WaitGroup
}

func readHeapObjects() uint64 {
	s := []metrics.Sample{{Name: heapObjects}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// heapBaseline forces a GC and returns the heap-object bytes left.
func heapBaseline() uint64 {
	runtime.GC()
	return readHeapObjects()
}

// startHeap takes a fresh baseline and starts sampling.
func startHeap() *heapSampler {
	base := heapBaseline()
	h := &heapSampler{base: base, peak: base, stop: make(chan struct{})}
	h.wg.Add(1)
	go func() {
		defer h.wg.Done()
		tick := time.NewTicker(2 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-tick.C:
				if v := readHeapObjects(); v > h.peak {
					h.peak = v
				}
			case <-h.stop:
				return
			}
		}
	}()
	return h
}

// done stops sampling and returns the peak growth over the baseline in MB.
func (h *heapSampler) done() float64 {
	close(h.stop)
	h.wg.Wait()
	if v := readHeapObjects(); v > h.peak {
		h.peak = v
	}
	return float64(h.peak-h.base) / 1e6
}

// goStats is a snapshot of the Go runtime counters the per-layer report
// takes deltas of.
type goStats struct {
	allocBytes uint64
	gcCycles   uint64
	pauseNs    uint64
	heapLive   uint64
}

func readGoStats() goStats {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(s)
	return goStats{
		allocBytes: ms.TotalAlloc,
		gcCycles:   uint64(ms.NumGC),
		pauseNs:    ms.PauseTotalNs,
		heapLive:   s[0].Value.Uint64(),
	}
}
