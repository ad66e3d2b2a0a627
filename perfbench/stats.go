package main

import (
	"runtime/metrics"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// median returns the middle value of xs (the mean of the two middle values
// for an even count).
func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quantile returns the q-quantile of xs by linear interpolation between the
// closest ranks. xs is not modified.
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

// durationsMs converts durations to milliseconds.
func durationsMs(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d) / float64(time.Millisecond)
	}
	return out
}

// ms is a duration in milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// heapMetric is the heap the Go runtime's last GC cycle marked live, read
// without stopping the world. Sampled HeapAlloc also counts garbage not yet
// collected, whose amount depends on when each GC cycle happens to run: on
// the tables workload its per-pass peaks read 127 to 146 MB, where the live
// heap's read 64 to 73 MB.
const heapMetric = "/gc/heap/live:bytes"

// heapSampler records the peak of heapMetric, sampled every millisecond by
// one goroutine that stop ends and waits for.
type heapSampler struct {
	max  atomic.Uint64
	quit chan struct{}
	wg   sync.WaitGroup
}

func startHeapSampler() *heapSampler {
	h := &heapSampler{quit: make(chan struct{})}
	h.wg.Add(1)
	go func() {
		defer h.wg.Done()
		sample := []metrics.Sample{{Name: heapMetric}}
		tick := time.NewTicker(time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-h.quit:
				return
			case <-tick.C:
				metrics.Read(sample)
				v := sample[0].Value.Uint64()
				for {
					old := h.max.Load()
					if v <= old || h.max.CompareAndSwap(old, v) {
						break
					}
				}
			}
		}
	}()
	return h
}

// reset starts a new peak window at the current heap size.
func (h *heapSampler) reset() { h.max.Store(heapNow()) }

// peak returns the largest heap size seen since reset, including now.
func (h *heapSampler) peak() uint64 {
	if v := heapNow(); v > h.max.Load() {
		return v
	}
	return h.max.Load()
}

func (h *heapSampler) stop() {
	close(h.quit)
	h.wg.Wait()
}

func heapNow() uint64 {
	sample := []metrics.Sample{{Name: heapMetric}}
	metrics.Read(sample)
	return sample[0].Value.Uint64()
}

// allocNow is the cumulative count of bytes allocated on the heap.
func allocNow() uint64 {
	sample := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(sample)
	return sample[0].Value.Uint64()
}
