package main

import (
	"fmt"
	"io"
	"runtime/metrics"
	"sort"
	"sync"
	"time"
)

// sample collects durations for percentile reporting.
type sample struct {
	mu sync.Mutex
	d  []time.Duration
}

func (s *sample) add(d time.Duration) {
	s.mu.Lock()
	s.d = append(s.d, d)
	s.mu.Unlock()
}

func (s *sample) sorted() []time.Duration {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := append([]time.Duration(nil), s.d...)
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// median of the sample in milliseconds (0 when empty).
func (s *sample) medianMS() float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return ms(medianOf(s.d))
}

// medianOf returns the median of unsorted durations (0 when empty).
func medianOf(d []time.Duration) time.Duration {
	n := len(d)
	if n == 0 {
		return 0
	}
	s := append([]time.Duration(nil), d...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// meanOf returns the mean of durations (0 when empty).
func meanOf(d []time.Duration) time.Duration {
	if len(d) == 0 {
		return 0
	}
	var sum time.Duration
	for _, x := range d {
		sum += x
	}
	return sum / time.Duration(len(d))
}

// tailSamples is how many samples must lie beyond the reported tail.
const tailSamples = 10

// tail returns the highest order statistic with at least tailSamples
// samples beyond it, its percentile, and the sample count. Samples of
// tailSamples or fewer have no such statistic; the smallest value is
// reported then, and the percentile reads 0.
func (s *sample) tail() (valueMS, pct float64, n int) {
	d := s.sorted()
	n = len(d)
	if n == 0 {
		return 0, 0, 0
	}
	i := max(0, n-1-tailSamples)
	return ms(d[i]), 100 * float64(i) / float64(n), n
}

// putTimings records a sample's median and tail under name_p50 and
// name_tail and logs the tail's percentile and sample count.
func putTimings(rep *report, log io.Writer, name string, s *sample) {
	rep.values[name+"_p50"] = s.medianMS()
	v, pct, n := s.tail()
	rep.values[name+"_tail"] = v
	fmt.Fprintf(log, "%s_tail is p%.1f of %d samples\n", name, pct, n)
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func medianFloat(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// ratio is a/b, or 0 when b is 0 (a layer that did no work).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// heapInUse returns the Go heap in use: live objects, garbage not yet
// swept, and free space inside in-use spans (MemStats.HeapInuse), read
// without stopping the world.
func heapInUse() uint64 {
	s := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}, {Name: "/memory/classes/heap/unused:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64() + s[1].Value.Uint64()
}

// heapLive returns the bytes of live heap objects; read right after a
// collection, that is the heap the program holds.
func heapLive() uint64 {
	s := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

func mb(bytes uint64) float64 { return float64(bytes) / (1 << 20) }
