package main

import (
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// quantile returns the nearest-rank q-quantile of sorted samples.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return quantile(s, 0.5)
}

// latencies is one op kind's timed samples in milliseconds.
type latencies []float64

func (l latencies) sorted() []float64 {
	s := append([]float64(nil), l...)
	sort.Float64s(s)
	return s
}

// tail reports the q-quantile together with how many samples lie beyond
// it; a tail percentile is only meaningful with at least ten.
func (l latencies) tail(q float64) (v float64, beyond int) {
	s := l.sorted()
	v = quantile(s, q)
	for i := len(s) - 1; i >= 0 && s[i] > v; i-- {
		beyond++
	}
	return v, beyond
}

// cpuTime is the process's user+system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// maxRSSMB is the process's peak resident set size in MB since it
// started.
func maxRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// rssSampler samples the process's resident set from /proc/self/statm
// every 10 ms while a timed loop runs.
type rssSampler struct {
	stop, done chan struct{}
	samples    []float64
}

func sampleRSS() *rssSampler {
	s := &rssSampler{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(s.done)
		t := time.NewTicker(10 * time.Millisecond)
		defer t.Stop()
		for {
			s.samples = append(s.samples, currentRSSMB())
			select {
			case <-s.stop:
				return
			case <-t.C:
			}
		}
	}()
	return s
}

// finish stops the sampler and returns its samples.
func (s *rssSampler) finish() []float64 {
	close(s.stop)
	<-s.done
	return s.samples
}

func currentRSSMB() float64 {
	b, err := os.ReadFile("/proc/self/statm")
	if err != nil {
		return 0
	}
	f := strings.Fields(string(b))
	if len(f) < 2 {
		return 0
	}
	pages, _ := strconv.ParseFloat(f[1], 64)
	return pages * float64(os.Getpagesize()) / (1 << 20)
}

// gcSample reads the cumulative GC cycle count and heap allocation
// without stopping the world (runtime.ReadMemStats would).
type gcSample struct{ cycles, allocBytes uint64 }

func readGC() gcSample {
	s := []metrics.Sample{{Name: "/gc/cycles/total:gc-cycles"}, {Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(s)
	return gcSample{cycles: s[0].Value.Uint64(), allocBytes: s[1].Value.Uint64()}
}

// hostSample is the host-wide state that explains noise between runs:
// CPU steal time (another tenant of the machine running on our CPUs) and
// the load average.
type hostSample struct {
	stealTicks, totalTicks uint64
	load1                  float64
}

func readHost() hostSample {
	var h hostSample
	if b, err := os.ReadFile("/proc/stat"); err == nil {
		line, _, _ := strings.Cut(string(b), "\n")
		fields := strings.Fields(line)
		for i, f := range fields[1:] {
			n, _ := strconv.ParseUint(f, 10, 64)
			if i < 8 { // user nice system idle iowait irq softirq steal
				h.totalTicks += n
			}
			if i == 7 {
				h.stealTicks = n
			}
		}
	}
	if b, err := os.ReadFile("/proc/loadavg"); err == nil {
		if f := strings.Fields(string(b)); len(f) > 0 {
			h.load1, _ = strconv.ParseFloat(f[0], 64)
		}
	}
	return h
}

// runMeta is printed with every run so a noisy figure can be traced to
// the host rather than the program.
func runMeta(seed int64, start, end hostSample) string {
	steal := 0.0
	if dt := end.totalTicks - start.totalTicks; dt > 0 {
		steal = float64(end.stealTicks-start.stealTicks) / float64(dt)
	}
	return fmt.Sprintf("# meta seed=%d go=%s nproc=%d gomaxprocs=%d steal=%.2f%% loadavg1=%.2f->%.2f",
		seed, runtime.Version(), runtime.NumCPU(), runtime.GOMAXPROCS(0), 100*steal, start.load1, end.load1)
}
