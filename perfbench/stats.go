package main

import (
	"math"
	"os"
	"path/filepath"
	"sort"
	"syscall"
	"time"
)

// processCPU is the CPU time, user and system, the process has used so
// far: the deployment's and the load generator's.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// cpuWindow starts one window of a measured phase. The function it
// returns ends the window and records in p the process's CPU time per
// operation completed in it; a window without one records nothing.
func (p *phase) cpuWindow() func(ops int64) {
	start := processCPU()
	return func(ops int64) {
		if ops > 0 {
			p.cpuPerOp = append(p.cpuPerOp, ms(processCPU()-start)/float64(ops))
		}
	}
}

// sample is one operation's latency and when the operation was due.
type sample struct {
	at time.Time
	d  time.Duration
}

// maxWindows is the most windows windowedQuantile splits a run into.
const maxWindows = 25

// windowedQuantile sorts the samples by when they were due, splits them
// into equal windows, takes the q-quantile of each window and returns
// the median of those. There are as many windows as keep ten samples
// beyond q in each, at most maxWindows: a stall of the host moves one
// window, not the result. The p50s use it; a tail quantile
// would hide stalls that recur in fewer than half of the windows, so
// the p99s are plain quantiles over all samples.
func windowedQuantile(s []sample, q float64) time.Duration {
	if len(s) == 0 {
		return 0
	}
	s = append([]sample(nil), s...)
	sort.Slice(s, func(i, j int) bool { return s[i].at.Before(s[j].at) })
	k := min(maxWindows, max(1, int(float64(len(s))*(1-q)/10)))
	var per []float64
	for w := 0; w < k; w++ {
		per = append(per, float64(quantile(durations(s[w*len(s)/k:(w+1)*len(s)/k]), q)))
	}
	return time.Duration(median(per))
}

// durations returns the samples' latencies.
func durations(s []sample) []time.Duration {
	ds := make([]time.Duration, len(s))
	for i, x := range s {
		ds[i] = x.d
	}
	return ds
}

// windowedRate splits [start, end) into ten equal windows and returns
// the median over windows of completions per second.
func windowedRate(done []time.Time, start, end time.Time) float64 {
	const k = 10
	width := end.Sub(start) / k
	if width <= 0 {
		return 0
	}
	counts := make([]float64, k)
	for _, t := range done {
		if w := int(t.Sub(start) / width); w >= 0 && w < k {
			counts[w]++
		}
	}
	for i := range counts {
		counts[i] /= width.Seconds()
	}
	return median(counts)
}

// quantile returns the q-quantile (nearest rank) of ds; 0 when empty.
func quantile(ds []time.Duration, q float64) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	s := append([]time.Duration(nil), ds...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	i := int(math.Ceil(q*float64(len(s)))) - 1
	if i < 0 {
		i = 0
	}
	return s[i]
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

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

// ratio is a/b, 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// fileSizesKB returns the sizes of the regular files matching pattern.
func fileSizesKB(pattern string) []float64 {
	paths, _ := filepath.Glob(pattern)
	var out []float64
	for _, p := range paths {
		if fi, err := os.Stat(p); err == nil && fi.Mode().IsRegular() {
			out = append(out, float64(fi.Size())/1024)
		}
	}
	return out
}

// metricSet is the "metrics" object of the result line: every value
// carries its unit.
type metricSet map[string]metric

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func (m metricSet) set(name, unit string, v float64) { m[name] = metric{Value: v, Unit: unit} }
