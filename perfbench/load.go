package main

import (
	"fmt"
	"math/rand"
	"os"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// reqSeq numbers every request the benchmark sends, across clients, so
// X-Request-IDs never repeat within a process.
var reqSeq atomic.Uint64

// failures counts failed operations; the first few are described on
// standard error.
var failures atomic.Int64

func reportFailure(format string, args ...any) {
	if failures.Add(1) <= 5 {
		fmt.Fprintf(os.Stderr, "perfbench: failed: "+format+"\n", args...)
	}
}

// merge folds a worker's counts and samples into p.
func (p *phase) merge(q *phase) {
	p.attempted += q.attempted
	p.failed += q.failed
	p.ops += q.ops
	p.events += q.events
	p.latency = append(p.latency, q.latency...)
	p.firstEvent = append(p.firstEvent, q.firstEvent...)
	p.ack = append(p.ack, q.ack...)
	p.completions = append(p.completions, q.completions...)
	p.late = append(p.late, q.late...)
	p.cpuPerOp = append(p.cpuPerOp, q.cpuPerOp...)
}

// poissonArrivals returns the due offsets of an open loop at rate per
// second over secs seconds.
func poissonArrivals(rng *rand.Rand, rate, secs float64) []time.Duration {
	var out []time.Duration
	t := 0.0
	for {
		t += rng.ExpFloat64() / rate
		if t >= secs {
			return out
		}
		out = append(out, time.Duration(t*float64(time.Second)))
	}
}

// openLoop sends len(due) requests, the i-th due at start+due[i], from
// workers goroutines that each hold one request in flight. A request
// whose due time passes while every worker is busy waits for the next
// free worker, and its latency still counts from when it was due; the
// send lateness of every request is recorded in the returned phase.
// send runs request i on worker w's own phase.
func openLoop(start time.Time, due []time.Duration, workers int, send func(w, i int, due time.Time, p *phase)) *phase {
	var next atomic.Int64
	per := make([]*phase, workers)
	var wg sync.WaitGroup
	for w := range per {
		per[w] = &phase{}
		wg.Add(1)
		go func() {
			defer wg.Done()
			p := per[w]
			for {
				i := int(next.Add(1) - 1)
				if i >= len(due) {
					return
				}
				at := start.Add(due[i])
				sleepUntil(at)
				p.late = append(p.late, time.Since(at))
				send(w, i, at, p)
			}
		}()
	}
	wg.Wait()
	out := &phase{}
	for _, p := range per {
		out.merge(p)
	}
	return out
}

// sleepUntil returns at t, late by microseconds rather than by the
// millisecond the runtime's timers round up to when every goroutine is
// idle: the last stretch sleeps in the kernel.
func sleepUntil(t time.Time) {
	if wait := time.Until(t) - time.Millisecond; wait > 0 {
		time.Sleep(wait)
	}
	if wait := time.Until(t); wait > 0 {
		ts := syscall.NsecToTimespec(int64(wait))
		_ = syscall.Nanosleep(&ts, nil) // an interrupted sleep just ends early
	}
}

// closedLoop runs workers clients until deadline, each sending its next
// request as soon as the previous one completes. Worker w builds its
// sender once, from its own generator seeded from seed and w.
func closedLoop(deadline time.Time, workers int, seed int64, newSender func(rng *rand.Rand) func(p *phase)) *phase {
	per := make([]*phase, workers)
	var wg sync.WaitGroup
	for w := range per {
		per[w] = &phase{}
		wg.Add(1)
		go func() {
			defer wg.Done()
			send := newSender(rand.New(rand.NewSource(seed*1000 + int64(w))))
			for time.Now().Before(deadline) {
				send(per[w])
			}
		}()
	}
	wg.Wait()
	out := &phase{}
	for _, p := range per {
		out.merge(p)
	}
	return out
}
