package main

import (
	"runtime"
	"sync/atomic"
	"syscall"
	"time"
)

// cpuTime returns the process's user plus system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB returns the process's peak resident set size in MB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports kilobytes
}

// window brackets a measured interval: wall clock, process CPU and Go
// runtime allocation counters at its start.
type window struct {
	start time.Time
	cpu   time.Duration
	mem   runtime.MemStats
	// m counts the window's work for the interval sampler s.
	m meter
	s *sampler
}

func openWindow() *window {
	w := &window{}
	runtime.ReadMemStats(&w.mem)
	w.cpu = cpuTime()
	w.start = time.Now()
	w.s = startSampler(&w.m)
	return w
}

// windowStats is what happened inside a window.
type windowStats struct {
	Elapsed  time.Duration
	CPU      time.Duration
	Allocs   uint64
	Bytes    uint64
	GCCycles uint32
	GCPause  time.Duration
	Ticks    []tick
}

// meter counts completed work as it happens, for the interval sampler.
type meter struct {
	queries, ops atomic.Int64
}

func (m *meter) add(queries, ops int64) {
	m.queries.Add(queries)
	m.ops.Add(ops)
}

// tick is one sampler reading.
type tick struct {
	at           time.Time
	cpu          time.Duration
	queries, ops int64
}

// sampleEvery is the sampler's interval. Throughput and CPU per op are
// medians over these intervals, so a burst of outside load during part
// of a run moves them less than it moves a whole-run mean.
const sampleEvery = time.Second

// sampler reads the meter and the process CPU clock every sampleEvery
// until finish.
type sampler struct {
	m     *meter
	ticks []tick
	stop  chan struct{}
	done  chan struct{}
}

func startSampler(m *meter) *sampler {
	s := &sampler{m: m, stop: make(chan struct{}), done: make(chan struct{})}
	s.ticks = append(s.ticks, s.read())
	go func() {
		defer close(s.done)
		t := time.NewTicker(sampleEvery)
		defer t.Stop()
		for {
			select {
			case <-t.C:
				s.ticks = append(s.ticks, s.read())
			case <-s.stop:
				s.ticks = append(s.ticks, s.read())
				return
			}
		}
	}()
	return s
}

func (s *sampler) read() tick {
	return tick{at: time.Now(), cpu: cpuTime(), queries: s.m.queries.Load(), ops: s.m.ops.Load()}
}

// finish stops the sampler and returns its readings.
func (s *sampler) finish() []tick {
	close(s.stop)
	<-s.done
	return s.ticks
}

// intervalRates returns the median over sampler intervals of queries
// per second and of CPU per op. Intervals shorter than half the
// sampling period (the run's ragged end) are skipped.
func intervalRates(ticks []tick) (qps, cpuUSPerOp float64) {
	var rates, cpus []float64
	for i := 1; i < len(ticks); i++ {
		a, b := ticks[i-1], ticks[i]
		dt := b.at.Sub(a.at)
		if dt < sampleEvery/2 {
			continue
		}
		rates = append(rates, float64(b.queries-a.queries)/dt.Seconds())
		if ops := b.ops - a.ops; ops > 0 {
			cpus = append(cpus, us(b.cpu-a.cpu)/float64(ops))
		}
	}
	return medianFloat(rates), medianFloat(cpus)
}

func (w *window) close() windowStats {
	ticks := w.s.finish()
	elapsed := time.Since(w.start)
	cpu := cpuTime() - w.cpu
	var end runtime.MemStats
	runtime.ReadMemStats(&end)
	return windowStats{
		Elapsed:  elapsed,
		CPU:      cpu,
		Allocs:   end.Mallocs - w.mem.Mallocs,
		Bytes:    end.TotalAlloc - w.mem.TotalAlloc,
		GCCycles: end.NumGC - w.mem.NumGC,
		GCPause:  time.Duration(end.PauseTotalNs - w.mem.PauseTotalNs),
		Ticks:    ticks,
	}
}
