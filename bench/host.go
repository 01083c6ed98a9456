package main

import (
	"bytes"
	"os"
	"runtime"
	"runtime/debug"
	"strconv"
	"sync"
	"syscall"
	"time"
)

// cpuSeconds returns the process's user+system CPU time so far.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// rssBytes reads the resident set size from /proc/self/statm (0 where the
// file does not exist).
func rssBytes() int64 {
	data, err := os.ReadFile("/proc/self/statm")
	if err != nil {
		return 0
	}
	f := bytes.Fields(data)
	if len(f) < 2 {
		return 0
	}
	pages, _ := strconv.ParseInt(string(f[1]), 10, 64)
	return pages * int64(os.Getpagesize())
}

// stealSeconds reads the host-wide steal time from /proc/stat: time the
// hypervisor ran something else while this VM wanted the CPU. It is context
// for a slow run, not a metric of the system.
func stealSeconds() float64 {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0
	}
	line, _, _ := bytes.Cut(data, []byte{'\n'})
	f := bytes.Fields(line) // cpu user nice system idle iowait irq softirq steal
	if len(f) < 9 {
		return 0
	}
	ticks, _ := strconv.ParseInt(string(f[8]), 10, 64)
	return float64(ticks) / 100 // USER_HZ is 100 on every Linux ABI Go targets
}

// rssSampler tracks the highest resident set size over a workload with a
// 100 ms poll. start releases free memory to the OS first, so the peak
// belongs to this workload even when several share the process.
type rssSampler struct {
	stop chan struct{}
	wg   sync.WaitGroup
	peak int64
}

func startRSS() *rssSampler {
	debug.FreeOSMemory() // forces a GC too
	s := &rssSampler{stop: make(chan struct{}), peak: rssBytes()}
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		tick := time.NewTicker(100 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-s.stop:
				return
			case <-tick.C:
				if r := rssBytes(); r > s.peak {
					s.peak = r
				}
			}
		}
	}()
	return s
}

// peakMB stops the sampler and returns the peak in MiB.
func (s *rssSampler) peakMB() float64 {
	close(s.stop)
	s.wg.Wait()
	if r := rssBytes(); r > s.peak {
		s.peak = r
	}
	return float64(s.peak) / (1 << 20)
}

// lap measures one stretch of work from outside the system: wall time,
// process CPU time and bytes allocated.
type lap struct {
	t0     time.Time
	cpu0   float64
	alloc0 uint64

	wallS, cpuS float64
	allocBytes  uint64
}

func totalAlloc() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.TotalAlloc
}

func startLap() *lap {
	l := &lap{alloc0: totalAlloc(), cpu0: cpuSeconds()}
	l.t0 = time.Now()
	return l
}

func (l *lap) stop() {
	l.wallS = time.Since(l.t0).Seconds()
	l.cpuS = cpuSeconds() - l.cpu0
	l.allocBytes = totalAlloc() - l.alloc0
}

// liveHeap forces two collections — the second empties the sync.Pool victim
// caches the first one filled — and returns the bytes still reachable.
func liveHeap() uint64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}
