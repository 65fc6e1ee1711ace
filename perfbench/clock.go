package main

import (
	"syscall"
	"time"
	"unsafe"
)

// The benchmark runs on shared machines whose speed drifts: other
// tenants steal CPU and contend for caches and memory bandwidth, and a
// run can take half as long again as the same run minutes earlier. Two
// measures make its host times comparable across runs:
//
//   - each simulation is charged the process's CPU time (the
//     simulation's thread plus the Go runtime's garbage-collector
//     threads), not the time it waited to be scheduled;
//   - before each simulation the run times a fixed calibration kernel —
//     random reads and writes over a 16 MB table, the simulator's own
//     access pattern, in code that does not depend on the simulator —
//     and divides every host time by the run's median kernel time
//     relative to calRef. Host times are thus reported in seconds of a
//     host on which the kernel takes calRef.
//
// The raw wall and CPU figures are printed alongside.

// sample is one measured interval: wall time and process CPU time.
type sample struct{ wall, cpu time.Duration }

func measure(f func()) sample {
	c0, t0 := cpuTime(), time.Now()
	f()
	return sample{wall: time.Since(t0), cpu: cpuTime() - c0}
}

// cpuTime is the process's user plus system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB is the process's peak resident set size in MB, less the
// calibration table, which is resident throughout every run.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss)/1024 - calTableBytes/(1<<20) // Linux reports kilobytes
}

const (
	calTableBytes = 16 << 20
	calSteps      = 1 << 19
	// calRef is the kernel's CPU time on an unloaded 2-vCPU Xeon host.
	calRef = 10 * time.Millisecond
)

var (
	calTable = newCalTable()
	calSink  uint64
)

// newCalTable maps the calibration table outside the Go heap, so that it
// neither moves the garbage collector's pacing nor the heap's peak. It
// is touched in full here, so it is resident for the whole run.
func newCalTable() []uint64 {
	b, err := syscall.Mmap(-1, 0, calTableBytes, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_PRIVATE|syscall.MAP_ANON)
	if err != nil {
		return make([]uint64, calTableBytes/8)
	}
	t := unsafe.Slice((*uint64)(unsafe.Pointer(&b[0])), calTableBytes/8)
	for i := range t {
		t[i] = uint64(i)
	}
	return t
}

// calibrate runs the calibration kernel once: an xorshift walk doing a
// dependent read-modify-write at each step.
func calibrate() {
	x := uint64(0x9E3779B97F4A7C15)
	var acc uint64
	for i := 0; i < calSteps; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		j := x & uint64(len(calTable)-1)
		acc += calTable[j]
		calTable[j] = acc ^ x
	}
	calSink = acc
}

// slowdown is how much slower than the reference host this run's host
// was: the median kernel CPU time over calRef.
func slowdown(cal []sample) float64 {
	xs := make([]float64, len(cal))
	for i, c := range cal {
		xs[i] = c.cpu.Seconds()
	}
	if f := median(xs) / calRef.Seconds(); f > 0 {
		return f
	}
	return 1
}

// sweepSeconds is the host seconds of one pass over the jobs, by the
// chosen clock: the sum of each job's median time. It also returns the
// per-job medians.
func sweepSeconds(perJob [][]sample, clock func(sample) time.Duration) (float64, []float64) {
	meds := make([]float64, len(perJob))
	var sum float64
	for i, ss := range perJob {
		xs := make([]float64, len(ss))
		for k, s := range ss {
			xs[k] = clock(s).Seconds()
		}
		meds[i] = median(xs)
		sum += meds[i]
	}
	return sum, meds
}

func wallClock(s sample) time.Duration { return s.wall }
func cpuClock(s sample) time.Duration  { return s.cpu }
