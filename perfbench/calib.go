package main

import (
	"runtime"
	"sync"
	"sync/atomic"
	"time"
	"unsafe"
)

// Host-speed calibration.
//
// The shared VM this benchmark was built on changes speed by a third or more
// from one minute to the next, with and without CPU steal, so eight runs of
// one seed spread by up to 0.29 in wall-clock time. A run therefore times a fixed
// reference kernel between its ops and in set-up, and reports each time at a
// reference speed: the measured time multiplied by refNominalMS over the
// median kernel time around it. The kernel is benchmark code that no program
// change touches, so a change to the program shows in full. README.md gives
// the measurements.

// refNominalMS is about the reference kernel's median time on the host the
// benchmark was built on (Intel Xeon, 2 vCPUs, 105 MB L3), so scaled times
// read close to that host's wall-clock times.
const refNominalMS = 3.0

// refWindow is how many kernel samples on either side of a measurement set
// its scale.
const refWindow = 8

// refInterval is the least time between two kernel samples in the timed
// phase; a client samples after an op once it has passed.
const refInterval = 100 * time.Millisecond

// refBuf is the reference kernel's working set: 16 MB, far above the private
// caches, like the joins and sample stores the workloads walk.
var refBuf = make([]uint32, 1<<22)

// refKernel times the reference kernel: refBuf is flushed from the caches
// and then walked once in a pseudo-random read-modify-write order, so the
// walk reads memory as the workloads' cache-missing joins do and its time
// does not depend on what the program left in the caches. It allocates
// nothing.
func refKernel() time.Duration {
	if canFlush {
		flushLines(unsafe.Pointer(&refBuf[0]), len(refBuf)*4)
	}
	// A fresh time slice: the timed walk is not preempted for a garbage
	// collector's mark worker or another goroutine.
	runtime.Gosched()
	start := time.Now()
	refWalk()
	return time.Since(start)
}

func refWalk() {
	x := uint64(0x9e3779b97f4a7c15)
	var acc uint32
	for i := 0; i < 200_000; i++ {
		x = x*6364136223846793005 + 1442695040888963407
		j := x >> 42 // 22 bits: an index into refBuf
		acc += refBuf[j]
		refBuf[j] = acc ^ uint32(x)
	}
	refBuf[0] += acc // keeps the walk's result live
}

// calibrator holds the kernel samples of one phase of a run. Without
// samples it scales by 1.
type calibrator struct {
	mu      sync.Mutex
	samples []float64 // kernel times in ms, in the order taken
	last    atomic.Int64
}

// sample times the kernel once and records it.
func (c *calibrator) sample() {
	d := ms(refKernel())
	c.mu.Lock()
	defer c.mu.Unlock()
	c.samples = append(c.samples, d)
	c.last.Store(time.Now().UnixNano())
}

// sampleDue samples the kernel if refInterval has passed since the last
// sample.
func (c *calibrator) sampleDue() {
	last := c.last.Load()
	if time.Now().UnixNano()-last < int64(refInterval) || !c.last.CompareAndSwap(last, time.Now().UnixNano()) {
		return
	}
	c.sample()
}

// mark is the position of the next sample: a measurement taken now is
// scaled by the samples around it.
func (c *calibrator) mark() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.samples)
}

// scale is the factor that brings a measurement taken at mark to the
// reference speed: refNominalMS over the median of the refWindow samples on
// either side of mark, or 1 without samples.
func (c *calibrator) scale(mark int) float64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	lo, hi := max(0, mark-refWindow), min(len(c.samples), mark+refWindow)
	if lo >= hi {
		return 1
	}
	return refNominalMS / median(c.samples[lo:hi])
}

// medianMS is the median of every sample, or 0 without samples.
func (c *calibrator) medianMS() float64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	if len(c.samples) == 0 {
		return 0
	}
	return median(c.samples)
}
