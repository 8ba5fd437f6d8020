package main

import (
	"fmt"
	"math"
	"syscall"
	"time"
)

// Host-speed calibration. On a shared host, other tenants slow this
// process for tens of seconds at a time. On a 2-vCPU Xeon VM a fixed
// random-access loop over 16 MiB ran up to 1.5x slower from one stretch
// to the next while a pure-ALU loop stayed within 5%, and the simulator's
// rate on a fixed set of runs moved ±15-18% between 10-15 s windows. The
// host times of each timed phase are therefore scaled to reference speed
// by calibration loops timed throughout it: scaled = measured × factor,
// where a calibration's factor is the geometric mean of each loop's
// reference time over its measured time and the phase uses the median
// calibration. One loop makes random
// read-modify-writes over 16 MiB (the memory system); the other updates a
// binary heap and a map in place (the core and its caches, the shape of
// the event engine's work). Over the same windows the simulator's time
// relative to them moved ±4-7%. The loops are fixed code outside the
// program and allocate nothing, so a change to the simulator moves scaled
// figures exactly as it moves measured ones.
const (
	calBytes    = 16 << 20
	calMemIters = 100_000
	calCoreOps  = 7_500
	// The loops' times at reference speed, about their best times on a
	// quiet 2-vCPU Xeon VM; scaled seconds are seconds on that host.
	calMemRef  = 500 * time.Microsecond
	calCoreRef = time.Millisecond
	// calEvery spaces calibrations; the runs in between share one factor.
	calEvery = 250 * time.Millisecond
)

// calibrator owns the loops' state. The memory loop's buffer is mapped
// outside the Go heap so it neither counts toward the collector's pacing
// nor shows in the heap metrics.
type calibrator struct {
	buf  []byte
	keys []float64   // a binary min-heap
	m    map[int]int // fixed key set, so updates never allocate
	sink uint64
}

func newCalibrator() (*calibrator, error) {
	buf, err := syscall.Mmap(-1, 0, calBytes, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		return nil, fmt.Errorf("mapping calibration buffer: %w", err)
	}
	c := &calibrator{buf: buf, keys: make([]float64, 1024), m: make(map[int]int, 4096)}
	for i := range buf {
		buf[i] = byte(i)
	}
	for i := range c.keys {
		c.keys[i] = float64(i)
	}
	for i := 0; i < 4096; i++ {
		c.m[i] = i
	}
	return c, nil
}

func (c *calibrator) close() error { return syscall.Munmap(c.buf) }

func (c *calibrator) memLoop() {
	x := c.sink | 1
	for i := 0; i < calMemIters; i++ {
		x = x*6364136223846793005 + 1442695040888963407
		c.buf[x>>40] += byte(x)
	}
	c.sink += x
}

func (c *calibrator) coreLoop() {
	x := c.sink | 1
	h := c.keys
	for n := 0; n < calCoreOps; n++ {
		x = x*6364136223846793005 + 1442695040888963407
		// Raise the minimum and sift it down, as the event heap does.
		h[0] += 1 + float64(x>>56)
		for i := 0; ; {
			l, r, min := 2*i+1, 2*i+2, i
			if l < len(h) && h[l] < h[min] {
				min = l
			}
			if r < len(h) && h[r] < h[min] {
				min = r
			}
			if min == i {
				break
			}
			h[i], h[min] = h[min], h[i]
			i = min
		}
		c.m[int(x>>52)]++
	}
	c.sink += x
}

// factor times each loop three times and returns the geometric mean of
// the reference times over the best times: below 1 when the host runs
// slower than reference speed. The best of three drops a repeat the
// collector or the scheduler interrupted.
func (c *calibrator) factor() float64 {
	best := func(loop func()) time.Duration {
		b := time.Duration(1<<63 - 1)
		for k := 0; k < 3; k++ {
			t0 := time.Now()
			loop()
			if d := time.Since(t0); d < b {
				b = d
			}
		}
		return b
	}
	mem, core := best(c.memLoop), best(c.coreLoop)
	return math.Sqrt(float64(calMemRef) / float64(mem) * float64(calCoreRef) / float64(core))
}
