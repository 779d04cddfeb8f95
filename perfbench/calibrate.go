package main

import (
	"runtime"
	"syscall"
)

// The host's speed changes by tens of percent within seconds as other
// tenants load the machine, and CPU time does not see it when the core
// itself runs slower.  Each round therefore times a fixed calibration just
// before and just after its measured phase, and scales its CPU times by
// calRefS over the mean of the two.  The kernels mimic the simulator's hot
// paths: page-sized copies across a working set far larger than the cache,
// copies inside a cache-sized one, and goroutine handoffs.  The code is
// the benchmark's own, so a change to the program cannot move it.

// calRefS is the calibration's CPU time on the reference machine, a
// 2-vCPU Intel Xeon virtual machine, at a quiet moment.  Scaled host
// times read as seconds on that machine.
const calRefS = 0.40

const (
	calBigArena   = 128 << 20
	calSmallArena = 16 << 20
	calBigCopies  = 150_000
	calSmallCopy  = 300_000
	calHandoffs   = 200_000
)

// calibrate runs the calibration kernels and returns their CPU seconds.
// The arena is mapped outside the Go heap, so the heap metrics do not see
// it, and it is unmapped before calibrate returns.
func calibrate() (float64, error) {
	arena, err := syscall.Mmap(-1, 0, calBigArena, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_PRIVATE|syscall.MAP_ANON)
	if err != nil {
		return 0, err
	}
	defer syscall.Munmap(arena)
	for i := range arena {
		arena[i] = byte(i)
	}
	c := cpuSeconds()
	pageCopies(arena, calBigCopies)
	pageCopies(arena[:calSmallArena], calSmallCopy)
	handoffs(calHandoffs)
	return cpuSeconds() - c, nil
}

// pageCopies copies n 4 KB pages between pseudo-random places in a.
func pageCopies(a []byte, n int) {
	const page = 4096
	pages := uint64(len(a)/page - 1)
	x := uint64(12345)
	for i := 0; i < n; i++ {
		x = x*6364136223846793005 + 1442695040888963407
		s := (x >> 33) % pages * page
		x = x*6364136223846793005 + 1442695040888963407
		d := (x >> 33) % pages * page
		copy(a[d:d+page], a[s:s+page])
	}
}

// handoffs passes a token between two goroutines n times, then waits for
// the second goroutine to exit so the round's goroutine counts stay exact.
func handoffs(n int) {
	before := runtime.NumGoroutine()
	ping, pong := make(chan int), make(chan int)
	go func() {
		for v := range ping {
			pong <- v
		}
	}()
	for i := 0; i < n; i++ {
		ping <- i
		<-pong
	}
	close(ping)
	for runtime.NumGoroutine() > before {
		runtime.Gosched()
	}
}
