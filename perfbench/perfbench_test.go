package main

import (
	"os"
	"path/filepath"
	"runtime/pprof"
	"testing"
	"time"

	"raidii/internal/sim"
)

func TestTailPercentileLeavesTenBeyond(t *testing.T) {
	for _, tc := range []struct {
		n      int
		pct    float64
		beyond int
	}{
		{36, 50, 18}, {72, 75, 18}, {128, 90, 12}, {288, 95, 14}, {2000, 99, 20}, {4000, 99, 40}, {20000, 99.9, 20},
	} {
		pct, beyond := tailPercentile(tc.n)
		if pct != tc.pct || beyond != tc.beyond {
			t.Errorf("tailPercentile(%d) = p%g with %d beyond, want p%g with %d", tc.n, pct, beyond, tc.pct, tc.beyond)
		}
	}
}

func TestPercentileNearestRank(t *testing.T) {
	var s []sim.Duration
	for i := 100; i >= 1; i-- {
		s = append(s, sim.Duration(i))
	}
	if got := percentile(s, 50); got != 50 {
		t.Errorf("p50 = %v, want 50", got)
	}
	if got := percentile(s, 99); got != 99 {
		t.Errorf("p99 = %v, want 99", got)
	}
}

func TestBucketOf(t *testing.T) {
	for _, tc := range []struct {
		frames []string
		want   string
	}{
		{[]string{"runtime.memmove", "raidii/internal/lfs.(*FS).appendBlock"}, "runtime.memmove"},
		{[]string{"runtime.memclrNoHeapPointers", "raidii/internal/disk.(*pagestore).ReadAt"}, "runtime.memclr"},
		{[]string{"runtime.scanobject", "runtime.gcDrain", "runtime.gcBgMarkWorker"}, "runtime.malloc_gc"},
		{[]string{"runtime.futex", "runtime.findRunnable", "runtime.schedule", "runtime.park_m"}, "runtime.sched"},
		{[]string{"sort.insertionSort", "raidii/internal/lfs.parseDir"}, "lfs"},
		{[]string{"raidii/internal/xbus.(*Board).XOR"}, "xbus"},
		{[]string{"raidii/internal/telemetry.StageSpan"}, "instr"},
		{[]string{"raidii/internal/fault.Retryable"}, "other"},
		{[]string{"bytes.Equal", "main.(*smallInst).classify"}, "bench"},
		{[]string{"raidii.(*ClusterTask).withRetry"}, "api"},
		{[]string{"runtime.nanotime"}, "runtime.other"},
	} {
		if got := bucketOf(tc.frames); got != tc.want {
			t.Errorf("bucketOf(%v) = %q, want %q", tc.frames, got, tc.want)
		}
	}
}

// spin burns CPU in this package so a profile attributes it to the bench.
func spin(d time.Duration) int {
	n := 0
	for start := time.Now(); time.Since(start) < d; n++ {
	}
	return n
}

func TestProfileBucketsReadsARealProfile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "cpu.pprof")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		t.Fatal(err)
	}
	spin(300 * time.Millisecond)
	pprof.StopCPUProfile()
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	buckets, err := profileBuckets(path)
	if err != nil {
		t.Fatal(err)
	}
	var total int64
	for _, v := range buckets {
		total += v
	}
	if total == 0 || buckets["bench"]*2 < total {
		t.Fatalf("buckets %v: want most CPU time in bench", buckets)
	}
}

func TestDegradedCheckClassifiesPages(t *testing.T) {
	pool := make([]byte, 4*degPage)
	for i := range pool {
		pool[i] = byte(i / degPage * 37)
	}
	page := func(v int) []byte { return pool[v*degPage : (v+1)*degPage] }
	read := func(vs ...int) []byte {
		var b []byte
		for _, v := range vs {
			b = append(b, page(v)...)
		}
		return b
	}
	for _, tc := range []struct {
		name    string
		got     []byte
		correct bool
		raced   float64
	}{
		{"current versions", read(0, 2), true, 0},
		{"either version after an uncertain write", read(0, 3), true, 0},
		{"an earlier version of a page is the race", read(1, 2), true, 1},
		{"another page's version is corruption", read(0, 0), false, 0},
	} {
		in := &degInst{guard: &crashGuard{pool: pool}, pages: []pageVersions{
			{now: []int{0}, past: []int{degPage}},
			{now: []int{2 * degPage, 3 * degPage}},
		}}
		r := newRoundWithPool(1, false, pool)
		in.check(r, "read", 0, tc.got)
		if r.res.Correct != tc.correct || r.defects["bench.rebuild_race"] != tc.raced {
			t.Errorf("%s: correct %v, rebuild_race %v; want %v, %v",
				tc.name, r.res.Correct, r.defects["bench.rebuild_race"], tc.correct, tc.raced)
		}
	}
}
