package main

import (
	"bufio"
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"
	"syscall"
	"time"

	"raidii/internal/server"
	"raidii/internal/sim"
	"raidii/internal/telemetry"
	"raidii/internal/trace"
)

// workload is one benchmark input family.  build assembles, formats and
// preloads a system from the round's seed-derived plan; it is what setup_s
// times.
type workload struct {
	name  string
	why   string
	build func(r *round) (instance, error)
}

// instance is one assembled system under a workload.
type instance interface {
	// engine is the simulation engine every host of the system shares.
	engine() *sim.Engine
	// systems lists the server hosts, for per-layer counters.
	systems() []*server.System
	// measure runs the timed closed loop to completion.
	measure(r *round) error
	// verify reads everything back and runs the consistency checks.
	verify(r *round) error
	// owner is the value handed to the library user (a raidii.Server or
	// raidii.Cluster), released after the round.
	owner() any
}

var workloads = []*workload{streamWorkload, smallfileWorkload, degradedWorkload, clusterWorkload}

func workloadNames() []string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return names
}

func lookupWorkload(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// roundResult is what one child process reports to the parent.
type roundResult struct {
	Traced    bool     `json:"traced"`
	Correct   bool     `json:"correct"`
	Attempted int64    `json:"attempted"`
	Failed    int64    `json:"failed"`
	Problems  []string `json:"problems,omitempty"`

	// SetupS and HostCPUS are process CPU seconds (user and system, every
	// thread); HostWallS is the measured phase's wall time.  Speed is
	// calRefS over the round's calibration time: multiplied by it, CPU
	// seconds read as seconds on the reference machine.
	SetupS         float64 `json:"setupS"`
	HostCPUS       float64 `json:"hostCPUS"`
	HostWallS      float64 `json:"hostWallS"`
	Speed          float64 `json:"speed"`
	HeapLiveMB     float64 `json:"heapLiveMB"`
	HeapRetainedMB float64 `json:"heapRetainedMB"`

	// Sim holds the simulated end-to-end metrics and Counts the per-layer
	// work counters; both are pure functions of the workload and seed.
	Sim    map[string]float64 `json:"sim"`
	Counts map[string]float64 `json:"counts"`
	// Trace holds what only the traced round can see: utilization, queue
	// wait and stage shares (simulated, hence also deterministic).
	Trace      map[string]float64 `json:"trace,omitempty"`
	Bottleneck string             `json:"bottleneck,omitempty"`
	// Host holds host-side observations reported per layer.
	Host map[string]float64 `json:"host"`
	// Tails names the percentile each tail latency reports.
	Tails map[string]string `json:"tails"`
	// Profile is filled by the parent from a traced round's CPU profile:
	// samples per attribution bucket.
	Profile map[string]int64 `json:"profile,omitempty"`
}

// round is the state of one measurement in a child process.
type round struct {
	// plan draws every workload input; it is consumed before setup.
	plan *rand.Rand
	// pool is the seeded payload all written data is cut from.
	pool []byte
	res  *roundResult

	lat   map[string][]sim.Duration // per-operation simulated latency by kind
	bytes map[string]int64          // bytes moved by kind
	span  map[string]sim.Duration   // simulated duration of the kind's phase

	rebuild    sim.Duration
	hasRebuild bool
	defects    map[string]float64 // known-defect failures by counter name
}

const poolBytes = 8 << 20

func newRound(seed int64, traced bool) *round {
	r := newRoundWithPool(seed, traced, make([]byte, poolBytes))
	// The payload is drawn before anything is timed: generating it inside
	// the loop would charge the benchmark's own RNG to host_s.
	rand.New(rand.NewSource(seed ^ 0x5eed)).Read(r.pool)
	return r
}

// newRoundWithPool starts a round whose plan is drawn afresh from seed
// over an existing payload pool.
func newRoundWithPool(seed int64, traced bool, pool []byte) *round {
	return &round{
		plan:    rand.New(rand.NewSource(seed)),
		pool:    pool,
		lat:     map[string][]sim.Duration{},
		bytes:   map[string]int64{},
		span:    map[string]sim.Duration{},
		defects: map[string]float64{"bench.stale_reads": 0, "bench.rebuild_race": 0, "bench.rebuild_crash": 0},
		res: &roundResult{
			Traced: traced, Correct: true,
			Sim: map[string]float64{}, Counts: map[string]float64{},
			Host: map[string]float64{}, Tails: map[string]string{},
		},
	}
}

// payload returns n bytes of the pool starting at off.
func (r *round) payload(off, n int) []byte { return r.pool[off : off+n] }

// payloadOff draws a pool offset for an n-byte payload.
func (r *round) payloadOff(rng *rand.Rand, n int) int { return rng.Intn(len(r.pool) - n) }

// done records one completed operation of the given kind.
func (r *round) done(kind string, d sim.Duration, n int) {
	r.res.Attempted++
	r.lat[kind] = append(r.lat[kind], d)
	r.bytes[kind] += int64(n)
}

// attempt counts an operation that moves no data (stat, create, remove).
func (r *round) attempt() { r.res.Attempted++ }

// failed records an operation that returned an error or wrong bytes; it
// counts against error_rate.  The operation is counted as attempted
// separately, through done or attempt.
func (r *round) failed(format string, args ...any) {
	r.res.Failed++
	r.problem(format, args...)
}

// knownDefect records a failed operation whose signature a known defect of
// the program explains, such as a read that returned an earlier
// acknowledged version: it is counted under the defect's name rather than
// as corruption.
func (r *round) knownDefect(name string) {
	r.res.Failed++
	r.defects[name]++
}

// broken records an output that is neither correct nor explained by a
// known defect: the round is not correct.
func (r *round) broken(format string, args ...any) {
	r.res.Failed++
	r.res.Correct = false
	r.problem(format, args...)
}

func (r *round) problem(format string, args ...any) {
	if len(r.res.Problems) < 20 {
		r.res.Problems = append(r.res.Problems, fmt.Sprintf(format, args...))
	}
}

// runRound assembles, measures, verifies and releases one instance.  Given
// a profile path, the round is traced and writes its CPU profile there.
func runRound(wl *workload, seed int64, profile string) (*roundResult, error) {
	traced := profile != ""
	baseGoroutines := runtime.NumGoroutine()
	r := newRound(seed, traced)

	runtime.GC()
	c0 := cpuSeconds()
	inst, err := wl.build(r)
	if err != nil {
		return nil, fmt.Errorf("setup: %w", err)
	}
	r.res.SetupS = cpuSeconds() - c0

	eng := inst.engine()
	var rec *trace.Recorder
	var reg *telemetry.Registry
	if traced {
		rec = trace.Attach(eng, trace.Config{Label: wl.name})
		reg = telemetry.Attach(eng)
	}
	// The calibrations bracket the measured phase as closely as they can
	// without entering the profile.
	cal0, err := calibrate()
	if err != nil {
		return nil, err
	}
	before := snapshot(inst.systems())
	events0, sim0 := eng.EventsExecuted(), eng.Now()
	var prof *os.File
	if traced {
		if prof, err = os.Create(profile); err != nil {
			return nil, err
		}
		if err := pprof.StartCPUProfile(prof); err != nil {
			return nil, err
		}
	}

	// Every measured phase starts from a collected heap, so set-up garbage
	// is not charged to it.
	runtime.GC()
	t1, c1 := time.Now(), cpuSeconds()
	if err := inst.measure(r); err != nil {
		return nil, fmt.Errorf("measured phase: %w", err)
	}
	r.res.HostCPUS = cpuSeconds() - c1
	r.res.HostWallS = time.Since(t1).Seconds()
	if prof != nil {
		pprof.StopCPUProfile()
		if err := prof.Close(); err != nil {
			return nil, err
		}
	}
	cal1, err := calibrate()
	if err != nil {
		return nil, err
	}
	r.res.Speed = calRefS / ((cal0 + cal1) / 2)
	events := eng.EventsExecuted() - events0
	window := eng.Now().Sub(sim0)

	runtime.GC()
	r.res.HeapLiveMB = heapMB()
	r.res.Host["sim.goroutines_end"] = float64(runtime.NumGoroutine())
	r.res.Host["sim.host_ns_per_event"] = ratio(r.res.HostCPUS*r.res.Speed*1e9, float64(events))

	after := snapshot(inst.systems())
	r.res.Counts["sim.events"] = float64(events)
	layerCounts(r.res.Counts, before, after)
	if rec != nil {
		r.res.Bottleneck = traceMetrics(r.res, rec, reg, window)
	}
	r.simMetrics()

	if err := inst.verify(r); err != nil {
		return nil, fmt.Errorf("verify: %w", err)
	}
	r.res.Sim["error_rate"] = ratio(float64(r.res.Failed), float64(r.res.Attempted))
	for k, v := range r.defects {
		r.res.Counts[k] = v
	}

	// Release: the round drops every reference to the system.
	release(r, inst)
	inst, eng, rec, reg = nil, nil, nil, nil
	runtime.GC()
	runtime.GC()
	r.res.HeapRetainedMB = heapMB()
	r.res.Host["sim.goroutines_retained"] = float64(runtime.NumGoroutine() - baseGoroutines)
	r.res.Host["host.peak_rss_mb"] = peakRSSMB()
	if !traced {
		if err := r.moreSetups(wl, seed); err != nil {
			return nil, err
		}
	}
	return r.res, nil
}

// A single build of a small system takes milliseconds, too short to time
// reliably once.  After everything else is measured, the round builds the
// same system again until its builds have taken setupSampleS in total or
// it has built maxSetups times, and setup_s is the median build time.
const (
	setupSampleS = 0.25
	maxSetups    = 16
)

func (r *round) moreSetups(wl *workload, seed int64) error {
	samples := []float64{r.res.SetupS}
	for total := r.res.SetupS; total < setupSampleS && len(samples) < maxSetups; {
		again := newRoundWithPool(seed, false, r.pool)
		c := cpuSeconds()
		inst, err := wl.build(again)
		if err != nil {
			return fmt.Errorf("setup: %w", err)
		}
		d := cpuSeconds() - c
		release(again, inst)
		samples = append(samples, d)
		total += d
	}
	r.res.SetupS = median(samples)
	return nil
}

// release closes the system when the library offers a Close.
func release(r *round, inst instance) {
	if c, ok := inst.owner().(interface{ Close() error }); ok {
		if err := c.Close(); err != nil {
			r.problem("close: %v", err)
		}
	}
}

// simMetrics derives the simulated end-to-end metrics from the recorded
// operations.
func (r *round) simMetrics() {
	for _, kind := range []string{"read", "write"} {
		lat := r.lat[kind]
		if len(lat) == 0 || r.span[kind] <= 0 {
			continue
		}
		r.res.Sim["sim_"+kind+"_MBps"] = float64(r.bytes[kind]) / 1e6 / r.span[kind].Seconds()
		r.res.Sim["sim_"+kind+"_p50_ms"] = ms(percentile(lat, 50))
		pct, beyond := tailPercentile(len(lat))
		r.res.Sim["sim_"+kind+"_tail_ms"] = ms(percentile(lat, pct))
		r.res.Tails[kind] = fmt.Sprintf("p%g of %d samples, %d beyond", pct, len(lat), beyond)
	}
	if r.hasRebuild {
		r.res.Sim["sim_rebuild_s"] = r.rebuild.Seconds()
	}
}

func ms(d sim.Duration) float64 { return float64(d) / 1e6 }

// cpuSeconds is the CPU time this process has used, user and system, in
// every thread.  Unlike wall time it does not grow while other processes
// hold the CPU, and on a guest kernel that accounts steal time it leaves
// out the time the hypervisor gave the vCPU to other guests.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Utime.Nano()+ru.Stime.Nano()) / 1e9
}

func heapMB() float64 {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.HeapAlloc) / (1 << 20)
}

// peakRSSMB reads the process's resident-set high-water mark (Linux only;
// 0 elsewhere).  It is advisory: RSS depends on when the collector runs.
func peakRSSMB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "VmHWM:") {
			fields := strings.Fields(line)
			if len(fields) >= 2 {
				kb, err := strconv.ParseFloat(fields[1], 64)
				if err == nil {
					return kb / 1024
				}
			}
		}
	}
	return 0
}
