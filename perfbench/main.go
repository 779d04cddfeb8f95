// Command perfbench is the repository benchmark: it drives the assembled
// RAID-II model through four seeded, verified workloads and reports
// end-to-end metrics (untraced) or per-layer metrics (traced).  See
// README.md for the workloads, the metrics and how to run it.
//
// Every measurement is a round: a fresh child process assembles the
// system, runs the measured phase, verifies the outputs and releases the
// system.  The parent repeats rounds for --seconds and reports medians,
// so leaked memory cannot accumulate across rounds and every round starts
// from the same heap.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

const (
	minRounds = 3  // untraced rounds per run, even when --seconds is short
	minPairs  = 2  // untraced+traced round pairs per traced run
	maxRounds = 40 // cap for long --seconds values
)

func main() {
	var (
		wl      = flag.String("workload", "", "workload: "+strings.Join(workloadNames(), ", ")+", or all")
		seed    = flag.Int64("seed", 1, "workload seed")
		seconds = flag.Float64("seconds", 10, "host seconds to keep repeating rounds")
		traced  = flag.Int("trace", 0, "0 = end-to-end metrics, 1 = per-layer metrics from a traced run")
		child   = flag.Bool("child", false, "internal: run one round and print its result as JSON")
		profile = flag.String("profile", "", "internal: with -child, trace the round and write its CPU profile here")
	)
	flag.Parse()
	if *child {
		os.Exit(childMain(*wl, *seed, *profile))
	}
	if *traced != 0 && *traced != 1 {
		fmt.Fprintln(os.Stderr, "perfbench: --trace must be 0 or 1")
		os.Exit(2)
	}
	if *wl == "all" {
		os.Exit(runAll(*seed, *seconds))
	}
	if lookupWorkload(*wl) == nil {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q (have %s)\n", *wl, strings.Join(workloadNames(), ", "))
		os.Exit(2)
	}
	out, err := runWorkload(os.Stdout, *wl, *seed, *seconds, *traced == 1)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	if err := json.NewEncoder(os.Stdout).Encode(out); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of a run's standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// runAll runs every workload untraced and traced and prints every report;
// the last line maps each workload to its two results.
func runAll(seed int64, seconds float64) int {
	all := map[string]map[string]result{}
	status := 0
	for _, name := range workloadNames() {
		all[name] = map[string]result{}
		for _, traced := range []bool{false, true} {
			out, err := runWorkload(os.Stdout, name, seed, seconds, traced)
			if err != nil {
				fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", name, err)
				return 1
			}
			if !out.Correct {
				status = 1
			}
			key := "trace0"
			if traced {
				key = "trace1"
			}
			all[name][key] = out
		}
	}
	if err := json.NewEncoder(os.Stdout).Encode(all); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	return status
}

// runWorkload repeats rounds of one workload for the given host seconds,
// prints a human-readable report to w and returns the aggregated result.
func runWorkload(w io.Writer, name string, seed int64, seconds float64, traced bool) (result, error) {
	start := time.Now()
	budget := time.Duration(seconds * float64(time.Second))
	var plain, tr []*roundResult
	profDir, err := os.MkdirTemp("", "perfbench-prof-")
	if err != nil {
		return result{}, err
	}
	defer os.RemoveAll(profDir)
	for len(plain) < maxRounds {
		enough := len(plain) >= minRounds
		if traced {
			enough = len(tr) >= minPairs
		}
		if enough && time.Since(start) >= budget {
			break
		}
		r, err := runChild(name, seed, "")
		if err != nil {
			return result{}, err
		}
		plain = append(plain, r)
		if traced {
			prof := filepath.Join(profDir, fmt.Sprintf("cpu%d.pprof", len(tr)))
			t, err := runChild(name, seed, prof)
			if err != nil {
				return result{}, err
			}
			if t.Profile, err = profileBuckets(prof); err != nil {
				return result{}, err
			}
			tr = append(tr, t)
		}
	}
	out := aggregate(plain, tr)
	report(w, name, seed, plain, tr, out)
	return out, nil
}

// runChild runs one round in a fresh process of this binary.  The round is
// traced when it is given a profile path.
func runChild(name string, seed int64, profile string) (*roundResult, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(exe, "-child", "-workload", name, "-seed", fmt.Sprint(seed), "-profile", profile)
	var stdout bytes.Buffer
	cmd.Stdout = &stdout
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("%s round (seed %d, traced %v): %w", name, seed, profile != "", err)
	}
	var r roundResult
	if err := json.Unmarshal(stdout.Bytes(), &r); err != nil {
		return nil, fmt.Errorf("%s round: decoding result: %w", name, err)
	}
	return &r, nil
}

// aggregate folds the rounds of one run into its result: host measurements
// are medians over rounds; simulated metrics and counts must repeat exactly
// in every round, traced or not, or the run is not correct.
func aggregate(plain, tr []*roundResult) result {
	out := result{Correct: true, Metrics: map[string]metric{}}
	first := plain[0]
	// Every round repeats the same operations, so attempted and failed
	// are one round's counts: two runs of the same seed report the same
	// numbers however many rounds each fitted into its time.
	out.Attempted, out.Failed = first.Attempted, first.Failed
	for _, r := range append(append([]*roundResult{}, plain...), tr...) {
		if !r.Correct {
			out.Correct = false
		}
		if diff := sameDeterministic(first, r); diff != "" {
			out.Correct = false
			fmt.Fprintf(os.Stderr, "perfbench: round is not deterministic (traced=%v): %s\n", r.Traced, diff)
		}
	}
	if tr == nil {
		out.Metrics["host_s"] = metric{median(pick(plain, scaledHost)), "s"}
		out.Metrics["setup_s"] = metric{median(pick(plain, func(r *roundResult) float64 { return r.SetupS * r.Speed })), "s"}
		out.Metrics["heap_live_mb"] = metric{median(pick(plain, func(r *roundResult) float64 { return r.HeapLiveMB })), "MB"}
		out.Metrics["heap_retained_mb"] = metric{median(pick(plain, func(r *roundResult) float64 { return r.HeapRetainedMB })), "MB"}
		for _, k := range endToEndSim {
			out.Metrics[k.name] = metric{first.Sim[k.name], k.unit}
		}
		return out
	}
	for _, m := range perLayer(plain, tr) {
		out.Metrics[m.name] = metric{m.value, m.unit}
	}
	return out
}

// sameDeterministic reports the first operation count, simulated metric or
// layer count that differs between two rounds of the same workload and
// seed.
func sameDeterministic(a, b *roundResult) string {
	if a.Attempted != b.Attempted || a.Failed != b.Failed {
		return fmt.Sprintf("operations: %d attempted and %d failed vs %d and %d", a.Attempted, a.Failed, b.Attempted, b.Failed)
	}
	for _, pair := range []struct {
		what string
		x, y map[string]float64
	}{{"sim", a.Sim, b.Sim}, {"count", a.Counts, b.Counts}} {
		keys := make([]string, 0, len(pair.x))
		for k := range pair.x {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		if len(pair.x) != len(pair.y) {
			return fmt.Sprintf("%s metrics: %d vs %d keys", pair.what, len(pair.x), len(pair.y))
		}
		for _, k := range keys {
			if y, ok := pair.y[k]; !ok || y != pair.x[k] {
				return fmt.Sprintf("%s %s: %v vs %v", pair.what, k, pair.x[k], pair.y[k])
			}
		}
	}
	return ""
}

// scaledHost is a round's measured-phase CPU time in reference seconds.
func scaledHost(r *roundResult) float64 { return r.HostCPUS * r.Speed }

func pick(rs []*roundResult, f func(*roundResult) float64) []float64 {
	out := make([]float64, len(rs))
	for i, r := range rs {
		out[i] = f(r)
	}
	return out
}

// childMain runs one round and prints its result.
func childMain(name string, seed int64, profile string) int {
	// The engine runs one simulated process at a time, so one P is all
	// the simulator can use; a second only adds cross-core wake-ups and
	// lets noise on the other core into host_s.
	runtime.GOMAXPROCS(1)
	wl := lookupWorkload(name)
	if wl == nil {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q\n", name)
		return 2
	}
	r, err := runRound(wl, seed, profile)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s round: %v\n", name, err)
		return 1
	}
	if err := json.NewEncoder(os.Stdout).Encode(r); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	return 0
}
