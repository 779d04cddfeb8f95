package main

import (
	"bytes"
	"fmt"
	"os/exec"
	"strings"
	"time"
)

// This file attributes the CPU profile a traced round writes.  `go tool
// pprof -traces` prints every sampled stack, leaf first; each stack's CPU
// time goes to one bucket: a runtime bucket for memmove, memclr, allocation
// and GC, or scheduler handoff; otherwise the innermost frame that belongs
// to a module of this repository (or to the benchmark itself), so standard
// library helpers count toward the layer that called them.

// profileBuckets returns CPU nanoseconds per bucket.
func profileBuckets(path string) (map[string]int64, error) {
	var stderr bytes.Buffer
	cmd := exec.Command("go", "tool", "pprof", "-traces", path)
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go tool pprof %s: %w: %s", path, err, stderr.Bytes())
	}
	buckets := map[string]int64{}
	var frames []string
	var value time.Duration
	flush := func() {
		if len(frames) > 0 {
			buckets[bucketOf(frames)] += int64(value)
		}
		frames, value = nil, 0
	}
	// A stack is a separator line, then "<time>   <leaf>", then one
	// caller per line.
	inStacks := false
	for _, line := range strings.Split(string(out), "\n") {
		if strings.HasPrefix(line, "-----------+") {
			flush()
			inStacks = true
			continue
		}
		fields := strings.Fields(line)
		if !inStacks || len(fields) == 0 {
			continue
		}
		if len(frames) == 0 {
			if value, err = time.ParseDuration(fields[0]); err != nil {
				return nil, fmt.Errorf("go tool pprof %s: stack line %q: %w", path, line, err)
			}
			fields = fields[1:]
		}
		if len(fields) > 0 {
			frames = append(frames, fields[0])
		}
	}
	flush()
	return buckets, nil
}

// moduleLayers are the repository packages reported as layers of their
// own; any other internal package counts as "other".
var moduleLayers = map[string]string{
	"sim": "sim", "disk": "disk", "scsi": "scsi", "xbus": "xbus", "hippi": "hippi",
	"raid": "raid", "lfs": "lfs", "cache": "cache", "server": "server", "zebra": "zebra",
	"trace": "instr", "telemetry": "instr",
}

// bucketOf attributes one stack (leaf first) to a bucket.
func bucketOf(frames []string) string {
	if len(frames) == 0 {
		return "other"
	}
	leaf := frames[0]
	switch {
	case leaf == "runtime.memmove":
		return "runtime.memmove"
	case strings.HasPrefix(leaf, "runtime.memclr"):
		return "runtime.memclr"
	}
	if strings.HasPrefix(leaf, "runtime.") || strings.HasPrefix(leaf, "internal/runtime/") {
		for _, f := range frames {
			if isGC(f) {
				return "runtime.malloc_gc"
			}
		}
		for _, f := range frames {
			if isSched(f) {
				return "runtime.sched"
			}
		}
	}
	for _, f := range frames {
		if b := moduleOf(f); b != "" {
			return b
		}
	}
	if strings.HasPrefix(leaf, "runtime.") {
		return "runtime.other"
	}
	return "other"
}

// moduleOf maps a function name to its repository layer, or "".
func moduleOf(fn string) string {
	switch {
	case strings.HasPrefix(fn, "main."), strings.HasPrefix(fn, "raidii/perfbench."):
		// The benchmark's own code: package main in the binary, its import
		// path under go test.
		return "bench"
	case strings.HasPrefix(fn, "raidii/internal/"):
		pkg := strings.TrimPrefix(fn, "raidii/internal/")
		if i := strings.IndexAny(pkg, "./"); i >= 0 {
			pkg = pkg[:i]
		}
		if l, ok := moduleLayers[pkg]; ok {
			return l
		}
		return "other"
	case strings.HasPrefix(fn, "raidii."):
		return "api"
	}
	return ""
}

var gcFuncs = []string{
	"runtime.mallocgc", "runtime.gcBgMarkWorker", "runtime.gcAssist", "runtime.gcDrain",
	"runtime.scanobject", "runtime.greyobject", "runtime.markroot", "runtime.bgsweep",
	"runtime.bgscavenge", "runtime.sweepone", "runtime.(*mheap)", "runtime.(*mcache)",
	"runtime.(*mcentral)", "runtime.(*mspan)", "runtime.newobject", "runtime.makeslice",
	"runtime.growslice", "runtime.gcStart", "runtime.gcMarkDone", "runtime.gcMarkTermination",
	"runtime.wbBuf", "runtime.gcWriteBarrier", "runtime.bulkBarrier", "runtime.scanblock",
	"runtime.scanstack", "runtime.findObject", "runtime.heapSetType", "runtime.typePointers",
}

var schedFuncs = []string{
	"runtime.schedule", "runtime.park_m", "runtime.mcall", "runtime.gopark", "runtime.goready",
	"runtime.selectgo", "runtime.chansend", "runtime.chanrecv", "runtime.findRunnable",
	"runtime.futex", "runtime.lock2", "runtime.unlock2", "runtime.casgstatus", "runtime.ready",
	"runtime.runqget", "runtime.runqput", "runtime.stealWork", "runtime.notesleep",
	"runtime.notewakeup", "runtime.wakep", "runtime.startm", "runtime.stopm", "runtime.execute",
	"runtime.newproc", "runtime.gogo", "runtime.mPark", "runtime.usleep",
	"runtime.osyield", "runtime.procyield", "runtime.sellock", "runtime.selunlock",
	"runtime.acquireSudog", "runtime.releaseSudog", "runtime.resetspinning", "runtime.semasleep",
	"runtime.semawakeup", "runtime.send", "runtime.recv",
}

func isGC(fn string) bool    { return hasAnyPrefix(fn, gcFuncs) }
func isSched(fn string) bool { return hasAnyPrefix(fn, schedFuncs) }

func hasAnyPrefix(s string, prefixes []string) bool {
	for _, p := range prefixes {
		if strings.HasPrefix(s, p) {
			return true
		}
	}
	return false
}
