package main

import (
	"fmt"
	"io"
	"sort"
	"strings"

	"raidii/internal/lfs"
	"raidii/internal/server"
	"raidii/internal/sim"
	"raidii/internal/telemetry"
	"raidii/internal/trace"
)

// def names one reported metric and its unit.
type def struct{ name, unit string }

// endToEndSim are the simulated end-to-end metrics; with host_s, setup_s,
// heap_live_mb and heap_retained_mb they make up a run with --trace 0.
var endToEndSim = []def{
	{"sim_read_MBps", "MB/s"}, {"sim_write_MBps", "MB/s"},
	{"sim_read_p50_ms", "ms"}, {"sim_read_tail_ms", "ms"},
	{"sim_write_p50_ms", "ms"}, {"sim_write_tail_ms", "ms"},
}

// hostBuckets are the CPU-profile attribution buckets, reported as
// host.<bucket>.self_share (runtime buckets keep their own names).
var hostBuckets = []string{
	"sim", "disk", "scsi", "xbus", "hippi", "raid", "lfs", "cache", "server", "zebra",
	"api", "instr", "bench", "other",
	"runtime.memmove", "runtime.memclr", "runtime.malloc_gc", "runtime.sched", "runtime.other",
}

func hostBucketMetric(b string) string {
	if strings.HasPrefix(b, "runtime.") {
		return "host." + b
	}
	return "host." + b + ".self_share"
}

// perLayerDefs are the metrics of a run with --trace 1.  A layer a
// workload does not reach reports 0.
var perLayerDefs = func() []def {
	var ds []def
	for _, b := range hostBuckets {
		ds = append(ds, def{hostBucketMetric(b), "ratio"})
	}
	ds = append(ds,
		def{"host.trace_overhead", "ratio"}, def{"host.cpu_s", "s"}, def{"host.wall_s", "s"}, def{"host.speed", "ratio"}, def{"host.peak_rss_mb", "MB"},
		def{"sim.events", "count"}, def{"sim.host_ns_per_event", "ns"},
		def{"sim.goroutines_end", "count"}, def{"sim.goroutines_retained", "count"},
		def{"xbus.parity_util", "ratio"}, def{"xbus.parity_wait_s", "s"}, def{"xbus.parity_ops", "count"},
		def{"xbus.mem_util", "ratio"},
		def{"disk.util", "ratio"}, def{"disk.wait_s", "s"}, def{"disk.ios", "count"}, def{"disk.mb_moved", "MB"},
		def{"scsi.util", "ratio"}, def{"scsi.wait_s", "s"}, def{"scsi.retries", "count"},
		def{"raid.full_stripe_writes", "count"}, def{"raid.small_writes", "count"},
		def{"raid.reconstruct_writes", "count"}, def{"raid.degraded_reads", "count"},
		def{"raid.disk_ios_per_op", "ratio"}, def{"raid.rebuild_stripes", "count"},
		def{"lfs.segments_written", "count"}, def{"lfs.segments_cleaned", "count"},
		def{"lfs.blocks_moved", "count"}, def{"lfs.write_amp", "ratio"},
		def{"cache.hit_rate", "ratio"}, def{"cache.evictions", "count"},
		def{"server.nvram_commits", "count"}, def{"server.nvram_records_per_commit", "ratio"},
		def{"server.nvram_degraded", "count"}, def{"server.nvram_staged", "count"},
		def{"hippi.ring_util", "ratio"},
		def{"zebra.stale_fragments", "count"}, def{"zebra.rebuilt_fragments", "count"},
	)
	for st := telemetry.Stage(0); st.String() != "unknown"; st++ {
		ds = append(ds, def{"stage." + st.String() + ".share", "ratio"})
	}
	ds = append(ds,
		def{"trace.bottleneck_util", "ratio"},
		def{"sim_rebuild_s", "s"}, def{"error_rate", "ratio"}, def{"bench.stale_reads", "count"}, def{"bench.rebuild_race", "count"},
		def{"bench.rebuild_crash", "count"},
	)
	return ds
}()

// snapshot reads every cumulative layer counter of the systems' boards.
func snapshot(systems []*server.System) map[string]float64 {
	m := map[string]float64{}
	for _, sys := range systems {
		for _, b := range sys.Boards {
			a := b.Array.Stats()
			m["raid.reads"] += float64(a.Reads)
			m["raid.writes"] += float64(a.Writes)
			m["raid.full_stripe_writes"] += float64(a.FullStripeWrites)
			m["raid.small_writes"] += float64(a.SmallWrites)
			m["raid.reconstruct_writes"] += float64(a.ReconstructWrites)
			m["raid.degraded_reads"] += float64(a.DegradedReads)
			m["raid.disk_ios"] += float64(a.DiskReads + a.DiskWrites)
			m["raid.rebuild_stripes"] += float64(a.RebuildStripes)
			m["xbus.parity_ops"] += float64(b.XB.ParityOps())
			for _, d := range b.Disks {
				st := d.Drive.Stats()
				m["disk.ios"] += float64(st.Reads + st.Writes)
				m["disk.mb_moved"] += float64(st.BytesRead+st.BytesWritten) / 1e6
			}
			if b.FS != nil {
				addLFS(m, b.FS.Stats())
			}
			if b.Cache != nil {
				c := b.Cache.Stats()
				m["cache.hits"] += float64(c.Hits)
				m["cache.misses"] += float64(c.Misses)
				m["cache.evictions"] += float64(c.Evictions)
			}
			nv := b.NVRAMStats().Log
			m["server.nvram_commits"] += float64(nv.Commits)
			m["server.nvram_commit_records"] += float64(nv.CommitRecords)
			m["server.nvram_degraded"] += float64(nv.Degraded)
			m["server.nvram_staged"] += float64(nv.Staged)
		}
	}
	return m
}

func addLFS(m map[string]float64, s lfs.Stats) {
	m["lfs.segments_written"] += float64(s.SegmentsWritten)
	m["lfs.segments_cleaned"] += float64(s.SegmentsCleaned)
	m["lfs.blocks_moved"] += float64(s.BlocksMoved)
	m["lfs.bytes_appended"] += float64(s.BlocksAppended) * lfs.BlockSize
	m["lfs.bytes_written"] += float64(s.BytesWritten)
}

// layerCounts stores the measured phase's per-layer counts: counter
// deltas and the ratios derived from them.
func layerCounts(out, before, after map[string]float64) {
	d := func(k string) float64 { return after[k] - before[k] }
	for _, k := range []string{
		"raid.full_stripe_writes", "raid.small_writes", "raid.reconstruct_writes",
		"raid.degraded_reads", "raid.rebuild_stripes", "xbus.parity_ops", "disk.ios", "disk.mb_moved",
		"lfs.segments_written", "lfs.segments_cleaned", "lfs.blocks_moved", "cache.evictions",
		"server.nvram_commits", "server.nvram_degraded", "server.nvram_staged",
	} {
		out[k] = d(k)
	}
	out["raid.disk_ios_per_op"] = ratio(d("raid.disk_ios"), d("raid.reads")+d("raid.writes"))
	out["lfs.write_amp"] = ratio(d("lfs.bytes_appended"), d("lfs.bytes_written"))
	out["cache.hit_rate"] = ratio(d("cache.hits"), d("cache.hits")+d("cache.misses"))
	out["server.nvram_records_per_commit"] = ratio(d("server.nvram_commit_records"), d("server.nvram_commits"))
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// traceMetrics folds the traced round's recorder and registry into
// per-layer utilization, queue wait and stage shares over the measured
// window (both were attached when it began), and names the bottleneck.
func traceMetrics(res *roundResult, rec *trace.Recorder, reg *telemetry.Registry, window sim.Duration) string {
	t := map[string]float64{}
	now := rec.Now()
	util := func(r *trace.Resource) float64 {
		return r.BusyAt(now).Seconds() / (window.Seconds() * float64(r.Cap))
	}
	var nDisk, nStr float64
	bottleneck, top := "", -1.0
	for _, r := range rec.Resources() {
		u := util(r)
		if r.Acquires > 0 && (u > top || (u == top && r.Name < bottleneck)) {
			bottleneck, top = r.Name, u
		}
		switch {
		case strings.HasSuffix(r.Name, ":xor"):
			t["xbus.parity_util"] = max(t["xbus.parity_util"], u)
			t["xbus.parity_wait_s"] += r.WaitSum.Seconds()
		case strings.HasSuffix(r.Name, ":mem"):
			t["xbus.mem_util"] = max(t["xbus.mem_util"], u)
		case strings.HasSuffix(r.Name, ":actuator"):
			t["disk.util"] += u
			t["disk.wait_s"] += r.WaitSum.Seconds()
			nDisk++
		case strings.Contains(r.Name, ":string"):
			t["scsi.util"] += u
			t["scsi.wait_s"] += r.WaitSum.Seconds()
			nStr++
		case r.Name == "ultranet":
			t["hippi.ring_util"] = u
		}
	}
	t["disk.util"] = ratio(t["disk.util"], nDisk)
	t["scsi.util"] = ratio(t["scsi.util"], nStr)
	t["trace.bottleneck_util"] = top
	for _, sc := range rec.SpanCounts() {
		if sc.Cat == "scsi" && sc.Name == "retry" {
			t["scsi.retries"] += float64(sc.Count)
		}
	}
	stages := map[string]float64{}
	var total float64
	for _, c := range telemetry.Export(reg, telemetry.ExportOptions{}).Counters {
		if c.Name == "raidii_request_stage_ns_total" {
			stages[c.Labels["stage"]] += float64(c.Value)
			total += float64(c.Value)
		}
	}
	for st := telemetry.Stage(0); st.String() != "unknown"; st++ {
		t["stage."+st.String()+".share"] = ratio(stages[st.String()], total)
	}
	res.Trace = t
	return fmt.Sprintf("%s (%.1f%% utilized)", bottleneck, top*100)
}

type namedValue struct {
	name, unit string
	value      float64
}

// perLayer assembles the traced run's metrics from its rounds.
func perLayer(plain, tr []*roundResult) []namedValue {
	first, firstTr := plain[0], tr[0]
	vals := map[string]float64{}
	for k, v := range first.Counts {
		vals[k] = v
	}
	for k, v := range firstTr.Trace {
		vals[k] = v
	}
	for _, k := range []string{"sim_rebuild_s", "error_rate"} {
		vals[k] = first.Sim[k]
	}
	prof := map[string]int64{}
	var samples int64
	for _, r := range tr {
		for b, v := range r.Profile {
			prof[b] += v
			samples += v
		}
	}
	for _, b := range hostBuckets {
		vals[hostBucketMetric(b)] = ratio(float64(prof[b]), float64(samples))
	}
	vals["host.trace_overhead"] = ratio(median(pick(tr, scaledHost)), median(pick(plain, scaledHost)))
	vals["host.cpu_s"] = median(pick(plain, func(r *roundResult) float64 { return r.HostCPUS }))
	vals["host.wall_s"] = median(pick(plain, func(r *roundResult) float64 { return r.HostWallS }))
	vals["host.speed"] = median(pick(plain, func(r *roundResult) float64 { return r.Speed }))
	for _, k := range []string{"host.peak_rss_mb", "sim.host_ns_per_event", "sim.goroutines_end", "sim.goroutines_retained"} {
		vals[k] = median(pick(plain, func(r *roundResult) float64 { return r.Host[k] }))
	}
	out := make([]namedValue, 0, len(perLayerDefs))
	for _, d := range perLayerDefs {
		out = append(out, namedValue{d.name, d.unit, vals[d.name]})
	}
	return out
}

// report prints the run for a reader: every metric with its unit, the
// tail percentiles, and what failed.
func report(w io.Writer, name string, seed int64, plain, tr []*roundResult, out result) {
	mode := "untraced"
	if tr != nil {
		mode = "traced"
	}
	fmt.Fprintf(w, "== %s (seed %d, %s, %d rounds) correct=%v attempted=%d failed=%d\n   %s\n",
		name, seed, mode, len(plain)+len(tr), out.Correct, out.Attempted, out.Failed, lookupWorkload(name).why)
	first := plain[0]
	for _, kind := range []string{"read", "write"} {
		if s, ok := first.Tails[kind]; ok {
			fmt.Fprintf(w, "   sim_%s_tail_ms is the %s\n", kind, s)
		}
	}
	if tr == nil {
		for _, k := range []string{"sim_rebuild_s", "error_rate"} {
			if v, ok := first.Sim[k]; ok {
				fmt.Fprintf(w, "   %-34s %14.6g\n", k, v)
			}
		}
	} else {
		fmt.Fprintf(w, "   bottleneck: %s\n", tr[0].Bottleneck)
	}
	names := make([]string, 0, len(out.Metrics))
	for k := range out.Metrics {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		m := out.Metrics[k]
		fmt.Fprintf(w, "   %-34s %14.6g %s\n", k, m.Value, m.Unit)
	}
	for _, r := range append(append([]*roundResult{}, plain...), tr...) {
		for _, p := range r.Problems {
			fmt.Fprintf(w, "   problem: %s\n", p)
		}
		if len(r.Problems) > 0 {
			break
		}
	}
}
