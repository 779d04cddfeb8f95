package main

import (
	"bytes"
	"fmt"
	"time"

	"raidii"
	"raidii/internal/lfs"
	"raidii/internal/server"
	"raidii/internal/sim"
)

// cluster stripes files across three hosts with cross-server parity
// through the public Cluster API, kills one host in the middle of a read
// pass, keeps reading and writing degraded, restores the host and rebuilds
// it.
var clusterWorkload = &workload{
	name:  "cluster",
	why:   "striped files over three hosts: the only workload on the Ultranet ring and zebra, with a whole-host loss and rebuild",
	build: buildCluster,
}

const (
	clusterServers   = 3
	clusterFiles     = 4
	clusterStripes   = 6 // per file
	clusterCylinders = 24
)

type clusterInst struct {
	cl      *raidii.Cluster
	stripe  int
	victim  int
	content [][]int // [file][stripe] payload offset of the current version
	// The measured phase, drawn from the seed: every stripe rewritten and
	// read while healthy, read again while the host dies part way through
	// the pass, half of them rewritten while it is down, and all read
	// again.
	healthyWrites, reads, downReads, downWrites, lastReads []stripeRef
	newContent                                             map[stripeRef][]int
	// killAt is where in the dying pass the host goes down, as a share of
	// the healthy read pass's duration.
	killAt            float64
	maxStale, rebuilt int
}

type stripeRef struct{ file, stripe int }

func buildCluster(r *round) (instance, error) {
	// Fig8Geometry replaces the whole configuration, so it comes first.
	// The fragment is the default, one LFS segment: every striped write
	// seals one segment on each host it reaches.
	cl, err := raidii.NewCluster(raidii.Fig8Geometry(), raidii.WithServers(clusterServers),
		withCylinders(clusterCylinders), raidii.WithCrossParity(true))
	if err != nil {
		return nil, err
	}
	in := &clusterInst{cl: cl, victim: r.plan.Intn(clusterServers), newContent: map[stripeRef][]int{}}
	// Data fragments per stripe: every host but the one holding parity.
	in.stripe = (clusterServers - 1) * lfs.DefaultConfig().SegBytes
	var all []stripeRef
	for f := 0; f < clusterFiles; f++ {
		var offs []int
		for s := 0; s < clusterStripes; s++ {
			offs = append(offs, r.payloadOff(r.plan, in.stripe))
			all = append(all, stripeRef{f, s})
		}
		in.content = append(in.content, offs)
	}
	draw := func(n int) []stripeRef {
		perm := r.plan.Perm(len(all))
		out := make([]stripeRef, n)
		for i := range out {
			out[i] = all[perm[i]]
		}
		return out
	}
	in.healthyWrites = draw(len(all))
	in.reads = draw(len(all))
	in.downReads = draw(len(all))
	in.downWrites = draw(len(all) / 2)
	in.lastReads = draw(len(all))
	in.killAt = 0.2 + 0.4*r.plan.Float64()
	for _, ref := range append(append([]stripeRef{}, in.healthyWrites...), in.downWrites...) {
		in.newContent[ref] = append(in.newContent[ref], r.payloadOff(r.plan, in.stripe))
	}

	_, err = cl.Simulate(func(t *raidii.ClusterTask) error {
		if err := t.FormatFS(); err != nil {
			return err
		}
		if got, err := t.StripeBytes(); err != nil || got != in.stripe {
			return fmt.Errorf("cluster stripe is %d bytes (err %v), want %d", got, err, in.stripe)
		}
		for f := range in.content {
			h, err := t.Create(clusterFile(f))
			if err != nil {
				return err
			}
			for s, off := range in.content[f] {
				if _, err := h.Write(int64(s*in.stripe), r.payload(off, in.stripe)); err != nil {
					return err
				}
			}
		}
		return t.Sync()
	})
	return in, err
}

func clusterFile(f int) string { return fmt.Sprintf("striped%d", f) }

func (in *clusterInst) engine() *sim.Engine { return in.cl.Fleet().Eng }
func (in *clusterInst) systems() []*server.System {
	return in.cl.Fleet().Servers
}
func (in *clusterInst) owner() any { return in.cl }

func (in *clusterInst) measure(r *round) error {
	// One client runs a closed loop, so each kind's throughput is over the
	// time its own operations took.
	var readBusy, writeBusy time.Duration
	_, err := in.cl.Simulate(func(t *raidii.ClusterTask) error {
		files := make([]*raidii.ClusterFile, len(in.content))
		for f := range files {
			h, err := t.Open(clusterFile(f))
			if err != nil {
				return err
			}
			files[f] = h
		}
		write := func(ref stripeRef) {
			next := in.newContent[ref]
			off := next[0]
			in.newContent[ref] = next[1:]
			d, err := files[ref.file].Write(int64(ref.stripe*in.stripe), r.payload(off, in.stripe))
			in.content[ref.file][ref.stripe] = off
			if err != nil {
				r.attempt()
				r.failed("striped write %v: %v", ref, err)
				return
			}
			r.done("write", sim.Duration(d), in.stripe)
			writeBusy += d
		}
		read := func(ref stripeRef) {
			got, d, err := files[ref.file].Read(int64(ref.stripe*in.stripe), in.stripe)
			if err != nil {
				r.attempt()
				r.failed("striped read %v: %v", ref, err)
				return
			}
			r.done("read", sim.Duration(d), in.stripe)
			readBusy += d
			if !bytes.Equal(got, r.payload(in.content[ref.file][ref.stripe], in.stripe)) {
				r.broken("striped read %v: wrong bytes", ref)
			}
		}
		for _, ref := range in.healthyWrites {
			write(ref)
		}
		passStart := t.Elapsed()
		for _, ref := range in.reads {
			read(ref)
		}
		// The host dies part way through the next pass, which reads as many
		// stripes as this one, while a striped read is in flight.
		eng := in.cl.Fleet().Eng
		host := in.cl.Fleet().Servers[in.victim]
		kill := sim.Duration(in.killAt * float64(t.Elapsed()-passStart))
		eng.Spawn("kill-host", func(p *sim.Proc) {
			p.Wait(kill)
			host.SetDown(true)
		})
		for _, ref := range in.downReads {
			read(ref)
		}
		if !t.ServerDown(in.victim) {
			return fmt.Errorf("host %d outlived the read pass it should die in", in.victim)
		}
		for _, ref := range in.downWrites {
			write(ref)
		}
		for _, ref := range in.lastReads {
			read(ref)
		}
		stale, err := t.StaleFragments(in.victim)
		if err != nil {
			return err
		}
		in.maxStale = stale
		t.RestoreServer(in.victim)
		start := t.Elapsed()
		n, err := t.RebuildServer(in.victim)
		if err != nil {
			return err
		}
		r.rebuild, r.hasRebuild = sim.Duration(t.Elapsed()-start), true
		in.rebuilt = n
		return nil
	})
	r.span["read"] = sim.Duration(readBusy)
	r.span["write"] = sim.Duration(writeBusy)
	r.res.Counts["zebra.stale_fragments"] = float64(in.maxStale)
	r.res.Counts["zebra.rebuilt_fragments"] = float64(in.rebuilt)
	return err
}

func (in *clusterInst) verify(r *round) error {
	_, err := in.cl.Simulate(func(t *raidii.ClusterTask) error {
		if n, err := t.StaleFragments(in.victim); err != nil || n != 0 {
			r.broken("host %d: %d stale fragments after the rebuild (err %v)", in.victim, n, err)
		}
		for f := range in.content {
			h, err := t.Open(clusterFile(f))
			if err != nil {
				return err
			}
			for s, off := range in.content[f] {
				r.attempt()
				got, _, err := h.Read(int64(s*in.stripe), in.stripe)
				if err != nil {
					r.failed("final read-back %s stripe %d: %v", clusterFile(f), s, err)
					continue
				}
				if !bytes.Equal(got, r.payload(off, in.stripe)) {
					r.broken("final read-back %s stripe %d: wrong bytes", clusterFile(f), s)
				}
			}
		}
		return t.Sync()
	})
	if err != nil {
		return err
	}
	return runProc(in.engine(), func(p *sim.Proc) error {
		for _, sys := range in.systems() {
			for _, b := range sys.Boards {
				if err := checkBoard(r, p, b, 0); err != nil {
					return err
				}
			}
		}
		return nil
	})
}
