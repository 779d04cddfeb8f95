package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"sort"
	"time"

	"raidii"
	"raidii/internal/lfs"
	"raidii/internal/server"
	"raidii/internal/sim"
)

// smallfile is an NFS-style mix over one large directory, in the
// operation proportions of the LADDIS / SPEC SFS 1.x NFS mix: lookups and
// attribute calls, Zipf-skewed whole-file reads, durable overwrites staged
// in NVRAM, directory listings, creates and removes.  Every operation
// looks its path up again, as a stateless NFS server would.
var smallfileWorkload = &workload{
	name:  "smallfile",
	why:   "many small files in one directory: LFS metadata, the cleaner, the block cache and the NVRAM log, with many events per byte",
	build: buildSmallfile,
}

const (
	smallClients   = 4
	smallFiles     = 2000
	smallOps       = 2000 // per client
	smallMinBytes  = 4 << 10
	smallMaxBytes  = 32 << 10
	smallZipfS     = 1.2
	smallZipfV     = 10 // flattens the head: the hottest file draws about 4% of accesses
	smallCacheMB   = 8
	smallNVRAMKB   = 1024
	smallCylinders = 16 // about 5.5 MB drives: the log wraps and the cleaner runs
	smallDir       = "/d"
	smallThink     = 100 * time.Millisecond // NFS clients pause between calls
)

type smallOpKind int

const (
	opRead smallOpKind = iota
	opOverwrite
	opCreate
	opRemove
	opStat
	opReadDir
)

// smallMix is each kind's share of a client's operations, in percent: the
// LADDIS mix (lookup 34, read 22, write 15, getattr 13, readlink 8,
// readdir 3, create 2, remove 1, fsstat 1, setattr 1).  The model has no
// symbolic links, attribute updates or file-system statistics call, so
// readlink, getattr, setattr and fsstat are served as lookups, by Stat.
var smallMix = [...]int{opRead: 22, opOverwrite: 15, opCreate: 2, opRemove: 1, opStat: 57, opReadDir: 3}

// smallOp is one planned client operation.  For reads, overwrites and
// stats file indexes the long-lived set; creates and removes name a
// scratch file.
type smallOp struct {
	kind  smallOpKind
	file  int
	path  string
	size  int
	off   int // payload pool offset of the data written
	think sim.Duration
}

// smallFile is the reference model of one file: every acknowledged
// version's payload offset, newest last.  Only one operation is ever in
// flight on a file, so the newest version is exactly what a read must
// return.
type smallFile struct {
	path     string
	size     int
	versions []int
}

type smallInst struct {
	srv     *raidii.Server
	b       *server.Board
	files   []*smallFile          // long-lived, owned by client i%smallClients
	scratch map[string]*smallFile // live scratch files
	plans   [][]smallOp
	// longLived holds the names (within smallDir) of the long-lived files,
	// and scratchPlanned counts the creates of all clients.
	longLived      map[string]bool
	scratchPlanned int
}

func buildSmallfile(r *round) (instance, error) {
	in := &smallInst{scratch: map[string]*smallFile{}, longLived: map[string]bool{}}
	for i := 0; i < smallFiles; i++ {
		size := smallMinBytes + r.plan.Intn(smallMaxBytes-smallMinBytes+1)
		name := fmt.Sprintf("f%04d", i)
		in.files = append(in.files, &smallFile{
			path: smallDir + "/" + name, size: size,
			versions: []int{r.payloadOff(r.plan, size)},
		})
		in.longLived[name] = true
	}
	for c := 0; c < smallClients; c++ {
		in.plans = append(in.plans, planSmallClient(r, c, in.files))
		in.scratchPlanned += smallOps * smallMix[opCreate] / 100
	}

	srv, err := raidii.NewServer(raidii.Fig8Geometry(), withCylinders(smallCylinders),
		raidii.WithCache(smallCacheMB<<20), raidii.WithCacheLineKB(16), raidii.WithNVRAM(smallNVRAMKB<<10))
	if err != nil {
		return nil, err
	}
	in.srv, in.b = srv, srv.Sys().Boards[0]
	return in, runProc(in.engine(), func(p *sim.Proc) error {
		if err := in.b.FormatFS(p); err != nil {
			return err
		}
		if err := in.b.FS.Mkdir(p, smallDir); err != nil {
			return err
		}
		for _, f := range in.files {
			h, err := in.b.FS.Create(p, f.path)
			if err != nil {
				return err
			}
			if _, err := h.WriteAt(p, r.payload(f.versions[0], f.size), 0); err != nil {
				return err
			}
		}
		return in.b.FS.Checkpoint(p)
	})
}

// planSmallClient draws one client's operations.  The client owns every
// long-lived file i with i%smallClients == c, ranked for the Zipf draw in
// a seeded order, and the scratch files it creates.
func planSmallClient(r *round, c int, files []*smallFile) []smallOp {
	var owned []int
	for i := c; i < len(files); i += smallClients {
		owned = append(owned, i)
	}
	r.plan.Shuffle(len(owned), func(i, j int) { owned[i], owned[j] = owned[j], owned[i] })
	zipf := newZipf(r, len(owned))
	// Fixed counts per kind keep every seed's mix, and so each kind's
	// sample count and percentiles, the same; only the order is drawn.
	kinds := make([]smallOpKind, 0, smallOps)
	for kind, pct := range smallMix {
		for i := 0; i < smallOps*pct/100; i++ {
			kinds = append(kinds, smallOpKind(kind))
		}
	}
	r.plan.Shuffle(len(kinds), func(i, j int) { kinds[i], kinds[j] = kinds[j], kinds[i] })
	var live []string // scratch files in creation order
	created := 0
	ops := make([]smallOp, 0, len(kinds))
	for i := range kinds {
		if kinds[i] == opRemove && len(live) == 0 {
			// Nothing to remove yet: bring the next create forward.  There
			// are more creates than removes, so one always follows.
			j := i + 1
			for kinds[j] != opCreate {
				j++
			}
			kinds[i], kinds[j] = kinds[j], kinds[i]
		}
		op := smallOp{kind: kinds[i], think: thinkTime(r.plan, smallThink), file: owned[zipf()]}
		switch op.kind {
		case opOverwrite:
			op.off = r.payloadOff(r.plan, files[op.file].size)
		case opCreate:
			op.path = fmt.Sprintf("%s/c%d-%d", smallDir, c, created)
			op.size = smallMinBytes + r.plan.Intn(smallMaxBytes-smallMinBytes+1)
			op.off = r.payloadOff(r.plan, op.size)
			created++
			live = append(live, op.path)
		case opRemove:
			op.path = live[0]
			live = live[1:]
		}
		ops = append(ops, op)
	}
	return ops
}

func (in *smallInst) engine() *sim.Engine       { return in.srv.Sys().Eng }
func (in *smallInst) systems() []*server.System { return []*server.System{in.srv.Sys()} }
func (in *smallInst) owner() any                { return in.srv }

func (in *smallInst) measure(r *round) error {
	eng := in.engine()
	t0 := eng.Now()
	for c := range in.plans {
		ops := in.plans[c]
		eng.Spawn("smallfile-client", func(p *sim.Proc) {
			for i := range ops {
				p.Wait(ops[i].think)
				in.do(r, p, &ops[i])
			}
		})
	}
	end := eng.Run()
	r.span["read"] = end.Sub(t0)
	r.span["write"] = end.Sub(t0)
	return nil
}

// do runs one operation and checks its outcome against the reference.
func (in *smallInst) do(r *round, p *sim.Proc, op *smallOp) {
	b := in.b
	switch op.kind {
	case opRead:
		f := in.files[op.file]
		start := p.Now()
		got, err := in.read(p, f.path, f.size)
		if err != nil {
			r.attempt()
			r.failed("read %s: %v", f.path, err)
			return
		}
		r.done("read", p.Now().Sub(start), f.size)
		in.classify(r, f, got)
	case opOverwrite:
		f := in.files[op.file]
		start := p.Now()
		h, err := b.OpenFS(p, f.path)
		if err == nil {
			err = b.DurableWrite(p, h, 0, r.payload(op.off, f.size))
		}
		// A failed write may still have landed, so either version is
		// acceptable afterwards.
		f.versions = append(f.versions, op.off)
		if err != nil {
			r.attempt()
			r.failed("durable write %s: %v", f.path, err)
			return
		}
		r.done("write", p.Now().Sub(start), f.size)
	case opCreate:
		start := p.Now()
		h, err := b.CreateFS(p, op.path)
		if err != nil {
			r.attempt()
			r.failed("create %s: %v", op.path, err)
			return
		}
		if err := b.FSWrite(p, h, 0, r.payload(op.off, op.size)); err != nil {
			r.attempt()
			r.failed("write %s: %v", op.path, err)
			return
		}
		// Creates are metadata operations; the write metrics describe the
		// durable overwrites alone.
		r.done("create", p.Now().Sub(start), op.size)
		in.scratch[op.path] = &smallFile{path: op.path, size: op.size, versions: []int{op.off}}
	case opRemove:
		r.attempt()
		if err := b.FS.Remove(p, op.path); err != nil {
			r.failed("remove %s: %v", op.path, err)
			return
		}
		delete(in.scratch, op.path)
	case opStat:
		f := in.files[op.file]
		r.attempt()
		fi, err := b.FS.Stat(p, f.path)
		if err != nil {
			r.failed("stat %s: %v", f.path, err)
		} else if fi.Size != int64(f.size) {
			r.broken("stat %s: size %d, want %d", f.path, fi.Size, f.size)
		}
	case opReadDir:
		r.attempt()
		ents, err := b.FS.ReadDir(p, smallDir)
		if err != nil {
			r.failed("readdir %s: %v", smallDir, err)
			return
		}
		in.checkListing(r, ents)
	}
}

// checkListing checks a listing taken while other clients create and
// remove scratch files: it names every long-lived file once, and at most
// every scratch file planned.
func (in *smallInst) checkListing(r *round, ents []lfs.DirEntry) {
	long := 0
	for _, e := range ents {
		if in.longLived[e.Name] {
			long++
		}
	}
	if long != len(in.files) || len(ents) > len(in.files)+in.scratchPlanned {
		r.broken("readdir %s: %d names, %d of them long-lived; want all %d long-lived and at most %d scratch",
			smallDir, len(ents), long, len(in.files), in.scratchPlanned)
	}
}

// read opens path and reads the whole file through the datapath.
func (in *smallInst) read(p *sim.Proc, path string, size int) ([]byte, error) {
	h, err := in.b.OpenFS(p, path)
	if err != nil {
		return nil, err
	}
	return in.b.FSRead(p, h, 0, size)
}

// classify checks a whole-file read against the reference: the newest
// version is correct; an older acknowledged version is a stale read (the
// NVRAM read-path defect, a failed operation); anything else is broken.
func (in *smallInst) classify(r *round, f *smallFile, got []byte) {
	n := len(f.versions)
	if bytes.Equal(got, r.payload(f.versions[n-1], f.size)) {
		return
	}
	for i := n - 2; i >= 0; i-- {
		if bytes.Equal(got, r.payload(f.versions[i], f.size)) {
			r.knownDefect("bench.stale_reads")
			return
		}
	}
	r.broken("read %s: %d bytes match no version of the file", f.path, len(got))
}

func (in *smallInst) verify(r *round) error {
	return runProc(in.engine(), func(p *sim.Proc) error {
		check := func(f *smallFile) {
			r.attempt()
			got, err := in.read(p, f.path, f.size)
			if err != nil {
				r.failed("final read-back %s: %v", f.path, err)
				return
			}
			in.classify(r, f, got)
		}
		want := map[string]bool{}
		for _, f := range in.files {
			check(f)
			want[f.path] = true
		}
		for _, f := range in.scratch {
			want[f.path] = true
		}
		names := make([]string, 0, len(in.scratch))
		for name := range in.scratch {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			check(in.scratch[name])
		}
		ents, err := in.b.FS.ReadDir(p, smallDir)
		if err != nil {
			return err
		}
		if len(ents) != len(want) {
			r.broken("directory lists %d names, want %d", len(ents), len(want))
		}
		for _, e := range ents {
			if !want[smallDir+"/"+e.Name] {
				r.broken("directory lists unexpected %q", e.Name)
			}
		}
		return checkBoard(r, p, in.b, 0)
	})
}

// newZipf returns a seeded Zipf-distributed rank in [0, n).
func newZipf(r *round, n int) func() int {
	z := rand.NewZipf(r.plan, smallZipfS, smallZipfV, uint64(n-1))
	return func() int { return int(z.Uint64()) }
}
