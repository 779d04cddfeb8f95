package main

import (
	"bytes"
	"fmt"
	"runtime"
	"time"

	"raidii"
	"raidii/internal/raid"
	"raidii/internal/scsi"
	"raidii/internal/server"
	"raidii/internal/sim"
	"raidii/internal/telemetry"
	"raidii/internal/xbus"
)

// degraded fails one disk and hot-rebuilds it onto a spare through
// ReplaceDisk while clients read and write the array directly.  It never
// touches LFS.
var degradedWorkload = &workload{
	name:  "degraded",
	why:   "a disk fails and rebuilds under load on the raw array: XOR reconstruction, page-store zero-fill and engine handoff, no LFS",
	build: buildDegraded,
}

const (
	degClients     = 4
	degOps         = 200      // per client: enough to outlast the rebuild
	degStripes     = 8        // preloaded stripes per client region
	degSize        = 64 << 10 // every request: one stripe unit, at a 4 KB-aligned offset
	degPage        = 4 << 10
	degCylinders   = 96 // about 33 MB drives
	degReadPercent = 60
	degThink       = 2 * time.Millisecond
	degVictim      = 3 // the disk that fails, as in the paper-style rebuild experiment
)

type degOp struct {
	write bool
	off   int // byte offset within the client's region
	size  int
	src   int // payload pool offset (writes)
	think sim.Duration
}

// pageVersions is the reference model of one 4 KB page of the preloaded
// area, as payload pool offsets.  Only one request is ever in flight on a
// client's region, so now is exact: usually one version, two after a
// write whose outcome is unknown.
type pageVersions struct {
	now  []int // the versions a read may return
	past []int // superseded versions: returning one is the rebuild race
}

type degInst struct {
	srv    *raidii.Server
	b      *server.Board
	guard  *crashGuard
	stripe int // data bytes per stripe
	unit   int // bytes per stripe unit
	region int // bytes per client region
	plans  [][]degOp
	pages  []pageVersions
	// exposed marks the stripes where a write skipped a column on the
	// failed disk: the stripes whose parity the rebuild race may leave
	// stale.
	exposed map[int]bool
}

func buildDegraded(r *round) (instance, error) {
	srv, err := raidii.NewServer(raidii.Fig8Geometry(), withCylinders(degCylinders))
	if err != nil {
		return nil, err
	}
	b := srv.Sys().Boards[0]
	if b.Array.Level() != raid.Level5 {
		return nil, fmt.Errorf("array is %v; the rebuild-race bookkeeping assumes Level 5", b.Array.Level())
	}
	in := &degInst{srv: srv, b: b, exposed: map[int]bool{}}
	in.guard = &crashGuard{Board: b.XB, arr: b.Array, pool: r.pool}
	b.Array.SetXOR(in.guard)
	in.unit = b.Array.StripeUnitSectors() * b.Array.SectorSize()
	in.stripe = b.Array.DataDisks() * in.unit
	in.region = degStripes * in.stripe
	in.pages = make([]pageVersions, degClients*in.region/degPage)
	preload := make([]int, len(in.pages)*degPage/in.stripe)
	for s := range preload {
		preload[s] = r.payloadOff(r.plan, in.stripe)
		for k := 0; k < in.stripe/degPage; k++ {
			in.pages[s*in.stripe/degPage+k].now = []int{preload[s] + k*degPage}
		}
	}
	// Each client cuts its payloads from its own quarter of the pool, so
	// the payload of a crashed write names the client that made it.
	quarter := len(r.pool) / degClients
	for c := 0; c < degClients; c++ {
		// A fixed read/write split keeps each kind's sample count, and so
		// the percentile its tail reports, the same for every seed.
		kinds := make([]bool, degOps)
		for i := degOps * degReadPercent / 100; i < degOps; i++ {
			kinds[i] = true
		}
		r.plan.Shuffle(len(kinds), func(i, j int) { kinds[i], kinds[j] = kinds[j], kinds[i] })
		var ops []degOp
		for _, write := range kinds {
			op := degOp{
				write: write,
				off:   degPage * r.plan.Intn((in.region-degSize)/degPage+1),
				size:  degSize,
				think: thinkTime(r.plan, degThink),
			}
			if op.write {
				op.src = c*quarter + r.plan.Intn(quarter-degSize)
			}
			ops = append(ops, op)
		}
		in.plans = append(in.plans, ops)
	}
	err = runProc(in.engine(), func(p *sim.Proc) error {
		for s, off := range preload {
			if err := b.Array.Write(p, in.lba(s*in.stripe), r.payload(off, in.stripe)); err != nil {
				return err
			}
		}
		return nil
	})
	return in, err
}

func (in *degInst) engine() *sim.Engine       { return in.srv.Sys().Eng }
func (in *degInst) systems() []*server.System { return []*server.System{in.srv.Sys()} }
func (in *degInst) owner() any                { return in.srv }

// lba converts a byte offset of the preloaded area to an array sector.
func (in *degInst) lba(off int) int64 { return int64(off / in.b.Array.SectorSize()) }

func (in *degInst) measure(r *round) error {
	eng := in.engine()
	b := in.b
	t0 := eng.Now()
	if err := b.Array.FailDisk(degVictim); err != nil {
		return err
	}
	b.Disks[degVictim].Drive.Fail()
	rb, err := b.ReplaceDisk(degVictim)
	if err != nil {
		return err
	}
	var rebuildErr error
	eng.Spawn("rebuild-watch", func(p *sim.Proc) {
		_, rebuildErr = rb.Wait(p)
		r.rebuild, r.hasRebuild = p.Now().Sub(t0), true
	})
	for c := range in.plans {
		base := c * in.region
		ops := in.plans[c]
		eng.Spawn("degraded-client", func(p *sim.Proc) {
			for _, op := range ops {
				p.Wait(op.think)
				in.do(r, p, base, op)
			}
		})
	}
	end := eng.Run()
	r.span["read"] = end.Sub(t0)
	r.span["write"] = end.Sub(t0)
	return rebuildErr
}

// do runs one array request and checks it against the reference.
func (in *degInst) do(r *round, p *sim.Proc, base int, op degOp) {
	at := base + op.off
	start := p.Now()
	if op.write {
		req := telemetry.Begin(p, "array-write")
		in.expose(at, op.size)
		crashes := len(in.guard.crashed)
		err := in.b.Array.Write(p, in.lba(at), r.payload(op.src, op.size))
		req.End(p, err)
		crashed := false
		for _, off := range in.guard.crashed[crashes:] {
			crashed = crashed || (off >= op.src && off < op.src+op.size)
		}
		// A write that failed or crashed may have landed in part, so its
		// pages may hold either version afterwards.
		in.wrote(at, op, err == nil && !crashed)
		switch {
		case crashed:
			r.attempt()
			r.knownDefect("bench.rebuild_crash")
		case err != nil:
			r.attempt()
			r.failed("array write at %d: %v", at, err)
		default:
			r.done("write", p.Now().Sub(start), op.size)
		}
		return
	}
	req := telemetry.Begin(p, "array-read")
	got, err := in.b.Array.Read(p, in.lba(at), op.size/in.b.Array.SectorSize())
	req.End(p, err)
	if err != nil {
		r.attempt()
		r.failed("array read at %d: %v", at, err)
		return
	}
	r.done("read", p.Now().Sub(start), op.size)
	in.check(r, "array read", at, got)
}

// wrote records a write of op's payload at byte offset at in the
// reference.  When the outcome is certain the new version replaces the
// old; otherwise both stay readable.
func (in *degInst) wrote(at int, op degOp, certain bool) {
	for k := 0; k < op.size/degPage; k++ {
		pv := &in.pages[at/degPage+k]
		v := op.src + k*degPage
		if certain {
			pv.past = append(pv.past, pv.now...)
			pv.now = append(pv.now[:0], v)
		} else {
			pv.now = append(pv.now, v)
		}
	}
}

// expose marks the stripes in which a write of n bytes at byte offset at
// skips a column on the failed disk while the array is degraded: the disk
// holds the stripe's parity or a data column the write touches.  The
// layout is raid.Level5's left-symmetric one: stripe s keeps parity on
// disk width-1-s%width, and data column pos on the pos+1-th disk after it.
func (in *degInst) expose(at, n int) {
	if !in.b.Array.Failed(degVictim) {
		return
	}
	width := in.b.Array.Width()
	for u := at / in.unit; u <= (at+n-1)/in.unit; u++ {
		s := u * in.unit / in.stripe
		pos := u - s*in.stripe/in.unit
		parity := width - 1 - s%width
		if parity == degVictim || (parity+1+pos)%width == degVictim {
			in.exposed[s] = true
		}
	}
}

// check compares bytes read at byte offset at with the reference.  Every
// 4 KB page must hold a version it may hold now, or an earlier version of
// the same page: a write the hot rebuild lost (the rebuild neither locks a
// stripe nor forwards writes to the spare), a failed operation counted as
// bench.rebuild_race.  Any other bytes break the round.
func (in *degInst) check(r *round, what string, at int, got []byte) {
	raced := false
	for k := 0; k < len(got)/degPage; k++ {
		pv := &in.pages[at/degPage+k]
		page := got[k*degPage : (k+1)*degPage]
		switch {
		case in.holds(page, pv.now):
		case in.holds(page, pv.past):
			raced = true
		default:
			r.broken("%s at %d (+%d): page %d holds no version it ever had", what, at, len(got), k)
			return
		}
	}
	if raced {
		r.knownDefect("bench.rebuild_race")
	}
}

// holds reports whether page equals one of the given versions.
func (in *degInst) holds(page []byte, versions []int) bool {
	for _, v := range versions {
		if bytes.Equal(page, in.guard.pool[v:v+degPage]) {
			return true
		}
	}
	return false
}

func (in *degInst) verify(r *round) error {
	return runProc(in.engine(), func(p *sim.Proc) error {
		if in.b.Array.Failed(degVictim) {
			r.broken("disk %d still failed after the rebuild", degVictim)
		}
		secs := in.stripe / in.b.Array.SectorSize()
		for at := 0; at < len(in.pages)*degPage; at += in.stripe {
			r.attempt()
			got, err := in.b.Array.Read(p, in.lba(at), secs)
			if err != nil {
				r.failed("final read-back at %d: %v", at, err)
				continue
			}
			in.check(r, "final read-back", at, got)
		}
		// The race can also leave parity stale under correct data, but
		// only in stripes where a write skipped the failed disk.
		stale, err := in.staleStripes(p)
		if err != nil {
			return err
		}
		for _, s := range stale {
			if !in.exposed[s] {
				r.broken("stripe %d: parity inconsistent, but no write skipped the failed disk there", s)
			}
		}
		// Every other stripe of the array must be consistent.
		return checkBoard(r, p, in.b, int64(len(stale)))
	})
}

// staleStripes returns the preloaded stripes whose columns do not XOR to
// zero.  It reads each member disk directly, the spare in the failed
// disk's place, after the rebuild has finished.
func (in *degInst) staleStripes(p *sim.Proc) ([]int, error) {
	width := in.b.Array.Width()
	members := append([]*scsi.Disk(nil), in.b.Disks[:width]...)
	if len(in.b.Disks) != width+1 {
		return nil, fmt.Errorf("board has %d disks, want %d members and the spare", len(in.b.Disks), width)
	}
	members[degVictim] = in.b.Disks[width]
	secs := in.unit / in.b.Array.SectorSize()
	var stale []int
	for s := 0; s < len(in.pages)*degPage/in.stripe; s++ {
		sum := make([]byte, in.unit)
		for _, d := range members {
			col, err := d.Read(p, int64(s*secs), secs, nil)
			if err != nil {
				return nil, fmt.Errorf("stripe %d: %w", s, err)
			}
			for i, v := range col {
				sum[i] ^= v
			}
		}
		if !bytes.Equal(sum, make([]byte, in.unit)) {
			stale = append(stale, s)
		}
	}
	return stale, nil
}

// crashGuard is the board's parity engine with one difference.  A write
// whose read-modify-write straddles the end of the hot rebuild reads old
// data only from the disks that were alive, then, after parking, finds the
// failed disk repaired and XORs the column it never read with the new
// data: the engine panics on sources of unequal length, and the panic
// would end the whole program.  The guard ends only the simulated process
// that makes exactly that call (two sources, the first never read, the
// disk repaired) and records the pool offset of its new data, so the
// benchmark counts the crash as a failed write (bench.rebuild_crash) and
// goes on.  Nothing of that stripe has been written when the call is made.
// Every other call, including any other with unequal sources, reaches the
// engine unchanged.
type crashGuard struct {
	*xbus.Board
	arr  *raid.Array
	pool []byte
	// crashed holds the pool offset of the new data of every crashed call.
	crashed []int
}

func (g *crashGuard) XOR(p *sim.Proc, srcs ...[]byte) []byte {
	if len(srcs) == 2 && srcs[0] == nil && len(srcs[1]) > 0 && !g.arr.Failed(degVictim) {
		// A slice cut from the pool ends where the pool ends.
		g.crashed = append(g.crashed, len(g.pool)-cap(srcs[1]))
		runtime.Goexit()
	}
	return g.Board.XOR(p, srcs...)
}
