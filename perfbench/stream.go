package main

import (
	"bytes"
	"fmt"
	"time"

	"raidii"
	"raidii/internal/server"
	"raidii/internal/sim"
)

// stream is the paper's headline use (Fig. 8): K clients write large files
// in 1 MB operations over the LFS high-bandwidth path, Sync, then read
// everything back.
var streamWorkload = &workload{
	name:  "stream",
	why:   "large sequential files: byte movement and segment allocation dominate, almost no metadata",
	build: buildStream,
}

const (
	streamClients = 4
	streamOp      = 1 << 20
	streamMB      = 32 // per client: every seed moves the same bytes
	// streamCylinders shrinks the drives (about 14 MB each) so the final
	// parity scan covers the written data, not gigabytes of zeros.
	streamCylinders = 40
	streamThink     = 30 * time.Millisecond
)

type streamInst struct {
	srv   *raidii.Server
	b     *server.Board
	files []*streamFile
}

// streamFile is one client's file: the pool offset of every 1 MB block
// (the reference content) and the client's think times.
type streamFile struct {
	path   string
	blocks []int
	think  []sim.Duration
}

func buildStream(r *round) (instance, error) {
	// Inputs first, from the seed alone.
	in := &streamInst{}
	for c := 0; c < streamClients; c++ {
		f := &streamFile{path: fmt.Sprintf("/stream%d", c)}
		for i := 0; i < streamMB; i++ {
			f.blocks = append(f.blocks, r.payloadOff(r.plan, streamOp))
			f.think = append(f.think, thinkTime(r.plan, streamThink))
		}
		in.files = append(in.files, f)
	}

	srv, err := raidii.NewServer(raidii.Fig8Geometry(), withCylinders(streamCylinders))
	if err != nil {
		return nil, err
	}
	in.srv, in.b = srv, srv.Sys().Boards[0]
	return in, runProc(in.engine(), in.b.FormatFS)
}

func (in *streamInst) engine() *sim.Engine       { return in.srv.Sys().Eng }
func (in *streamInst) systems() []*server.System { return []*server.System{in.srv.Sys()} }
func (in *streamInst) owner() any                { return in.srv }

func (in *streamInst) measure(r *round) error {
	eng := in.engine()
	var opErr error
	eng.Spawn("stream", func(p *sim.Proc) {
		t0 := p.Now()
		handles := make([]*server.FSFile, len(in.files))
		g := sim.NewGroup(eng)
		for c, f := range in.files {
			c, f := c, f
			g.Go("stream-writer", func(q *sim.Proc) {
				h, err := in.b.CreateFS(q, f.path)
				if err != nil {
					opErr = err
					return
				}
				r.attempt()
				handles[c] = h
				for i, off := range f.blocks {
					q.Wait(f.think[i])
					start := q.Now()
					if err := in.b.FSWrite(q, h, int64(i)*streamOp, r.payload(off, streamOp)); err != nil {
						r.attempt()
						r.failed("write %s block %d: %v", f.path, i, err)
						continue
					}
					r.done("write", q.Now().Sub(start), streamOp)
				}
			})
		}
		g.Wait(p)
		if err := in.b.FS.Sync(p); err != nil {
			opErr = err
			return
		}
		t1 := p.Now()
		r.span["write"] = t1.Sub(t0)
		g = sim.NewGroup(eng)
		for c, f := range in.files {
			h := handles[c]
			if h == nil {
				continue
			}
			f := f
			g.Go("stream-reader", func(q *sim.Proc) {
				for i, off := range f.blocks {
					q.Wait(f.think[len(f.think)-1-i])
					start := q.Now()
					got, err := in.b.FSRead(q, h, int64(i)*streamOp, streamOp)
					if err != nil {
						r.attempt()
						r.failed("read %s block %d: %v", f.path, i, err)
						continue
					}
					r.done("read", q.Now().Sub(start), streamOp)
					if !bytes.Equal(got, r.payload(off, streamOp)) {
						r.broken("read %s block %d: wrong bytes", f.path, i)
					}
				}
			})
		}
		g.Wait(p)
		r.span["read"] = p.Now().Sub(t1)
	})
	eng.Run()
	return opErr
}

func (in *streamInst) verify(r *round) error {
	return runProc(in.engine(), func(p *sim.Proc) error {
		for _, f := range in.files {
			h, err := in.b.OpenFS(p, f.path)
			if err != nil {
				r.broken("reopen %s: %v", f.path, err)
				continue
			}
			want := int64(len(f.blocks)) * streamOp
			if n, err := h.File.Size(p); err != nil || n != want {
				r.broken("%s: size %d (err %v), want %d", f.path, n, err, want)
			}
			for i, off := range f.blocks {
				got, err := in.b.FSRead(p, h, int64(i)*streamOp, streamOp)
				if err != nil || !bytes.Equal(got, r.payload(off, streamOp)) {
					r.broken("final read-back %s block %d: err %v", f.path, i, err)
				}
			}
		}
		return checkBoard(r, p, in.b, 0)
	})
}
