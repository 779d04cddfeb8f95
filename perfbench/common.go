package main

import (
	"math/rand"

	"raidii"
	"raidii/internal/server"
	"raidii/internal/sim"
)

// runProc runs fn as one simulated process and drives the engine until
// all activity it caused has finished.
func runProc(eng *sim.Engine, fn func(p *sim.Proc) error) error {
	var err error
	eng.Spawn("perfbench", func(p *sim.Proc) { err = fn(p) })
	eng.Run()
	return err
}

// checkBoard syncs the board's file system (when it has one), then runs
// the file system check and the array parity scan.  Up to exposed
// inconsistent stripes are the known rebuild/write race and count as one
// failed check; more break the round.
func checkBoard(r *round, p *sim.Proc, b *server.Board, exposed int64) error {
	if b.FS != nil {
		if err := b.FS.Checkpoint(p); err != nil {
			return err
		}
		rep, err := b.FS.Check(p)
		if err != nil {
			return err
		}
		if !rep.OK() {
			r.broken("lfs check: %d orphans, bad pointers %v", len(rep.Orphans), rep.BadPointers)
		}
	}
	r.attempt()
	switch bad := b.Array.CheckParity(p); {
	case bad > exposed:
		r.broken("parity check: %d inconsistent stripes, %d exposed to the rebuild race", bad, exposed)
	case bad > 0:
		r.knownDefect("bench.rebuild_race")
	}
	return nil
}

// withCylinders shrinks every drive to n cylinders.
func withCylinders(n int) raidii.Option {
	return func(c *server.Config) { c.DiskSpec.Cylinders = n }
}

// thinkTime is a client's seeded pause before an operation, uniform in
// [0, max), so seeds vary the interleaving of otherwise symmetric clients.
func thinkTime(rng *rand.Rand, max sim.Duration) sim.Duration {
	return sim.Duration(rng.Int63n(int64(max)))
}
