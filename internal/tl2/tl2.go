// Package tl2 models a TL2-style software transactional memory running on
// the same distributed machine as the scalable TCC design: lazy versioning
// with a global version clock, per-line versioned write locks taken at
// commit, and read-set validation against per-location timestamps (Dice,
// Shalev & Shavit, DISC 2006).
//
// The mapping onto the simulated hardware keeps the comparison with the
// directory protocols honest. Each line's timestamp and lock live at the
// line's home node (the same first-touch homing the TCC directories use),
// so the STM's per-read version check, commit-time lock acquisition, and
// read-set validation are all real messages over the shared mesh. The
// global version clock is a single counter at node 0 — the serialization
// point the paper's distributed commit deliberately avoids, and exactly
// the contrast the head-to-head sweeps measure. Data words carry versions
// (the TID of the last committed writer), so runs feed the same
// serializability and final-memory oracles as every other machine model.
//
// Protocol summary per transaction:
//
//	begin    sample the global clock (rv) with a round trip to node 0
//	read     first access of a line pays a version check at its home;
//	         a locked line or a timestamp newer than rv aborts the reader
//	write    buffered locally, no home contact until commit
//	commit   lock the write-set lines at their homes (all-or-nothing per
//	         home, NACK aborts), increment the clock (wv), validate the
//	         read-set timestamps against rv, then write back data tagged
//	         wv and release the locks
//	abort    randomized bounded exponential backoff, then retry
package tl2

import (
	"scalabletcc/internal/machine"
	"scalabletcc/internal/mem"
	"scalabletcc/internal/mesh"
	"scalabletcc/internal/stats"
	"scalabletcc/internal/workload"
)

// Results summarizes a TL2 run. Violations counts aborted attempts: lock,
// validation, and read NACKs.
type Results struct {
	machine.Totals

	// ClockReads/ClockAdvances count round trips to the global version
	// clock: one read per attempt, one increment per commit.
	ClockReads    uint64
	ClockAdvances uint64

	Traffic mesh.Stats
}

// Summary returns the machine-independent digest (tcc.Summarizer).
func (r *Results) Summary() stats.Summary { return r.Totals.Summary("tl2") }

// lineMeta is one line's STM metadata at its home: the timestamp of the
// last committed writer and the commit-time write lock.
type lineMeta struct {
	version  mem.Version
	lockedBy int // locking processor, -1 when free
}

// System is the assembled TL2 machine.
type System struct {
	*machine.Machine
	dirs []machine.LineTable[lineMeta] // per home

	clock         mem.Version // the global version clock, hosted at node 0
	clockReads    uint64
	clockAdvances uint64
}

// NewSystem builds a TL2 machine for prog.
func NewSystem(cfg machine.Config, prog workload.Program) (*System, error) {
	m, err := machine.New("tl2", cfg, prog)
	if err != nil {
		return nil, err
	}
	m.UseMesh()
	s := &System{Machine: m, dirs: make([]machine.LineTable[lineMeta], cfg.Procs)}
	for i := 0; i < cfg.Procs; i++ {
		newProc(s, i)
	}
	return s, nil
}

// meta returns (allocating if needed) the line's metadata entry at home.
func (s *System) meta(home int, base mem.Addr) *lineMeta {
	m, added := s.dirs[home].Entry(base)
	if added {
		m.lockedBy = -1
	}
	return m
}

// Run executes the program to completion.
func (s *System) Run() (*Results, error) {
	if err := s.Simulate(); err != nil {
		return nil, err
	}
	return &Results{
		Totals:        s.Totals(),
		ClockReads:    s.clockReads,
		ClockAdvances: s.clockAdvances,
		Traffic:       s.Net.Stats(),
	}, nil
}
