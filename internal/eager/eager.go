// Package eager models an eager-conflict-detection HTM on the same
// distributed machine as the scalable TCC design: transactions announce
// every read and write to the accessed line's home directory at access
// time, and the directory refuses (NACKs) any request that conflicts with
// a live transaction — the requester aborts immediately instead of
// discovering the conflict at commit (the LogTM/UTM school of design, with
// requester-loses resolution).
//
// The directory tracks, per line, the set of registered readers and the
// single registered writer among in-flight transactions. Registration is
// strict two-phase: entries are held until the owning transaction commits
// or aborts, so a registered line's local copy can never be overwritten
// concurrently — conflict detection lives in the directory, which also
// means a cache eviction costs only a refetch, never an abort. Commit
// fetches a sequence number from the TID vendor at node 0, then writes the
// write-set back home (data tagged with the TID) and releases every
// registration; because the TID is granted while all registrations are
// held, real-time commit order equals TID order and runs pass the same
// serializability and final-memory oracles as the lazy machines.
//
// Protocol summary per transaction:
//
//	read     first access of a line registers this processor as a reader
//	         at the home; a registered foreign writer NACKs the request
//	write    registers this processor as the line's writer; a foreign
//	         writer or any foreign reader NACKs; data stays buffered
//	commit   take a TID from the vendor, write the write-set back and
//	         release every registration (acked), then continue
//	abort    release registrations, randomized bounded exponential
//	         backoff, retry
package eager

import (
	"scalabletcc/internal/bits"
	"scalabletcc/internal/machine"
	"scalabletcc/internal/mem"
	"scalabletcc/internal/mesh"
	"scalabletcc/internal/stats"
	"scalabletcc/internal/workload"
)

// Results summarizes an eager run. Violations counts aborted attempts: read
// and write NACKs.
type Results struct {
	machine.Totals

	// NacksRead/NacksWrite split the aborts by the request the directory
	// refused.
	NacksRead  uint64
	NacksWrite uint64

	Traffic mesh.Stats
}

// Summary returns the machine-independent digest (tcc.Summarizer).
func (r *Results) Summary() stats.Summary { return r.Totals.Summary("eager") }

// lineDir is one line's conflict-tracking state at its home: the version of
// the last committed writer plus the live reader/writer registrations.
type lineDir struct {
	version  mem.Version
	writer   int          // registered writing processor, -1 when none
	readers  bits.NodeSet // registered reading processors
	nreaders int          // readers.Count(), kept without a scan
}

// addReader registers processor id as a reader; registering again is a
// no-op.
func (d *lineDir) addReader(id int) {
	if !d.readers.Has(id) {
		d.readers.Set(id)
		d.nreaders++
	}
}

// unregister drops processor id's registrations on the line.
func (d *lineDir) unregister(id int) {
	if d.readers.Has(id) {
		d.readers.Clear(id)
		d.nreaders--
	}
	if d.writer == id {
		d.writer = -1
	}
}

// readersOtherThan reports whether a processor other than id is a
// registered reader.
func (d *lineDir) readersOtherThan(id int) bool {
	switch d.nreaders {
	case 0:
		return false
	case 1:
		return !d.readers.Has(id)
	default:
		return true
	}
}

// System is the assembled eager machine.
type System struct {
	*machine.Machine
	dirs []machine.LineTable[lineDir] // per home

	commitSeq  mem.Version // the TID vendor at node 0
	nacksRead  uint64
	nacksWrite uint64
}

// NewSystem builds an eager machine for prog.
func NewSystem(cfg machine.Config, prog workload.Program) (*System, error) {
	m, err := machine.New("eager", cfg, prog)
	if err != nil {
		return nil, err
	}
	m.UseMesh()
	s := &System{Machine: m, dirs: make([]machine.LineTable[lineDir], cfg.Procs)}
	for i := 0; i < cfg.Procs; i++ {
		newProc(s, i)
	}
	return s, nil
}

// dir returns (allocating if needed) the line's registration entry at home.
func (s *System) dir(home int, base mem.Addr) *lineDir {
	d, added := s.dirs[home].Entry(base)
	if added {
		d.writer = -1
	}
	return d
}

// Run executes the program to completion.
func (s *System) Run() (*Results, error) {
	if err := s.Simulate(); err != nil {
		return nil, err
	}
	return &Results{
		Totals:     s.Totals(),
		NacksRead:  s.nacksRead,
		NacksWrite: s.nacksWrite,
		Traffic:    s.Net.Stats(),
	}, nil
}
