package eager

import (
	"scalabletcc/internal/machine"
	"scalabletcc/internal/mem"
	"scalabletcc/internal/mesh"
	"scalabletcc/internal/obs"
	"scalabletcc/internal/sim"
	"scalabletcc/internal/workload"
)

// Message sizing: a header-only message (requests, acks, NACKs, TID
// operations) and the per-line address overhead inside batched messages.
const (
	msgHdr   = 16
	lineAddr = 8
)

// Abort reasons (the Arg of a KViolation event).
const (
	abortReadConflict  = iota // read NACKed by a registered foreign writer
	abortWriteConflict        // write NACKed by foreign readers or a writer
)

// Opcodes. The processor-side ones continue an attempt: a1 is the epoch
// and HandleEvent drops them once the attempt has moved on. The home-side
// ones, from opGrantTID on, run at a line's home or the TID vendor
// whatever the requester has done since; they are delivered to the
// requesting processor's handler only to name the requester.
const (
	opAbort      = machine.OpUser + iota // a2 = reason: a home NACKed the request
	opReadValid                          // the read registered; the cached copy is current
	opReadData                           // a2 = record: the read registered; line data follows
	opWriteAck                           // the write registered
	opTID                                // a2 = TID: the commit sequence number arrived
	opCommitAck                          // a home applied the commit and released
	opGrantTID                           // issue a TID at node 0
	opRead                               // a1 = record: register a reader at the home
	opReadMem                            // a1 = record: the data reply's memory access is done
	opWrite                              // a1 = record: register the writer at the home
	opCommitHome                         // a1 = record: write back and release the listed lines
	opRelease                            // a1 = record: release the listed lines (abort)
)

// proc is one eager-HTM processor: every first access announces itself to
// the line's home, conflicts abort the requester immediately.
type proc struct {
	machine.Node
	sys *System
	rng *sim.RNG

	commitAt sim.Time
	// tx holds the registrations this attempt holds at the lines' homes
	// (Read, Write) and its buffered writes.
	tx machine.LineSet
	// groups is the attempt's lines grouped by home, regrouped at every
	// commit or abort; each group is copied into a record before sending.
	groups []machine.HomeGroup

	tid         mem.Version
	pendingAcks int
}

func newProc(s *System, id int) *proc {
	p := &proc{sys: s, rng: sim.NewRNG(s.Cfg.Seed).Derive(0xEA6E, uint64(id))}
	p.Init(s.Machine, id, p)
	return p
}

// HandleEvent runs one of the processor's events.
func (p *proc) HandleEvent(code uint32, a1, a2 uint64) {
	if p.Dispatch(code, a1, a2) {
		return
	}
	if code >= opGrantTID {
		p.atHome(code, a1)
		return
	}
	if a1 != p.Epoch {
		if code == opReadData {
			p.sys.Recs.Free(a2)
		}
		return
	}
	switch code {
	case opAbort:
		p.abort(int(a2))
	case opReadValid:
		p.onReadValid()
	case opReadData:
		r := p.sys.Recs.At(a2)
		p.onReadData(r.Base, r.Data, r.V)
		p.sys.Recs.Free(a2)
	case opWriteAck:
		p.onWriteAck()
	case opTID:
		p.onTID(mem.Version(a2))
	case opCommitAck:
		p.pendingAcks--
		if p.pendingAcks == 0 {
			p.finishCommit()
		}
	default:
		panic("eager: unknown processor event")
	}
}

// StartAttempt begins (or retries) the transaction.
func (p *proc) StartAttempt() {
	p.BeginAttempt()
	p.tx.Reset()
	p.Step()
}

// Access performs the current load or store.
func (p *proc) Access(op workload.Op) {
	if op.Kind == workload.Store {
		p.doStore(op.Addr)
		return
	}
	p.doLoad(op.Addr)
}

// doLoad performs a transactional read. The first access of a line
// registers this processor as a reader at the line's home; registration is
// held until commit/abort, so later accesses of the line are local.
func (p *proc) doLoad(a mem.Addr) {
	g := p.sys.Cfg.Geometry
	base := g.Line(a)
	w := g.WordIndex(a)
	tl := p.tx.Get(base)
	if tl != nil {
		if tl.Written.Has(w) {
			// Own buffered write: excluded from the read log.
			p.Hit(base)
			return
		}
		if tl.Read {
			if line := p.Cache.Lookup(base); line != nil {
				p.LogRead(a, line.Data[w])
				p.Hit(base)
				return
			}
			// Registered but evicted: refetch (the home cannot conflict
			// with its own registrant).
		}
		// A line this transaction only writes may still hold a stale copy
		// from an earlier transaction — fetch current data under the
		// registration.
	}
	p.remoteRead(base)
}

// remoteRead registers the read at the line's home; a registered foreign
// writer NACKs it (requester loses). The record carries the line and the
// requester's cached version.
func (p *proc) remoteRead(base mem.Addr) {
	s := p.sys
	p.MissStart = s.Kernel.Now()
	i, r := s.Recs.Alloc()
	r.Home = s.Home(base, p.ID)
	r.Base = base
	r.V, r.OK = p.CurrentCopy(base)
	p.ToHome(r.Home, msgHdr, mesh.ClassMiss, opRead, i)
}

// atHome runs a home-side step of one of this processor's requests.
func (p *proc) atHome(code uint32, a1 uint64) {
	s := p.sys
	switch code {
	case opGrantTID:
		s.commitSeq++
		t := s.commitSeq
		if s.Obs != nil {
			s.Emit(obs.Event{Kind: obs.KTIDGrant, Node: 0, Peer: p.ID, TID: uint64(t)})
		}
		p.Reply(0, msgHdr, mesh.ClassCommit, opTID, uint64(t))
	case opRead:
		p.homeRead(a1)
	case opReadMem:
		p.Reply(s.Recs.At(a1).Home, msgHdr+s.Cfg.Geometry.LineSize, mesh.ClassMiss, opReadData, a1)
	case opWrite:
		p.homeWrite(a1)
	case opCommitHome:
		p.homeCommit(a1)
	case opRelease:
		r := s.Recs.At(a1)
		for _, base := range r.Bases {
			s.dir(r.Home, base).unregister(p.ID)
		}
		s.Recs.Free(a1)
	default:
		panic("eager: unknown home event")
	}
}

// homeRead registers a reader at the line's home unless a foreign writer
// holds it. A current cached copy is confirmed; otherwise the line data
// follows after the memory access, snapshotted with its version under the
// registration (no writer can intervene).
func (p *proc) homeRead(i uint64) {
	s := p.sys
	r := s.Recs.At(i)
	home, base := r.Home, r.Base
	d := s.dir(home, base)
	if d.writer >= 0 && d.writer != p.ID {
		s.nacksRead++
		if s.Obs != nil {
			s.Emit(obs.Event{Kind: obs.KAbort, Node: home, Peer: p.ID, Addr: uint64(base)})
		}
		s.Recs.Free(i)
		p.Reply(home, msgHdr, mesh.ClassMiss, opAbort, abortReadConflict)
		return
	}
	d.addReader(p.ID)
	if s.Obs != nil {
		s.Emit(obs.Event{Kind: obs.KLoad, Node: home, Peer: p.ID, Addr: uint64(base),
			TID: uint64(d.version)})
	}
	if r.OK && r.V == d.version {
		// The requester's copy is current: registration-only reply.
		s.Recs.Free(i)
		p.Reply(home, msgHdr, mesh.ClassMiss, opReadValid, 0)
		return
	}
	r.Data = append(r.Data, s.Memory.Line(base)...)
	r.V = d.version
	s.Kernel.PostAfter(s.Cfg.MemLatency, p, opReadMem, i, 0)
}

// onReadValid completes a first read whose cached copy was confirmed
// current at registration time.
func (p *proc) onReadValid() {
	g := p.sys.Cfg.Geometry
	a := p.Ops[p.OpIdx].Addr
	base := g.Line(a)
	p.tx.Touch(base).Read = true
	line := p.Cache.Lookup(base)
	p.LogRead(a, line.Data[g.WordIndex(a)])
	p.L1.Access(base)
	p.Filled()
}

// onReadData installs arriving line data and completes the read.
func (p *proc) onReadData(base mem.Addr, data []mem.Version, v mem.Version) {
	g := p.sys.Cfg.Geometry
	a := p.Ops[p.OpIdx].Addr
	line := p.FillVersioned(base, data, v)
	p.tx.Touch(base).Read = true
	p.LogRead(a, line.Data[g.WordIndex(a)])
	p.L1.Access(base)
	p.Filled()
}

// doStore buffers the write locally once this processor is the line's
// registered writer; the first store to a line requests write registration
// at the home.
func (p *proc) doStore(a mem.Addr) {
	g := p.sys.Cfg.Geometry
	base := g.Line(a)
	tl := p.tx.Get(base)
	if tl != nil && tl.Write {
		tl.Written = tl.Written.Set(g.WordIndex(a))
		p.Hit(base)
		return
	}
	s := p.sys
	p.MissStart = s.Kernel.Now()
	i, r := s.Recs.Alloc()
	r.Home = s.Home(base, p.ID)
	r.Base = base
	p.ToHome(r.Home, msgHdr, mesh.ClassCommit, opWrite, i)
}

// homeWrite registers this processor as the line's writer; a foreign
// writer or any foreign reader NACKs it (requester loses).
func (p *proc) homeWrite(i uint64) {
	s := p.sys
	r := s.Recs.At(i)
	home, base := r.Home, r.Base
	s.Recs.Free(i)
	d := s.dir(home, base)
	if (d.writer >= 0 && d.writer != p.ID) || d.readersOtherThan(p.ID) {
		s.nacksWrite++
		if s.Obs != nil {
			s.Emit(obs.Event{Kind: obs.KAbort, Node: home, Peer: p.ID, Addr: uint64(base), Arg: 1})
		}
		p.Reply(home, msgHdr, mesh.ClassCommit, opAbort, abortWriteConflict)
		return
	}
	d.writer = p.ID
	if s.Obs != nil {
		s.Emit(obs.Event{Kind: obs.KMark, Node: home, Peer: p.ID, Addr: uint64(base)})
	}
	p.Reply(home, msgHdr, mesh.ClassCommit, opWriteAck, 0)
}

func (p *proc) onWriteAck() {
	g := p.sys.Cfg.Geometry
	a := p.Ops[p.OpIdx].Addr
	base := g.Line(a)
	tl := p.tx.Touch(base)
	tl.Write = true
	tl.Written = tl.Written.Set(g.WordIndex(a))
	p.L1.Access(base)
	p.Filled()
}

// Commit takes a TID from the vendor at node 0. The TID is granted while
// every registration is still held, so real-time commit order equals TID
// order.
func (p *proc) Commit() {
	p.commitAt = p.sys.Kernel.Now()
	p.sys.Net.SendEvent(p.ID, 0, msgHdr, mesh.ClassCommit, p, opGrantTID, 0, 0)
}

// onTID writes the write-set back home (data tagged with the TID) and
// releases every registration; each home acks so the transaction retires
// only after its commit is globally visible.
func (p *proc) onTID(t mem.Version) {
	s := p.sys
	g := s.Cfg.Geometry
	p.tid = t
	if s.Obs != nil {
		s.Emit(obs.Event{Kind: obs.KCommit, Node: p.ID, Peer: -1, TID: uint64(t),
			Arg: int64(p.ReadSet.Len())})
	}
	record := p.StartRecord(t)
	p.groups = p.GroupByHome(p.groups, &p.tx, nil)
	p.pendingAcks = len(p.groups)
	for _, grp := range p.groups {
		i, r := s.Recs.Alloc()
		r.Home = grp.Home
		r.V = t
		bytes := msgHdr
		class := mesh.ClassCommit
		for _, base := range grp.Bases {
			w := p.tx.Get(base).Written
			bytes += lineAddr + w.Count()*g.WordSize
			if w.Any() {
				class = mesh.ClassWriteBack
			}
			r.Bases = append(r.Bases, base)
			r.Masks = append(r.Masks, w)
		}
		p.ToHome(grp.Home, bytes, class, opCommitHome, i)
	}
	p.CommitLocal(&p.tx, record, t)
	s.AppendRecord(record)
	if p.pendingAcks == 0 {
		p.finishCommit()
	}
}

// homeCommit applies a committed group at its home: written words take the
// TID as their version, and every registration of the committer is
// released.
func (p *proc) homeCommit(i uint64) {
	s := p.sys
	r := s.Recs.At(i)
	home, t := r.Home, r.V
	for j, base := range r.Bases {
		d := s.dir(home, base)
		if mask := r.Masks[j]; mask.Any() {
			s.WriteBack(base, mask, t)
			d.version = t
			if s.Obs != nil {
				s.Emit(obs.Event{Kind: obs.KCommitLine, Node: home, Peer: p.ID,
					TID: uint64(t), Addr: uint64(base), Words: uint64(mask)})
			}
		}
		d.unregister(p.ID)
	}
	s.Recs.Free(i)
	p.Reply(home, msgHdr, mesh.ClassCommit, opCommitAck, 0)
}

func (p *proc) finishCommit() {
	s := p.sys
	if s.Obs != nil {
		s.Emit(obs.Event{Kind: obs.KCommitDone, Node: p.ID, Peer: -1, TID: uint64(p.tid)})
	}
	p.Retire(uint64(s.Kernel.Now() - p.commitAt))
}

// abort releases every registration this attempt holds (fire-and-forget:
// per-pair FIFO delivery orders the release before any later request from
// this processor to the same home), then retries after randomized bounded
// exponential backoff.
func (p *proc) abort(reason int) {
	s := p.sys
	p.Violate(int64(reason))
	p.groups = p.GroupByHome(p.groups, &p.tx, nil)
	for _, grp := range p.groups {
		i, r := s.Recs.Alloc()
		r.Home = grp.Home
		r.Bases = append(r.Bases, grp.Bases...)
		p.ToHome(grp.Home, msgHdr+lineAddr*len(grp.Bases), mesh.ClassCommit, opRelease, i)
	}
	p.RetryAfterBackoff(p.rng)
}
