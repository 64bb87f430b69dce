package tl2

import (
	"scalabletcc/internal/machine"
	"scalabletcc/internal/mem"
	"scalabletcc/internal/mesh"
	"scalabletcc/internal/obs"
	"scalabletcc/internal/sim"
	"scalabletcc/internal/workload"
)

// Message sizing: a header-only message (requests, acks, NACKs, clock
// operations) and the per-line address overhead inside batched messages.
const (
	msgHdr   = 16
	lineAddr = 8
)

// Abort reasons (the Arg of a KViolation event).
const (
	abortReadLocked = iota // first read hit a line locked by a committer
	abortReadStale         // first read saw a timestamp newer than rv
	abortLockBusy          // commit-time lock acquisition was NACKed
	abortValidate          // read-set validation failed against rv
)

// Opcodes. The processor-side ones continue an attempt: a1 is the epoch
// and HandleEvent drops them once the attempt has moved on. The home-side
// ones, from opClockAdvance on, run at a line's home or the clock node
// whatever the requester has done since; they are delivered to the
// requesting processor's handler only to name the requester.
const (
	opClockRead    = machine.OpUser + iota // sample the clock for rv at node 0
	opRV                                   // a2 = rv: the clock sample arrived
	opAbort                                // a2 = reason: a home refused a first read
	opReadValid                            // the home confirmed the cached copy
	opReadData                             // a2 = record: line data and its timestamp
	opLockResp                             // a2 = 1 if the group's locks were granted
	opWV                                   // a2 = wv: the commit timestamp arrived
	opValidateResp                         // a2 = 1 if the group's read lines validated
	opClockAdvance                         // increment the clock at node 0 for wv
	opRead                                 // a1 = record: version check at the home
	opReadMem                              // a1 = record: the data reply's memory access is done
	opLock                                 // a1 = index into groups: take the write locks
	opValidate                             // a1 = index into vgroups: check the read lines
	opRelease                              // a1 = record: release the listed locks
	opWriteBack                            // a1 = record: write the lines back at wv
)

// proc is one TL2 processor: instrumented reads, buffered writes, and the
// lock → clock → validate → write-back commit sequence.
type proc struct {
	machine.Node
	sys *System
	rng *sim.RNG

	beginCost sim.Time // cycles spent sampling rv at begin
	commitAt  sim.Time

	rv mem.Version
	wv mem.Version
	// tx holds the attempt's lines: Read once the home checked the line's
	// timestamp, Written for the buffered writes.
	tx machine.LineSet
	// groups and vgroups are reused from commit to commit. They are
	// separate buffers because groups is still needed, for write-back or
	// lock release, after vgroups is filled.
	groups  []machine.HomeGroup // commit write-set, grouped by home
	vgroups []machine.HomeGroup // validation read-set, grouped by home

	pendingAcks int
	nacked      bool
}

func newProc(s *System, id int) *proc {
	p := &proc{sys: s, rng: sim.NewRNG(s.Cfg.Seed).Derive(0x712, uint64(id))}
	p.Init(s.Machine, id, p)
	return p
}

// HandleEvent runs one of the processor's events.
func (p *proc) HandleEvent(code uint32, a1, a2 uint64) {
	if p.Dispatch(code, a1, a2) {
		return
	}
	if code >= opClockAdvance {
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
	case opClockRead:
		s := p.sys
		rv := s.clock
		s.clockReads++
		if s.Obs != nil {
			s.Emit(obs.Event{Kind: obs.KProbeResp, Node: 0, Peer: p.ID, TID: uint64(rv)})
		}
		p.Reply(0, msgHdr, mesh.ClassCommit, opRV, uint64(rv))
	case opRV:
		p.rv = mem.Version(a2)
		p.beginCost = p.sys.Kernel.Now() - p.TxStart
		p.Step()
	case opAbort:
		p.abort(int(a2))
	case opReadValid:
		p.onReadValid()
	case opReadData:
		r := p.sys.Recs.At(a2)
		p.onReadData(r.Base, r.Data, r.V)
		p.sys.Recs.Free(a2)
	case opLockResp:
		p.onLockResp(a2 == 1)
	case opWV:
		p.onWV(mem.Version(a2))
	case opValidateResp:
		p.onValidateResp(a2 == 1)
	default:
		panic("tl2: unknown processor event")
	}
}

// StartAttempt begins (or retries) the transaction: reset speculative
// bookkeeping and sample the global version clock for rv.
func (p *proc) StartAttempt() {
	p.BeginAttempt()
	p.tx.Reset()
	p.sys.Net.SendEvent(p.ID, 0, msgHdr, mesh.ClassCommit, p, opClockRead, p.Epoch, 0)
}

// Access performs the current load or store.
func (p *proc) Access(op workload.Op) {
	if op.Kind == workload.Store {
		p.doStore(op.Addr)
		return
	}
	p.doLoad(op.Addr)
}

// doLoad performs a transactional read. The first access of a line in an
// attempt pays a version check at the line's home (TL2's read
// instrumentation); later accesses are local, which is sound because any
// commit to the line after the check carries a timestamp above rv and
// commit-time validation aborts this transaction.
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
			// Evicted mid-transaction: re-check at home (a timestamp
			// above rv now means an intervening commit — abort there).
			tl.Read = false
		}
	}
	p.remoteRead(base)
}

// remoteRead checks (and if the local copy is stale, fetches) a line at its
// home. The record carries the line and the requester's cached version.
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
	case opClockAdvance:
		s.clock++
		s.clockAdvances++
		wv := s.clock
		if s.Obs != nil {
			s.Emit(obs.Event{Kind: obs.KTIDGrant, Node: 0, Peer: p.ID, TID: uint64(wv)})
		}
		p.Reply(0, msgHdr, mesh.ClassCommit, opWV, uint64(wv))
	case opRead:
		p.homeRead(a1)
	case opReadMem:
		p.Reply(s.Recs.At(a1).Home, msgHdr+s.Cfg.Geometry.LineSize, mesh.ClassMiss, opReadData, a1)
	case opLock:
		p.homeLock(&p.groups[a1])
	case opValidate:
		p.homeValidate(&p.vgroups[a1])
	case opRelease:
		r := s.Recs.At(a1)
		for _, base := range r.Bases {
			if m := s.meta(r.Home, base); m.lockedBy == p.ID {
				m.lockedBy = -1
			}
		}
		s.Recs.Free(a1)
	case opWriteBack:
		p.homeWriteBack(a1)
	default:
		panic("tl2: unknown home event")
	}
}

// homeRead is the version check of a first read at the line's home: a
// locked line or a timestamp above the reader's rv NACKs it; a current
// cached copy is confirmed; otherwise the line data follows after the
// memory access, snapshotted with its timestamp so a concurrent write-back
// cannot slip between check and read.
func (p *proc) homeRead(i uint64) {
	s := p.sys
	r := s.Recs.At(i)
	home, base := r.Home, r.Base
	m := s.meta(home, base)
	if m.lockedBy >= 0 && m.lockedBy != p.ID {
		if s.Obs != nil {
			s.Emit(obs.Event{Kind: obs.KAbort, Node: home, Peer: p.ID, Addr: uint64(base)})
		}
		s.Recs.Free(i)
		p.Reply(home, msgHdr, mesh.ClassMiss, opAbort, abortReadLocked)
		return
	}
	if m.version > p.rv {
		if s.Obs != nil {
			s.Emit(obs.Event{Kind: obs.KAbort, Node: home, Peer: p.ID, Addr: uint64(base),
				TID: uint64(m.version)})
		}
		s.Recs.Free(i)
		p.Reply(home, msgHdr, mesh.ClassMiss, opAbort, abortReadStale)
		return
	}
	if s.Obs != nil {
		s.Emit(obs.Event{Kind: obs.KLoad, Node: home, Peer: p.ID, Addr: uint64(base),
			TID: uint64(m.version)})
	}
	if r.OK && r.V == m.version {
		// The requester's copy is current: timestamp-only reply.
		s.Recs.Free(i)
		p.Reply(home, msgHdr, mesh.ClassMiss, opReadValid, 0)
		return
	}
	r.Data = append(r.Data, s.Memory.Line(base)...)
	r.V = m.version
	s.Kernel.PostAfter(s.Cfg.MemLatency, p, opReadMem, i, 0)
}

// onReadValid completes a first read whose cached copy was confirmed
// current by the home's timestamp.
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

// doStore buffers a write locally; TL2 contacts the write-set homes only at
// commit.
func (p *proc) doStore(a mem.Addr) {
	g := p.sys.Cfg.Geometry
	base := g.Line(a)
	tl := p.tx.Touch(base)
	tl.Written = tl.Written.Set(g.WordIndex(a))
	p.Hit(base)
}

// Commit starts the commit sequence: acquire write locks at the write-set
// homes (all-or-nothing per home, in parallel). The lock and validation
// requests name their group by index: the processor waits for every reply,
// so the groups cannot change while a request is in flight.
func (p *proc) Commit() {
	p.commitAt = p.sys.Kernel.Now()
	p.groups = p.GroupByHome(p.groups, &p.tx, func(tl *machine.TxLine) bool { return tl.Written.Any() })
	if len(p.groups) == 0 {
		// Read-only transaction: still acquire a unique wv and validate, so
		// every transaction appears in the commit log with a unique TID.
		p.requestWV()
		return
	}
	p.pendingAcks = len(p.groups)
	p.nacked = false
	for gi, g := range p.groups {
		p.ToHome(g.Home, msgHdr+lineAddr*len(g.Bases), mesh.ClassCommit, opLock, uint64(gi))
	}
}

// homeLock takes the group's write locks at its home, all or nothing.
func (p *proc) homeLock(g *machine.HomeGroup) {
	s := p.sys
	ok := true
	for _, base := range g.Bases {
		m := s.meta(g.Home, base)
		if m.lockedBy >= 0 && m.lockedBy != p.ID {
			ok = false
			break
		}
	}
	if ok {
		for _, base := range g.Bases {
			s.meta(g.Home, base).lockedBy = p.ID
			if s.Obs != nil {
				s.Emit(obs.Event{Kind: obs.KMark, Node: g.Home, Peer: p.ID, Addr: uint64(base)})
			}
		}
	} else if s.Obs != nil {
		s.Emit(obs.Event{Kind: obs.KAbort, Node: g.Home, Peer: p.ID})
	}
	g.Locked = ok
	p.Reply(g.Home, msgHdr, mesh.ClassCommit, opLockResp, flag(ok))
}

func (p *proc) onLockResp(ok bool) {
	if !ok {
		p.nacked = true
	}
	p.pendingAcks--
	if p.pendingAcks > 0 {
		return
	}
	if p.nacked {
		p.releaseLocks()
		p.abort(abortLockBusy)
		return
	}
	p.requestWV()
}

// releaseLocks unlocks every home group whose acquisition succeeded
// (fire-and-forget: per-pair FIFO delivery orders the release before any
// later request from this processor to the same home).
func (p *proc) releaseLocks() {
	s := p.sys
	for _, g := range p.groups {
		if !g.Locked {
			continue
		}
		i, r := s.Recs.Alloc()
		r.Home = g.Home
		r.Bases = append(r.Bases, g.Bases...)
		p.ToHome(g.Home, msgHdr+lineAddr*len(g.Bases), mesh.ClassCommit, opRelease, i)
	}
}

// requestWV increments the global version clock at node 0 and returns the
// new value as this transaction's commit timestamp.
func (p *proc) requestWV() {
	p.sys.Net.SendEvent(p.ID, 0, msgHdr, mesh.ClassCommit, p, opClockAdvance, 0, 0)
}

func (p *proc) onWV(wv mem.Version) {
	p.wv = wv
	if p.rv+1 == wv {
		// No transaction committed between rv and wv: the read-set cannot
		// have been overwritten (TL2's validation fast path).
		p.finishCommit()
		return
	}
	p.vgroups = p.GroupByHome(p.vgroups, &p.tx, func(tl *machine.TxLine) bool { return tl.Read })
	if len(p.vgroups) == 0 {
		p.finishCommit()
		return
	}
	p.pendingAcks = len(p.vgroups)
	p.nacked = false
	for gi, g := range p.vgroups {
		p.ToHome(g.Home, msgHdr+lineAddr*len(g.Bases), mesh.ClassCommit, opValidate, uint64(gi))
	}
}

// homeValidate checks the group's read lines at its home: each must be
// unlocked by others and no newer than rv.
func (p *proc) homeValidate(g *machine.HomeGroup) {
	s := p.sys
	ok := true
	for _, base := range g.Bases {
		m := s.meta(g.Home, base)
		if m.version > p.rv || (m.lockedBy >= 0 && m.lockedBy != p.ID) {
			ok = false
			break
		}
	}
	if s.Obs != nil {
		s.Emit(obs.Event{Kind: obs.KProbeResp, Node: g.Home, Peer: p.ID,
			Words: uint64(len(g.Bases)), Arg: int64(flag(ok))})
	}
	p.Reply(g.Home, msgHdr, mesh.ClassCommit, opValidateResp, flag(ok))
}

func (p *proc) onValidateResp(ok bool) {
	if !ok {
		p.nacked = true
	}
	p.pendingAcks--
	if p.pendingAcks > 0 {
		return
	}
	if p.nacked {
		p.releaseLocks()
		p.abort(abortValidate)
		return
	}
	p.finishCommit()
}

// finishCommit writes the write-set back (data tagged wv, locks released at
// application time) and retires the transaction. Write-backs are
// fire-and-forget: per-pair FIFO keeps this processor's next accesses
// ordered behind them, and other processors NACK on the lock until the data
// lands.
func (p *proc) finishCommit() {
	s := p.sys
	g := s.Cfg.Geometry
	wv := p.wv
	if s.Obs != nil {
		s.Emit(obs.Event{Kind: obs.KCommit, Node: p.ID, Peer: -1, TID: uint64(wv),
			Arg: int64(p.ReadSet.Len())})
	}
	record := p.StartRecord(wv)
	for _, grp := range p.groups {
		i, r := s.Recs.Alloc()
		r.Home = grp.Home
		r.V = wv
		bytes := msgHdr
		for _, base := range grp.Bases {
			w := p.tx.Get(base).Written
			bytes += lineAddr + w.Count()*g.WordSize
			r.Bases = append(r.Bases, base)
			r.Masks = append(r.Masks, w)
		}
		p.ToHome(grp.Home, bytes, mesh.ClassWriteBack, opWriteBack, i)
	}
	p.CommitLocal(&p.tx, record, wv)
	s.AppendRecord(record)
	if s.Obs != nil {
		s.Emit(obs.Event{Kind: obs.KCommitDone, Node: p.ID, Peer: -1, TID: uint64(wv)})
	}
	p.Retire(uint64(s.Kernel.Now()-p.commitAt) + uint64(p.beginCost))
}

// homeWriteBack applies a committed group at its home: the written words
// take version wv, the lines' timestamps advance to wv, and their locks
// are released.
func (p *proc) homeWriteBack(i uint64) {
	s := p.sys
	r := s.Recs.At(i)
	for j, base := range r.Bases {
		s.WriteBack(base, r.Masks[j], r.V)
		m := s.meta(r.Home, base)
		m.version = r.V
		m.lockedBy = -1
		if s.Obs != nil {
			s.Emit(obs.Event{Kind: obs.KCommitLine, Node: r.Home, Peer: p.ID,
				TID: uint64(r.V), Addr: uint64(base), Words: uint64(r.Masks[j])})
		}
	}
	s.Recs.Free(i)
}

// abort rolls the attempt back and retries after randomized bounded
// exponential backoff.
func (p *proc) abort(reason int) {
	p.Violate(int64(reason))
	p.RetryAfterBackoff(p.rng)
}

// flag encodes a boolean reply in an event argument word.
func flag(ok bool) uint64 {
	if ok {
		return 1
	}
	return 0
}
