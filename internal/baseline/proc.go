package baseline

import (
	"scalabletcc/internal/bits"
	"scalabletcc/internal/cache"
	"scalabletcc/internal/machine"
	"scalabletcc/internal/mem"
	"scalabletcc/internal/obs"
	"scalabletcc/internal/sim"
	"scalabletcc/internal/workload"
)

type procState int

const (
	stRunning procState = iota
	stWaitLoad
	stWaitToken
)

// Opcodes. The miss path continues an attempt: a1 is the epoch and
// HandleEvent drops the event once the attempt has moved on. The token
// grant and the commit broadcast are not tied to an attempt.
const (
	opBusReq  = machine.OpUser + iota // a1 = epoch: the miss request crossed the bus
	opMemDone                         // a1 = epoch: the memory access is done
	opFill                            // a1 = epoch: the line crossed the bus back
	opToken                           // the commit token was granted
	opCommit                          // a1 = record: the write-set broadcast finished
)

// proc is one bus-based TCC processor: execute speculatively, grab the
// commit token, broadcast the write-set over the ordered bus.
type proc struct {
	machine.Node
	sys *System

	state      procState
	commitWait sim.Time
}

func newProc(s *System, id int) *proc {
	p := &proc{sys: s}
	p.Init(s.Machine, id, p)
	return p
}

// HandleEvent runs one of the processor's events.
func (p *proc) HandleEvent(code uint32, a1, a2 uint64) {
	if p.Dispatch(code, a1, a2) {
		return
	}
	switch code {
	case opToken:
		p.onToken()
		return
	case opCommit:
		p.onCommit(a1)
		return
	}
	if a1 != p.Epoch {
		return
	}
	switch code {
	case opBusReq:
		p.After(p.sys.Cfg.MemLatency, opMemDone)
	case opMemDone:
		p.sys.busSend(p, 16+p.sys.Cfg.Geometry.LineSize, opFill, p.Epoch)
	case opFill:
		// The line data is read at delivery: the ordered bus linearizes
		// fills with commit broadcasts, so a fill can never carry data
		// older than a commit the processor failed to snoop.
		base := p.sys.Cfg.Geometry.Line(p.Ops[p.OpIdx].Addr)
		p.onFill(base, p.sys.Memory.Line(base))
	default:
		panic("baseline: unknown processor event")
	}
}

// StartAttempt begins (or restarts) the transaction.
func (p *proc) StartAttempt() {
	p.state = stRunning
	p.BeginAttempt()
	p.Step()
}

// Access performs a load or a speculative store; misses fetch the line
// from shared memory over the bus (request, memory access, reply;
// write-allocate).
func (p *proc) Access(op workload.Op) {
	g := p.sys.Cfg.Geometry
	write := op.Kind == workload.Store
	base := g.Line(op.Addr)
	w := g.WordIndex(op.Addr)
	line := p.Cache.Lookup(base)
	if line != nil && (line.VW.Has(w) || write) {
		p.finishAccess(line, w, op.Addr, write)
		p.Hit(base)
		return
	}
	p.state = stWaitLoad
	p.MissStart = p.sys.Kernel.Now()
	p.sys.busSend(p, 16, opBusReq, p.Epoch)
}

func (p *proc) onFill(base mem.Addr, data []mem.Version) {
	g := p.sys.Cfg.Geometry
	line := p.Cache.Peek(base)
	if line == nil {
		// Write-through commits: committed data is always in shared
		// memory, so clean and dirty victims alike are dropped.
		line = p.Insert(base, data)
	} else {
		for w := 0; w < g.WordsPerLine(); w++ {
			if !line.VW.Has(w) && !line.SM.Has(w) {
				line.Data[w] = data[w]
			}
		}
		line.VW = bits.All(g.WordsPerLine())
	}
	if p.sys.Obs != nil {
		p.sys.Emit(obs.Event{Kind: obs.KFill, Node: p.ID, Peer: -1, Addr: uint64(base)})
	}
	op := p.Ops[p.OpIdx]
	p.finishAccess(line, g.WordIndex(op.Addr), op.Addr, op.Kind == workload.Store)
	p.state = stRunning
	p.Filled()
}

func (p *proc) finishAccess(line *cache.Line, w int, a mem.Addr, write bool) {
	if write {
		line.SM = line.SM.Set(w)
		line.VW = line.VW.Set(w)
		p.Cache.Track(line)
		return
	}
	if !line.SM.Has(w) {
		line.SR = line.SR.Set(w)
		p.Cache.Track(line)
		p.ReadSet.Add(a, line.Data[w])
	}
}

// Commit requests the global commit token.
func (p *proc) Commit() {
	p.state = stWaitToken
	p.commitWait = p.sys.Kernel.Now()
	p.sys.acquireToken(p)
}

// onToken holds the token: broadcast the write-set over the ordered bus.
// The record carries the write-set and its commit sequence number.
func (p *proc) onToken() {
	s := p.sys
	if p.state != stWaitToken || p.Idle() {
		// Violated between the grant and this event: pass the token on.
		s.releaseToken()
		return
	}
	g := s.Cfg.Geometry
	s.commitSeq++
	i, r := s.Recs.Alloc()
	r.V = s.commitSeq
	p.Cache.ForEachSpeculative(func(l *cache.Line) {
		if l.SM.Any() {
			r.Bases = append(r.Bases, l.Base)
			r.Masks = append(r.Masks, l.SM)
		}
	})

	// Serialize the whole write-set over the bus: addresses + data words.
	bytes := 16
	for _, m := range r.Masks {
		bytes += 16 + m.Count()*g.WordSize
	}
	s.busSend(p, bytes, opCommit, i)
}

// onCommit completes the broadcast: write through to memory, snoop every
// other processor, then release the token.
func (p *proc) onCommit(i uint64) {
	s := p.sys
	r := s.Recs.At(i)
	seq := r.V
	if s.Obs != nil {
		s.Emit(obs.Event{Kind: obs.KCommit, Node: p.ID, Peer: -1, TID: uint64(seq), Arg: int64(p.ReadSet.Len())})
	}
	record := p.StartRecord(seq)
	for j, base := range r.Bases {
		words := r.Masks[j]
		s.WriteBack(base, words, seq)
		s.LogWrites(record, base, words, seq)
		if s.Obs != nil {
			s.Emit(obs.Event{Kind: obs.KCommitLine, Node: p.ID, Peer: -1, TID: uint64(seq),
				Addr: uint64(base), Words: uint64(words)})
		}
		// Snoop: every other processor checks the broadcast against its
		// speculative state.
		for _, q := range s.procs {
			if q != p {
				q.snoop(base, words, seq)
			}
		}
	}
	s.Recs.Free(i)
	// Write-through: committed lines stay clean and unowned.
	p.Cache.CommitTxWriteThrough(seq)
	s.AppendRecord(record)
	s.releaseToken()
	p.Retire(uint64(s.Kernel.Now() - p.commitWait))
}

// snoop checks a committed line broadcast against this processor's
// speculative state (the ordered bus makes this synchronous).
func (p *proc) snoop(base mem.Addr, words bits.WordMask, seq mem.Version) {
	line := p.Cache.Peek(base)
	if line == nil {
		return
	}
	overlap := line.SR.Overlaps(words)
	if p.sys.cfg.LineGranularity {
		overlap = line.SR.Any() && words.Any()
	}
	if p.sys.Obs != nil {
		p.sys.Emit(obs.Event{Kind: obs.KInv, Node: p.ID, Peer: -1, Addr: uint64(base), Words: uint64(words),
			TID: uint64(seq), SR: uint64(line.SR), SM: uint64(line.SM)})
	}
	if overlap {
		p.Cache.Invalidate(base)
		p.L1.Invalidate(base)
		p.violate()
		return
	}
	if line.SM.Any() || line.SR.Any() {
		line.VW = line.SM
		return
	}
	p.Cache.Invalidate(base)
	p.L1.Invalidate(base)
}

// violate aborts the running attempt and restarts it after the
// checkpoint-restore cost; outside a transaction there is nothing to abort.
func (p *proc) violate() {
	if p.Idle() {
		return
	}
	s := p.sys
	p.Violate(int64(p.state))
	if p.state == stWaitToken {
		// Abandon the pending token request by filtering ourselves out.
		q := s.tokenQueue[:0]
		for _, w := range s.tokenQueue {
			if w != p {
				q = append(q, w)
			}
		}
		s.tokenQueue = q
	}
	p.Cache.RollbackTx()
	p.state = stRunning
	p.After(s.cfg.ViolationRestartCost, machine.OpStartAttempt)
}
