package machine

import (
	"scalabletcc/internal/bits"
	"scalabletcc/internal/cache"
	"scalabletcc/internal/mem"
	"scalabletcc/internal/mesh"
	"scalabletcc/internal/obs"
	"scalabletcc/internal/sim"
	"scalabletcc/internal/stats"
	"scalabletcc/internal/tid"
	"scalabletcc/internal/verify"
	"scalabletcc/internal/workload"
)

// Lifecycle opcodes, shared by every protocol's processor and run by
// Node.Dispatch. A protocol numbers its own opcodes from OpUser.
const (
	OpStart          uint32 = iota // begin the program
	OpBeginTx                      // advance to the next transaction
	OpBarrierRelease               // resume after a phase barrier
	OpStartAttempt                 // a1 = epoch: (re)start the current transaction
	OpStep                         // a1 = epoch: run the next operation
	OpAtHome                       // a2 = opcode: a request reached its home; run it after DirLatency
	OpUser                         // first protocol-specific opcode
)

// Proc is the protocol half of a processor: what the shared lifecycle calls
// back into. Its HandleEvent passes every event to Node.Dispatch first.
type Proc interface {
	sim.Handler
	// StartAttempt begins (or retries) the transaction in Node.Ops; it
	// calls Node.BeginAttempt and eventually Node.Step.
	StartAttempt()
	// Access performs the current load or store, Ops[OpIdx]; it ends in
	// Node.Hit or Node.Filled, or aborts the attempt.
	Access(op workload.Op)
	// Commit runs once the attempt's operations are done; it ends in
	// Node.Retire, or aborts the attempt.
	Commit()
}

// Node is one processor's share of the machine: its private caches, its
// program cursor, the current attempt's bookkeeping, and its execution-time
// breakdown. A protocol's processor embeds a Node.
type Node struct {
	M  *Machine
	ID int

	Cache *cache.Cache
	L1    *cache.TagArray
	// lineVer is the version of each locally cached line, for protocols
	// that check their copies against the line's home (FillVersioned).
	lineVer LineTable[mem.Version]

	// Ops is the current transaction; OpIdx is the next operation.
	Ops   []workload.Op
	OpIdx int
	// Epoch numbers the attempts; it moves on at every commit and abort.
	Epoch    uint64
	Attempts int // aborts of the current transaction so far

	TxStart    sim.Time // start of the current attempt
	MissStart  sim.Time // start of the outstanding miss
	PendUseful uint64   // cycles the attempt has spent on useful work
	PendMiss   uint64   // cycles the attempt has spent waiting on the caches
	ReadSet    mem.ReadSet

	Breakdown stats.Breakdown

	proc      Proc
	homeGroup []int32 // GroupByHome's group index per home, sized on first use
	phase     int
	txIdx     int
	idle      bool // at a phase barrier, or finished
	idleStart sim.Time
}

// Init attaches node id, the processor p that embeds it, to m and builds
// its caches.
func (n *Node) Init(m *Machine, id int, p Proc) {
	g := m.Cfg.Geometry
	*n = Node{
		M:     m,
		ID:    id,
		Cache: cache.New(g, m.Cfg.L2Size, m.Cfg.L2Ways),
		L1:    cache.NewTagArray(g, m.Cfg.L1Size, m.Cfg.L1Ways),
		proc:  p,
	}
	m.nodes = append(m.nodes, n)
}

// Dispatch runs the lifecycle opcodes and reports whether code was one.
// Attempt continuations whose epoch has moved on are dropped.
func (n *Node) Dispatch(code uint32, a1, a2 uint64) bool {
	switch code {
	case OpStart:
		n.phase, n.txIdx = 0, 0
		n.beginTx()
	case OpBeginTx:
		n.beginTx()
	case OpBarrierRelease:
		n.releaseBarrier()
	case OpStartAttempt:
		if a1 == n.Epoch {
			n.proc.StartAttempt()
		}
	case OpStep:
		if a1 == n.Epoch {
			n.Step()
		}
	case OpAtHome:
		n.M.Kernel.PostAfter(n.M.Cfg.DirLatency, n.proc, uint32(a2), a1, 0)
	default:
		return false
	}
	return true
}

// Idle reports whether the node is outside any transaction: waiting at a
// phase barrier, or finished with the program.
func (n *Node) Idle() bool { return n.idle }

// beginTx loads the phase's next transaction and starts it, or arrives at
// the phase barrier when the phase has none left.
func (n *Node) beginTx() {
	m := n.M
	if n.txIdx >= m.Prog.TxCount(n.ID, n.phase) {
		n.idle = true
		n.idleStart = m.Kernel.Now()
		if m.Obs != nil {
			m.Emit(obs.Event{Kind: obs.KBarrier, Node: n.ID, Peer: -1, Arg: int64(n.phase)})
		}
		m.barrierArrive()
		return
	}
	n.Ops = m.Prog.Tx(n.ID, n.phase, n.txIdx).Ops
	n.Attempts = 0
	n.proc.StartAttempt()
}

// releaseBarrier charges the barrier wait as idle time and moves to the
// next phase, or finishes the node after the last one.
func (n *Node) releaseBarrier() {
	m := n.M
	n.Breakdown.Add(stats.Idle, uint64(m.Kernel.Now()-n.idleStart))
	n.phase++
	n.txIdx = 0
	if n.phase >= m.Prog.Phases() {
		m.running--
		return
	}
	n.idle = false
	n.beginTx()
}

// BeginAttempt resets the attempt bookkeeping: the operation cursor, the
// start time, the pending cycle counts and the read set.
func (n *Node) BeginAttempt() {
	n.OpIdx = 0
	n.TxStart = n.M.Kernel.Now()
	n.PendUseful = 0
	n.PendMiss = 0
	n.ReadSet.Reset()
}

// Step runs the attempt's next operation. Compute is charged here; a load
// or store goes to Proc.Access, and the end of the transaction to
// Proc.Commit.
func (n *Node) Step() {
	if n.OpIdx >= len(n.Ops) {
		n.proc.Commit()
		return
	}
	op := n.Ops[n.OpIdx]
	if op.Kind == workload.Compute {
		n.OpIdx++
		n.PendUseful += uint64(op.Cycles)
		n.After(sim.Time(op.Cycles), OpStep)
		return
	}
	n.proc.Access(op)
}

// After posts an attempt continuation d cycles from now: code with the
// current epoch in a1.
func (n *Node) After(d sim.Time, code uint32) {
	n.M.Kernel.PostAfter(d, n.proc, code, n.Epoch, 0)
}

// Reply sends a message from node from back to this node, delivered as
// code with the current epoch in a1: the epoch is read when the reply is
// sent, so a reply to an attempt that has moved on is dropped on arrival.
func (n *Node) Reply(from, bytes int, class mesh.Class, code uint32, a2 uint64) {
	n.M.Net.SendEvent(from, n.ID, bytes, class, n.proc, code, n.Epoch, a2)
}

// ToHome sends a request to node home. It arrives after the mesh delay and
// runs as code (with a1) DirLatency cycles later, the home's metadata
// access. The request is not tied to the attempt: a home-side step always
// runs.
func (n *Node) ToHome(home, bytes int, class mesh.Class, code uint32, a1 uint64) {
	n.M.Net.SendEvent(n.ID, home, bytes, class, n.proc, OpAtHome, a1, uint64(code))
}

// Hit completes the current access from the node's own caches: L1 or L2
// latency, then the next operation.
func (n *Node) Hit(base mem.Addr) {
	cfg := &n.M.Cfg
	lat := cfg.L2Latency
	if n.L1.Access(base) {
		lat = cfg.L1Latency
	}
	n.PendUseful++
	if lat > 1 {
		n.PendMiss += uint64(lat - 1)
	}
	n.OpIdx++
	n.After(lat, OpStep)
}

// Filled completes the current access after a miss: the miss time is
// charged and the next operation runs one cycle later.
func (n *Node) Filled() {
	n.PendMiss += uint64(n.M.Kernel.Now() - n.MissStart)
	n.PendUseful++
	n.OpIdx++
	n.After(1, OpStep)
}

// Insert places data for base, which is not resident, in the L2. An
// evicted victim is reported (KOverflow) and dropped from the L1 and from
// the version table.
func (n *Node) Insert(base mem.Addr, data []mem.Version) *cache.Line {
	line, victim := n.Cache.Insert(base, data)
	if victim != nil {
		if n.M.Obs != nil {
			n.M.Emit(obs.Event{Kind: obs.KOverflow, Node: n.ID, Peer: -1, Addr: uint64(victim.Base)})
		}
		n.L1.Invalidate(victim.Base)
		n.lineVer.Del(victim.Base)
	}
	return line
}

// CurrentCopy returns the version of the node's cached copy of base and
// whether a copy is resident, for a home to confirm instead of resending
// the data.
func (n *Node) CurrentCopy(base mem.Addr) (mem.Version, bool) {
	e := n.lineVer.Get(base)
	if e == nil {
		return 0, false
	}
	return *e, n.Cache.Peek(base) != nil
}

// setLineVer records that the node's copy of base is current at v.
func (n *Node) setLineVer(base mem.Addr, v mem.Version) {
	e, _ := n.lineVer.Entry(base)
	*e = v
}

// FillVersioned installs line data that arrived from the home at version v
// (KFill) and returns the line.
func (n *Node) FillVersioned(base mem.Addr, data []mem.Version, v mem.Version) *cache.Line {
	line := n.Cache.Peek(base)
	if line == nil {
		line = n.Insert(base, data)
	} else {
		copy(line.Data, data)
	}
	line.VW = bits.All(n.M.Cfg.Geometry.WordsPerLine())
	n.setLineVer(base, v)
	if n.M.Obs != nil {
		n.M.Emit(obs.Event{Kind: obs.KFill, Node: n.ID, Peer: -1, Addr: uint64(base), TID: uint64(v)})
	}
	return line
}

// LogRead records the first-read version of a word (KRead).
func (n *Node) LogRead(a mem.Addr, v mem.Version) {
	if n.ReadSet.Add(a, v) && n.M.Obs != nil {
		n.M.Emit(obs.Event{Kind: obs.KRead, Node: n.ID, Peer: -1, Addr: uint64(a), Arg: int64(v)})
	}
}

// StartRecord begins the commit-log record of the committing transaction at
// version t, or returns nil when the log is off. Machine.AppendRecord
// files it.
func (n *Node) StartRecord(t mem.Version) *verify.Record {
	if !n.M.collectLog {
		return nil
	}
	return &verify.Record{
		TID:    tid.TID(t),
		Proc:   n.ID,
		Reads:  n.ReadSet.Map(),
		Writes: make(map[mem.Addr]mem.Version),
	}
}

// Retire accounts the committed transaction — useful, miss and commit
// cycles, and its instructions — and begins the next one a cycle later.
func (n *Node) Retire(commitCycles uint64) {
	m := n.M
	n.Breakdown.Add(stats.Useful, n.PendUseful)
	n.Breakdown.Add(stats.CacheMiss, n.PendMiss)
	n.Breakdown.Add(stats.Commit, commitCycles)
	m.Commits++
	for _, op := range n.Ops {
		if op.Kind == workload.Compute {
			m.Instr += uint64(op.Cycles)
		} else {
			m.Instr++
		}
	}
	n.Epoch++
	n.txIdx++
	m.Kernel.PostAfter(1, n.proc, OpBeginTx, 0, 0)
}

// Violate counts an aborted attempt — the violation total, a KViolation
// event carrying reason, the attempt's cycles — and moves the epoch on so
// the attempt's in-flight continuations are dropped.
func (n *Node) Violate(reason int64) {
	m := n.M
	m.Violations++
	if m.Obs != nil {
		m.Emit(obs.Event{Kind: obs.KViolation, Node: n.ID, Peer: -1, Arg: reason})
	}
	n.Breakdown.Add(stats.Violation, uint64(m.Kernel.Now()-n.TxStart))
	n.Epoch++
}

// RetryAfterBackoff restarts the aborted transaction after a randomized,
// capped exponential backoff: uniform in [1, min(BackoffBase<<k,
// BackoffMax)] cycles with k = attempts-1 capped at 16. The wait is
// charged as violation time.
func (n *Node) RetryAfterBackoff(rng *sim.RNG) {
	cfg := &n.M.Cfg
	n.Attempts++
	shift := n.Attempts - 1
	if shift > 16 {
		shift = 16
	}
	b := cfg.BackoffBase << uint(shift)
	if b > cfg.BackoffMax {
		b = cfg.BackoffMax
	}
	d := sim.Time(1 + rng.Intn(int(b)))
	n.Breakdown.Add(stats.Violation, uint64(d))
	n.After(d, OpStartAttempt)
}
