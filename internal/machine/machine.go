// Package machine is the substrate the rival machine models are built on:
// the bus-based small-scale TCC baseline, the TL2-style STM and the eager
// HTM. It holds what those models share, so that a comparison between them
// differs only in the protocol:
//
//   - one node configuration and its validation (Config);
//   - the simulation kernel, the memory banks and, for the mesh machines,
//     the interconnect with first-touch homing (Machine);
//   - each processor's program lifecycle: the transaction cursor, the phase
//     barrier, commit and abort accounting, and the retry backoff (Node);
//   - the run loop with its watchdog and deadlock checks, the commit log,
//     and the final-memory audit;
//   - a pooled record slab for event payloads wider than the kernel's two
//     argument words (Slab).
//
// A protocol supplies its processor — a sim.Handler embedding a Node and
// implementing Proc — and its home-side state. Everything it schedules is a
// typed kernel event. Continuations that belong to one transaction attempt
// carry the attempt's epoch in a1, and the handler drops them once the
// attempt has committed or aborted.
package machine

import (
	"fmt"
	"sort"

	"scalabletcc/internal/bits"
	"scalabletcc/internal/mem"
	"scalabletcc/internal/mesh"
	"scalabletcc/internal/obs"
	"scalabletcc/internal/sim"
	"scalabletcc/internal/stats"
	"scalabletcc/internal/verify"
	"scalabletcc/internal/workload"
)

// Machine is the assembled substrate of one run. A protocol's System embeds
// it and adds its own home-side state.
type Machine struct {
	Name   string // protocol name, the prefix of every error
	Cfg    Config
	Kernel *sim.Kernel
	Net    *mesh.Network // nil until UseMesh; bus machines have none
	Prog   workload.Program
	Memory *mem.Memory
	Recs   Slab

	// Obs receives protocol events when non-nil. Callers nil-check it
	// before building an event, so observation that is off stays free.
	Obs obs.Observer

	// Commits, Violations and Instr total every node's committed
	// transactions, aborted attempts and committed instructions.
	Commits    uint64
	Violations uint64
	Instr      uint64

	memmap     *mem.Map
	collectLog bool
	commitLog  []verify.Record
	nodes      []*Node
	arrived    int // nodes waiting at the current phase barrier
	running    int // nodes that have not finished the program
}

// New validates cfg and builds the kernel and memory for prog. The protocol
// then adds its nodes (Node.Init) and, if it runs on the mesh, calls
// UseMesh.
func New(protocol string, cfg Config, prog workload.Program) (*Machine, error) {
	if err := cfg.Validate(protocol); err != nil {
		return nil, err
	}
	if prog.Procs() != cfg.Procs {
		return nil, fmt.Errorf("%s: program built for %d procs, config has %d", protocol, prog.Procs(), cfg.Procs)
	}
	return &Machine{
		Name:   protocol,
		Cfg:    cfg,
		Kernel: &sim.Kernel{},
		Prog:   prog,
		Memory: mem.NewMemory(cfg.Geometry),
	}, nil
}

// UseMesh builds the 2-D mesh and the first-touch home map (with the
// program's initial homing) for a machine whose lines live at home nodes.
func (m *Machine) UseMesh() {
	mc := mesh.DefaultConfig(m.Cfg.Procs)
	mc.HopLatency = m.Cfg.HopLatency
	mc.LinkBytes = m.Cfg.LinkBytesPerCycle
	mc.Torus = m.Cfg.Torus
	m.Net = mesh.New(m.Kernel, m.Cfg.Procs, mc)
	m.memmap = mem.NewMap(m.Cfg.Geometry, m.Cfg.Procs)
	m.Prog.PreMap(m.memmap)
}

// CollectCommitLog enables serializability logging.
func (m *Machine) CollectCommitLog(on bool) { m.collectLog = on }

// Observe attaches a protocol-event observer (nil detaches). Must be called
// before Run; observation is passive.
func (m *Machine) Observe(o obs.Observer) { m.Obs = o }

// Emit stamps the current cycle on e and hands it to the observer. Callers
// nil-check Obs first.
func (m *Machine) Emit(e obs.Event) {
	e.Cycle = uint64(m.Kernel.Now())
	m.Obs.Event(e)
}

// Home returns the line's home node under first-touch mapping.
func (m *Machine) Home(base mem.Addr, toucher int) int {
	return m.memmap.Home(base, toucher)
}

// WriteBack stores version v into the words of memory line base that mask
// selects: a committed write, tagged with its transaction's version.
func (m *Machine) WriteBack(base mem.Addr, mask bits.WordMask, v mem.Version) {
	line := m.Memory.Line(base)
	for w := range line {
		if mask.Has(w) {
			line[w] = v
		}
	}
}

// barrierArrive counts a node in at the phase barrier; the last arrival
// releases every node one cycle later.
func (m *Machine) barrierArrive() {
	m.arrived++
	if m.arrived < len(m.nodes) {
		return
	}
	m.arrived = 0
	for _, n := range m.nodes {
		m.Kernel.PostAfter(1, n.proc, OpBarrierRelease, 0, 0)
	}
}

// Simulate starts every node at cycle 0 and runs the kernel until it
// drains. It fails if the clock passes MaxCycles (the watchdog) or if the
// kernel drains with a node unfinished (a protocol deadlock).
func (m *Machine) Simulate() error {
	m.running = len(m.nodes)
	for _, n := range m.nodes {
		m.Kernel.Post(0, n.proc, OpStart, 0, 0)
	}
	for m.Kernel.Pending() > 0 {
		if m.Cfg.MaxCycles > 0 && m.Kernel.Now() > m.Cfg.MaxCycles {
			return fmt.Errorf("%s: watchdog expired at cycle %d", m.Name, m.Kernel.Now())
		}
		m.Kernel.StepCycle()
	}
	if m.running != 0 {
		return fmt.Errorf("%s: deadlock with %d processors unfinished", m.Name, m.running)
	}
	return nil
}

// Totals is the part of a run's results every machine model reports.
type Totals struct {
	Cycles     sim.Time
	Breakdown  stats.Breakdown
	Commits    uint64
	Violations uint64 // aborted attempts
	Instr      uint64
	CommitLog  []verify.Record
}

// Totals gathers the run's shared results; call after Simulate.
func (m *Machine) Totals() Totals {
	t := Totals{
		Cycles:     m.Kernel.Now(),
		Commits:    m.Commits,
		Violations: m.Violations,
		Instr:      m.Instr,
		CommitLog:  m.commitLog,
	}
	for _, n := range m.nodes {
		t.Breakdown = t.Breakdown.Plus(n.Breakdown)
	}
	return t
}

// Summary returns the machine-independent digest tagged with protocol.
func (t *Totals) Summary(protocol string) stats.Summary {
	return stats.Summary{
		Protocol:     protocol,
		Cycles:       uint64(t.Cycles),
		Instructions: t.Instr,
		Commits:      t.Commits,
		Violations:   t.Violations,
		Breakdown:    t.Breakdown,
	}
}

// AppendRecord adds a committed transaction to the commit log; a nil
// record (logging off, see Node.StartRecord) is ignored.
func (m *Machine) AppendRecord(r *verify.Record) {
	if r != nil {
		m.commitLog = append(m.commitLog, *r)
	}
}

// LogWrites adds the words of line base that mask selects, written at
// version v, to a commit-log record; a nil record (logging off) is left
// alone.
func (m *Machine) LogWrites(r *verify.Record, base mem.Addr, mask bits.WordMask, v mem.Version) {
	if r == nil {
		return
	}
	g := m.Cfg.Geometry
	for w := 0; w < g.WordsPerLine(); w++ {
		if mask.Has(w) {
			r.Writes[g.WordAddr(base, w)] = v
		}
	}
}

// AuditFinalMemory cross-checks memory against the TID-serial replay of the
// commit log: every word the replay says was written must hold that version
// in the memory banks. The rival models all commit write-through, so no
// committed state may linger in caches. Requires CollectCommitLog.
func (m *Machine) AuditFinalMemory() error {
	if !m.collectLog {
		return fmt.Errorf("%s: AuditFinalMemory requires CollectCommitLog", m.Name)
	}
	ideal := verify.FinalMemory(m.commitLog)
	addrs := make([]mem.Addr, 0, len(ideal))
	for a := range ideal {
		addrs = append(addrs, a)
	}
	sort.Slice(addrs, func(i, j int) bool { return addrs[i] < addrs[j] })
	g := m.Cfg.Geometry
	for _, a := range addrs {
		got := m.Memory.Line(g.Line(a))[g.WordIndex(a)]
		if got != ideal[a] {
			return fmt.Errorf("%s: final memory mismatch at %#x: memory has version %d, replay requires %d",
				m.Name, uint64(a), uint64(got), uint64(ideal[a]))
		}
	}
	return nil
}
