// Package baseline implements the original small-scale TCC design the paper
// scales past: OCC "condition 2" with a single global commit token and an
// ordered broadcast bus (Hammond et al.'s TCC). Execution overlaps, but only
// one transaction commits at a time, and every commit broadcasts its
// write-set (addresses and data, write-through) to all processors, which
// snoop it against their speculatively-read state.
//
// The paper's motivation — "the sum of all commit times places a lower
// bound on execution time" and "write-through commits with broadcast
// messages will cause excessive traffic" — is exactly what this model
// exposes; the A1 ablation compares it with the scalable design on the same
// workloads.
package baseline

import (
	"fmt"

	"scalabletcc/internal/machine"
	"scalabletcc/internal/mem"
	"scalabletcc/internal/sim"
	"scalabletcc/internal/stats"
	"scalabletcc/internal/workload"
)

// Config parameterizes the bus-based machine: the shared node (whose cache
// hierarchy matches the scalable design, so only the commit architecture
// differs) plus the ordered bus that replaces the mesh.
type Config struct {
	machine.Config

	BusBytesPerCycle int      // ordered bus bandwidth
	BusArbitration   sim.Time // cycles to win the bus for one message

	LineGranularity      bool
	ViolationRestartCost sim.Time
}

// DefaultConfig mirrors core.DefaultConfig's node parameters with a shared
// bus in place of the mesh.
func DefaultConfig(procs int) Config {
	return Config{
		Config:               machine.DefaultConfig(procs),
		BusBytesPerCycle:     16,
		BusArbitration:       3,
		ViolationRestartCost: 5,
	}
}

// Validate checks the configuration.
func (c Config) Validate() error {
	if err := c.Config.Validate("baseline"); err != nil {
		return err
	}
	if c.BusBytesPerCycle <= 0 {
		return fmt.Errorf("baseline: Config.BusBytesPerCycle must be positive, got %d", c.BusBytesPerCycle)
	}
	return nil
}

// Results mirrors the scalable system's result shape where meaningful.
type Results struct {
	machine.Totals
	BusBytes uint64
	BusBusy  sim.Time // cycles the bus was occupied
}

// Summary returns the machine-independent digest shared with the scalable
// design (the tcc.Summarizer interface).
func (r *Results) Summary() stats.Summary { return r.Totals.Summary("baseline") }

// System is the assembled bus-based TCC machine.
type System struct {
	*machine.Machine
	cfg   Config // the bus knobs; the node's are Machine.Cfg
	procs []*proc

	// Ordered bus: one shared medium with FIFO occupancy.
	busFree  sim.Time
	busBusy  sim.Time
	busBytes uint64

	// Commit token: FIFO arbiter.
	tokenHeld  bool
	tokenQueue []*proc

	commitSeq mem.Version // commit order stands in for TIDs
}

// NewSystem builds a baseline machine for prog.
func NewSystem(cfg Config, prog workload.Program) (*System, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	m, err := machine.New("baseline", cfg.Config, prog)
	if err != nil {
		return nil, err
	}
	s := &System{Machine: m, cfg: cfg}
	for i := 0; i < cfg.Procs; i++ {
		s.procs = append(s.procs, newProc(s, i))
	}
	return s, nil
}

// busSend posts code (with a1) to p once the ordered bus has carried a
// message of the given size, modeling arbitration plus serialization.
func (s *System) busSend(p *proc, bytes int, code uint32, a1 uint64) {
	occupancy := sim.Time((bytes+s.cfg.BusBytesPerCycle-1)/s.cfg.BusBytesPerCycle) + s.cfg.BusArbitration
	start := s.Kernel.Now()
	if s.busFree > start {
		start = s.busFree
	}
	s.busFree = start + occupancy
	s.busBusy += occupancy
	s.busBytes += uint64(bytes)
	s.Kernel.Post(start+occupancy, p, code, a1, 0)
}

// acquireToken queues p for the global commit token.
func (s *System) acquireToken(p *proc) {
	if !s.tokenHeld {
		s.tokenHeld = true
		s.Kernel.PostAfter(s.cfg.BusArbitration, p, opToken, 0, 0)
		return
	}
	s.tokenQueue = append(s.tokenQueue, p)
}

// releaseToken passes the token to the next waiter.
func (s *System) releaseToken() {
	if len(s.tokenQueue) == 0 {
		s.tokenHeld = false
		return
	}
	next := s.tokenQueue[0]
	s.tokenQueue = s.tokenQueue[1:]
	s.Kernel.PostAfter(s.cfg.BusArbitration, next, opToken, 0, 0)
}

// Run executes the program to completion.
func (s *System) Run() (*Results, error) {
	if err := s.Simulate(); err != nil {
		return nil, err
	}
	return &Results{Totals: s.Totals(), BusBytes: s.busBytes, BusBusy: s.busBusy}, nil
}
