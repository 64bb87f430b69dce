package machine

import (
	"fmt"

	"scalabletcc/internal/mem"
	"scalabletcc/internal/sim"
)

// Config is the node configuration every machine model is built on: the
// processor count, the private cache hierarchy, the interconnect, the
// home-side latencies, and the retry backoff. DefaultConfig reproduces the
// paper's Table 2 node, so models differ only in their protocol. A model
// ignores the knobs it has no analog for (the bus baseline has no mesh and
// no backoff), but Validate checks them all.
type Config struct {
	Procs    int
	Geometry mem.Geometry

	L1Size, L1Ways int
	L1Latency      sim.Time
	L2Size, L2Ways int
	L2Latency      sim.Time

	// HopLatency, LinkBytesPerCycle and Torus shape the 2-D mesh.
	HopLatency        sim.Time
	LinkBytesPerCycle int
	Torus             bool

	// DirLatency is the metadata access latency at a line's home;
	// MemLatency is charged when a reply must carry line data.
	DirLatency sim.Time
	MemLatency sim.Time

	// BackoffBase/BackoffMax bound the randomized exponential backoff an
	// aborted transaction waits before retrying.
	BackoffBase sim.Time
	BackoffMax  sim.Time

	Seed      uint64
	MaxCycles sim.Time
}

// DefaultConfig returns the Table 2 node for procs processors.
func DefaultConfig(procs int) Config {
	return Config{
		Procs:             procs,
		Geometry:          mem.DefaultGeometry(),
		L1Size:            32 << 10,
		L1Ways:            4,
		L1Latency:         1,
		L2Size:            512 << 10,
		L2Ways:            8,
		L2Latency:         6,
		HopLatency:        3,
		LinkBytesPerCycle: 8,
		DirLatency:        10,
		MemLatency:        100,
		BackoffBase:       16,
		BackoffMax:        4096,
		Seed:              1,
	}
}

// Validate checks the configuration, naming the protocol and the offending
// field in every error ("tl2: Config.L2Ways must be positive, got 0"). It
// rejects every shape the caches and the mesh would otherwise panic on.
// Latencies are unsigned cycle counts; one that reads as negative as an
// int64 came from a negative setting and is rejected as such.
func (c Config) Validate(protocol string) error {
	if c.Procs <= 0 {
		return fmt.Errorf("%s: Config.Procs must be positive, got %d", protocol, c.Procs)
	}
	if err := c.Geometry.Validate(); err != nil {
		return err
	}
	if err := checkCache(protocol, "L1", c.L1Size, c.L1Ways, c.Geometry.LineSize); err != nil {
		return err
	}
	if err := checkCache(protocol, "L2", c.L2Size, c.L2Ways, c.Geometry.LineSize); err != nil {
		return err
	}
	for _, f := range []struct {
		name string
		v    sim.Time
	}{{"HopLatency", c.HopLatency}, {"MemLatency", c.MemLatency}, {"DirLatency", c.DirLatency}} {
		if int64(f.v) < 0 {
			return fmt.Errorf("%s: Config.%s must be non-negative, got %d", protocol, f.name, int64(f.v))
		}
	}
	if c.LinkBytesPerCycle <= 0 {
		return fmt.Errorf("%s: Config.LinkBytesPerCycle must be positive, got %d", protocol, c.LinkBytesPerCycle)
	}
	if c.BackoffBase == 0 {
		return fmt.Errorf("%s: Config.BackoffBase must be positive, got 0", protocol)
	}
	if c.BackoffMax < c.BackoffBase {
		return fmt.Errorf("%s: Config.BackoffMax must be at least BackoffBase, got %d < %d",
			protocol, c.BackoffMax, c.BackoffBase)
	}
	return nil
}

// checkCache rejects a cache shape the cache model cannot build: the size
// must hold a positive whole number of ways-way sets, and the set count
// must be a power of two.
func checkCache(protocol, level string, size, ways, line int) error {
	if ways <= 0 {
		return fmt.Errorf("%s: Config.%sWays must be positive, got %d", protocol, level, ways)
	}
	lines := size / line
	if lines <= 0 {
		return fmt.Errorf("%s: Config.%sSize must hold at least one %d-byte line, got %d",
			protocol, level, line, size)
	}
	if sets := lines / ways; lines%ways != 0 || sets&(sets-1) != 0 {
		return fmt.Errorf("%s: Config.%sSize %d does not divide into a power-of-two number of %d-way sets",
			protocol, level, size, ways)
	}
	return nil
}
