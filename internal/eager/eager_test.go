package eager

import (
	"fmt"
	"math/rand"
	"testing"

	"scalabletcc/internal/machine"
	"scalabletcc/internal/verify"
	"scalabletcc/internal/workload"
)

// runProfile runs a (possibly scaled) profile on procs processors and checks
// the serializability and final-memory oracles.
func runProfile(t *testing.T, prof workload.Profile, procs int, mutate func(*machine.Config)) *Results {
	t.Helper()
	cfg := machine.DefaultConfig(procs)
	cfg.MaxCycles = 2_000_000_000
	if mutate != nil {
		mutate(&cfg)
	}
	prog := prof.Build(procs, cfg.Seed)
	sys, err := NewSystem(cfg, prog)
	if err != nil {
		t.Fatalf("NewSystem: %v", err)
	}
	sys.CollectCommitLog(true)
	res, err := sys.Run()
	if err != nil {
		t.Fatalf("Run(%s, %d procs): %v", prof.Name, procs, err)
	}
	if n := sys.Recs.Live(); n != 0 {
		t.Fatalf("%s on %d procs: %d payload records never freed", prof.Name, procs, n)
	}
	if viols := verify.Check(res.CommitLog); len(viols) != 0 {
		t.Fatalf("%s on %d procs: %d serializability violations (first %v)",
			prof.Name, procs, len(viols), viols[0])
	}
	if err := sys.AuditFinalMemory(); err != nil {
		t.Fatalf("%s on %d procs: %v", prof.Name, procs, err)
	}
	return res
}

func TestSmokeSingleProc(t *testing.T) {
	res := runProfile(t, workload.Equake().Scale(0.05), 1, nil)
	if res.Commits == 0 {
		t.Fatal("no commits")
	}
	if res.Violations != 0 {
		t.Fatalf("violations on a single processor: %d", res.Violations)
	}
}

func TestSerializabilitySweep(t *testing.T) {
	profiles := []workload.Profile{
		workload.Hotspot().Scale(0.25),
		workload.FalseSharing().Scale(0.25),
		workload.Equake().Scale(0.03),
	}
	for _, prof := range profiles {
		for _, procs := range []int{2, 5, 8} {
			for seed := uint64(1); seed <= 3; seed++ {
				s := seed
				runProfile(t, prof, procs, func(c *machine.Config) { c.Seed = s })
			}
		}
	}
}

// TestEveryTransactionCommits: requester-loses plus bounded randomized
// backoff must preserve forward progress on an all-conflict workload.
func TestEveryTransactionCommits(t *testing.T) {
	prof := workload.Hotspot().Scale(0.5)
	for _, procs := range []int{4, 12} {
		prog := prof.Build(procs, 2)
		want := 0
		for pr := 0; pr < procs; pr++ {
			for ph := 0; ph < prog.Phases(); ph++ {
				want += prog.TxCount(pr, ph)
			}
		}
		res := runProfile(t, prof, procs, func(c *machine.Config) { c.Seed = 2 })
		if res.Commits != uint64(want) {
			t.Fatalf("procs=%d: %d commits, want %d", procs, res.Commits, want)
		}
	}
}

// TestNackAccounting: every abort is caused by exactly one NACKed request,
// so the split counters must sum to the violation count.
func TestNackAccounting(t *testing.T) {
	res := runProfile(t, workload.Hotspot().Scale(0.25), 8, nil)
	if res.NacksRead+res.NacksWrite != res.Violations {
		t.Fatalf("NACKs %d+%d do not account for %d violations",
			res.NacksRead, res.NacksWrite, res.Violations)
	}
}

// TestDeterminism: identical configuration and seed must give bit-identical
// results; a different seed must not.
func TestDeterminism(t *testing.T) {
	run := func(seed uint64) *Results {
		return runProfile(t, workload.Hotspot().Scale(0.25), 8, func(c *machine.Config) { c.Seed = seed })
	}
	a, b, c := run(3), run(3), run(4)
	if a.Cycles != b.Cycles || a.Commits != b.Commits || a.Violations != b.Violations ||
		a.Traffic.TotalBytes() != b.Traffic.TotalBytes() {
		t.Fatalf("same seed diverged: %+v vs %+v", a, b)
	}
	if a.Cycles == c.Cycles && a.Traffic.TotalBytes() == c.Traffic.TotalBytes() {
		t.Fatal("different seeds produced identical runs (suspicious)")
	}
}

// TestSmallCachePressure: conflict tracking lives in the directory, so an
// eviction must only force a refetch — never an abort. On one processor no
// conflicts exist, so violations stay zero even with a tiny cache.
func TestSmallCachePressure(t *testing.T) {
	res := runProfile(t, workload.Barnes().Scale(0.05), 1, func(c *machine.Config) {
		c.L2Size = 4 << 10
		c.L1Size = 1 << 10
	})
	if res.Commits == 0 {
		t.Fatal("no commits")
	}
	if res.Violations != 0 {
		t.Fatalf("evictions caused %d aborts; directory tracking must survive eviction", res.Violations)
	}
}

func TestConfigValidation(t *testing.T) {
	if err := machine.DefaultConfig(8).Validate("eager"); err != nil {
		t.Fatalf("default config invalid: %v", err)
	}
	bad := []func(*machine.Config){
		func(c *machine.Config) { c.Procs = 0 },
		func(c *machine.Config) { c.BackoffBase = 0 },
		func(c *machine.Config) { c.BackoffMax = c.BackoffBase - 1 },
		func(c *machine.Config) { c.Geometry.LineSize = 48 },
	}
	for i, mutate := range bad {
		cfg := machine.DefaultConfig(8)
		mutate(&cfg)
		if cfg.Validate("eager") == nil {
			t.Errorf("case %d validated", i)
		}
	}
}

func TestSystemRejectsProcMismatch(t *testing.T) {
	prog := workload.Barnes().Build(4, 1)
	if _, err := NewSystem(machine.DefaultConfig(8), prog); err == nil {
		t.Fatal("proc-count mismatch accepted")
	}
}

func TestWatchdog(t *testing.T) {
	cfg := machine.DefaultConfig(2)
	cfg.MaxCycles = 100
	sys, err := NewSystem(cfg, workload.Equake().Scale(0.01).Build(2, 1))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sys.Run(); err == nil {
		t.Fatal("watchdog did not fire")
	}
}

// TestReaderRegistration drives one line's registrations through scripted
// and random register/unregister sequences, including a reader registering
// twice, and checks readersOtherThan against a map-backed set after every
// step.
func TestReaderRegistration(t *testing.T) {
	d := &lineDir{writer: -1}
	ref := map[int]bool{}
	check := func(step string) {
		t.Helper()
		for id := 0; id < 130; id++ {
			want := len(ref) > 1 || (len(ref) == 1 && !ref[id])
			if got := d.readersOtherThan(id); got != want {
				t.Fatalf("%s: readersOtherThan(%d) = %v, want %v (readers %v)", step, id, got, want, ref)
			}
		}
		if d.nreaders != len(ref) || d.readers.Count() != len(ref) {
			t.Fatalf("%s: %d readers counted, %d in the set, want %d", step, d.nreaders, d.readers.Count(), len(ref))
		}
	}
	add := func(id int) {
		d.addReader(id)
		ref[id] = true
	}
	drop := func(id int) {
		d.unregister(id)
		delete(ref, id)
	}

	check("empty")
	add(3)
	check("one reader")
	add(3)
	check("same reader twice")
	drop(3)
	check("the twice-registered reader dropped once")
	drop(3)
	check("dropped again")
	add(3)
	add(70)
	add(3)
	check("two readers, one twice")
	drop(70)
	check("back to one")
	drop(5)
	check("dropping a non-reader")

	d.writer = 9
	d.unregister(3)
	delete(ref, 3)
	if d.writer != 9 {
		t.Fatalf("unregister of a reader released writer %d", d.writer)
	}
	d.unregister(9)
	if d.writer != -1 {
		t.Fatalf("unregister of the writer left writer %d", d.writer)
	}
	check("writer released")

	// A few ids, across NodeSet words, keep the set small enough to pass
	// through zero and one reader often.
	ids := []int{0, 1, 63, 64, 129}
	rng := rand.New(rand.NewSource(1))
	for step := 0; step < 20000; step++ {
		id := ids[rng.Intn(len(ids))]
		if rng.Intn(2) == 0 {
			add(id)
		} else {
			drop(id)
		}
		check(fmt.Sprintf("random step %d", step))
	}
}
