package main

import (
	"fmt"
	"runtime"
	"time"

	"scalabletcc/internal/stats"
	"scalabletcc/tcc"
)

// simWorkload runs one program under one or more protocols, in turn, as a
// single timed operation. Each protocol run is a "leg".
type simWorkload struct {
	app       string
	procs     int
	scale     float64
	protocols []string
	// epochProbe adds the epoch-parallel engine comparison to traced runs.
	epochProbe bool
}

// leg is one protocol's machine and the reference its timed runs must match.
type leg struct {
	protocol string
	cfg      tcc.Config
	prog     tcc.Program
	ref      tcc.Summary // from the untimed oracle pass
}

// legRun is one timed simulation.
type legRun struct {
	start, built, end time.Time // NewSystemFor called, returned; Run returned
	scale             float64   // raw to reference seconds (see calib.go)
	allocs, bytes     uint64
	res               *tcc.ProtocolResults
}

// buildS and runS are the leg's construction and run times in reference
// seconds.
func (r legRun) buildS() float64 { return r.built.Sub(r.start).Seconds() * r.scale }
func (r legRun) runS() float64   { return r.end.Sub(r.built).Seconds() * r.scale }

// setupReps is how many times set-up is repeated; setup_s is the median.
const setupReps = 15

func (w simWorkload) run(b *bench) error {
	seed := b.inputSeed()
	prof, err := tcc.ProfileByNameErr(w.app)
	if err != nil {
		return err
	}
	prof = prof.Scale(w.scale)

	// Set-up: generate the program and build each protocol's machine.
	var legs []*leg
	var setups []float64
	ref0 := b.sampleRef()
	for rep := 0; rep < setupReps; rep++ {
		runtime.GC()
		t0 := time.Now()
		prog := prof.Build(w.procs, seed)
		legs = legs[:0]
		for _, p := range w.protocols {
			cfg := tcc.DefaultConfig(w.procs)
			cfg.Seed = seed
			if _, err := tcc.NewSystemFor(p, cfg, prog); err != nil {
				return fmt.Errorf("build %s system: %w", p, err)
			}
			legs = append(legs, &leg{protocol: p, cfg: cfg, prog: prog})
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	b.e2e("setup_s", median(setups)*speedScale(ref0, b.sampleRef()))

	// The untimed oracle pass fixes each leg's reference summary; it also
	// warms the heap before timing starts.
	for _, l := range legs {
		b.checkLeg(l)
	}
	if b.failed > 0 {
		return nil
	}

	if !b.trace {
		ops := w.measure(b, legs, b.seconds, nil)
		w.report(b, legs, ops)
		return nil
	}
	// Traced run: the first half untraced, the second half under the CPU
	// profiler and the span recorder; the difference is tracing overhead.
	plain := w.measure(b, legs, b.seconds/2, nil)
	rec := newSpanRecorder()
	var traced [][]legRun
	prof2, err := b.profile(func() { traced = w.measure(b, legs, b.seconds/2, rec) })
	if err != nil {
		return err
	}
	if err := b.writeSpans(rec); err != nil {
		return err
	}
	w.report(b, legs, plain)
	w.layers(b, legs, plain, traced, prof2)
	if w.epochProbe {
		w.probeEpoch(b, legs[0], plain)
	}
	return nil
}

// checkLeg runs one leg with the commit log on and applies every oracle:
// serializability, the final-memory audit, every transaction committing,
// and, at the default seed, the pinned summary.
func (b *bench) checkLeg(l *leg) {
	b.attempted++
	cfg := l.cfg
	cfg.CollectCommitLog = true
	sys, err := tcc.NewSystemFor(l.protocol, cfg, l.prog)
	if err != nil {
		b.fail("%s: build: %v", l.protocol, err)
		return
	}
	res, err := sys.Run()
	if err != nil {
		b.fail("%s: run: %v", l.protocol, err)
		return
	}
	if v := res.Verify(); len(v) > 0 {
		b.fail("%s: %d serializability violations, first: %v", l.protocol, len(v), v[0])
	}
	if err := sys.AuditFinalMemory(); err != nil {
		b.fail("%s: final-memory audit: %v", l.protocol, err)
	}
	if want := programTxs(l.prog); res.Summary.Commits != want {
		b.fail("%s: %d of %d transactions committed", l.protocol, res.Summary.Commits, want)
	}
	l.ref = res.Summary
	b.checkPinned(l.protocol, res.Summary)
}

// programTxs counts the transactions a program holds.
func programTxs(p tcc.Program) uint64 {
	var n uint64
	for proc := 0; proc < p.Procs(); proc++ {
		for ph := 0; ph < p.Phases(); ph++ {
			n += uint64(p.TxCount(proc, ph))
		}
	}
	return n
}

// measure runs operations (every leg in turn) until seconds have passed and
// checks each result against its leg's reference. Between operations, and
// outside the timed region, a collection resets the heap and the reference
// loop samples the host's speed; an operation's times are scaled by the
// samples on either side of it.
func (w simWorkload) measure(b *bench, legs []*leg, seconds float64, rec *spanRecorder) [][]legRun {
	var ops [][]legRun
	runtime.GC()
	ref := b.sampleRef()
	deadline := time.Now().Add(time.Duration(seconds * float64(time.Second)))
	for len(ops) == 0 || time.Now().Before(deadline) {
		op := make([]legRun, 0, len(legs))
		for _, l := range legs {
			b.attempted++
			var m0, m1 runtime.MemStats
			runtime.ReadMemStats(&m0)
			t0 := time.Now()
			sys, err := tcc.NewSystemFor(l.protocol, l.cfg, l.prog)
			if err != nil {
				b.fail("%s: build: %v", l.protocol, err)
				return ops
			}
			t1 := time.Now()
			res, err := sys.Run()
			t2 := time.Now()
			runtime.ReadMemStats(&m1)
			if err != nil {
				b.fail("%s: run: %v", l.protocol, err)
				return ops
			}
			if res.Summary != l.ref {
				b.fail("%s: summary %+v differs from the oracle pass %+v", l.protocol, res.Summary, l.ref)
			}
			op = append(op, legRun{
				start: t0, built: t1, end: t2,
				allocs: m1.Mallocs - m0.Mallocs, bytes: m1.TotalAlloc - m0.TotalAlloc,
				res: res,
			})
		}
		runtime.GC()
		next := b.sampleRef()
		for i := range op {
			op[i].scale = speedScale(ref, next)
		}
		ref = next
		if rec != nil {
			root := rec.add(0, "op", op[0].start, op[len(op)-1].end)
			for i, r := range op {
				rec.add(root, "tcc.NewSystemFor "+legs[i].protocol, r.start, r.built)
				rec.add(root, "ProtocolSystem.Run "+legs[i].protocol, r.built, r.end)
			}
		}
		ops = append(ops, op)
	}
	return ops
}

// report emits the end-to-end metrics of the untraced operations.
func (w simWorkload) report(b *bench, legs []*leg, ops [][]legRun) {
	var cyclesPerS, runPerOp, latMS []float64
	var allocs, bytes uint64
	var busy float64
	for _, op := range ops {
		var cycles, runS float64
		for _, r := range op {
			cycles += float64(r.res.Summary.Cycles)
			runS += r.runS()
			latMS = append(latMS, (r.buildS()+r.runS())*1e3)
			busy += r.buildS() + r.runS()
			allocs += r.allocs
			bytes += r.bytes
		}
		cyclesPerS = append(cyclesPerS, cycles/runS)
		runPerOp = append(runPerOp, runS/float64(len(op)))
	}
	runs := float64(len(latMS))
	b.e2e("sim_cycles_per_s", median(cyclesPerS))
	b.e2e("run_s_p50", median(runPerOp))
	b.e2e("jobs_per_s", runs/busy)
	b.e2e("job_latency_ms_p50", median(latMS))
	b.e2e("job_latency_ms_p90", quantile(latMS, 0.9))
	b.e2e("allocs_per_run", float64(allocs)/runs)
	b.e2e("alloc_mb_per_run", float64(bytes)/runs/1e6)
	b.e2e("peak_heap_mb", b.peakHeap(legs)/1e6)
	b.note("%d operations of %d simulation(s) each (%d latency samples)", len(ops), len(legs), len(latMS))
	for _, l := range legs {
		b.note("summary %s: cycles=%d instructions=%d commits=%d violations=%d",
			l.protocol, l.ref.Cycles, l.ref.Instructions, l.ref.Commits, l.ref.Violations)
	}
}

// peakHeap runs every leg once more, untimed, and returns the largest live
// heap of a finished machine — its caches, directories and memory image at
// their fullest — measured after a collection while the machine is still
// reachable. A separate pass keeps these collections out of the timed
// operations and out of the traced run's profile.
func (b *bench) peakHeap(legs []*leg) float64 {
	var peak uint64
	for _, l := range legs {
		b.attempted++
		runtime.GC()
		sys, err := tcc.NewSystemFor(l.protocol, l.cfg, l.prog)
		if err != nil {
			b.fail("%s: build: %v", l.protocol, err)
			continue
		}
		res, err := sys.Run()
		if err != nil {
			b.fail("%s: run: %v", l.protocol, err)
			continue
		}
		if res.Summary != l.ref {
			b.fail("%s: summary %+v differs from the oracle pass %+v", l.protocol, res.Summary, l.ref)
		}
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		runtime.KeepAlive(sys)
		peak = max(peak, ms.HeapAlloc)
	}
	return float64(peak)
}

// opSeconds is an operation's host time: every leg's build and run.
func opSeconds(op []legRun) float64 {
	var t float64
	for _, r := range op {
		t += r.buildS() + r.runS()
	}
	return t
}

// layers emits the per-layer metrics: host time per layer from the traced
// operations' profile, and the program's own counters for one operation
// (every operation's results are identical, which measure checked).
func (w simWorkload) layers(b *bench, legs []*leg, plain, traced [][]legRun, lp *layerProfile) {
	nops := float64(len(traced))
	var plainT, tracedT, scales []float64
	for _, op := range plain {
		plainT = append(plainT, opSeconds(op))
	}
	for _, op := range traced {
		tracedT = append(tracedT, opSeconds(op))
		scales = append(scales, op[0].scale)
	}
	scale := median(scales)
	b.layerTimes(lp, nops, scale)
	over := median(tracedT) - median(plainT)
	b.layer("trace.overhead_ms", over*1e3)
	b.layer("trace.overhead_share", ratio(over, median(plainT)))

	var cycles, msgs, hops, accesses, misses, dirMsgs float64
	var commits, violations, violCycles, allCycles float64
	for _, r := range traced[0] {
		s := r.res.Summary
		cycles += float64(s.Cycles)
		switch {
		case r.res.Scalable != nil:
			x := r.res.Scalable
			msgs += sumU64(x.Traffic.MsgsByClass[:])
			hops += float64(x.Traffic.TotalHops)
			accesses += float64(x.CacheStats.Hits + x.CacheStats.Misses)
			misses += float64(x.CacheStats.Misses)
			dirMsgs += sumU64(x.MsgCounts[:])
			commits += float64(s.Commits)
			violations += float64(s.Violations)
			violCycles += float64(s.Breakdown[stats.Violation])
			allCycles += float64(s.Breakdown.Total())
		case r.res.TL2 != nil:
			msgs += sumU64(r.res.TL2.Traffic.MsgsByClass[:])
			hops += float64(r.res.TL2.Traffic.TotalHops)
		case r.res.Eager != nil:
			msgs += sumU64(r.res.Eager.Traffic.MsgsByClass[:])
			hops += float64(r.res.Eager.Traffic.TotalHops)
		}
	}
	self := func(layer string) float64 { return float64(lp.selfNS[layer]) / nops * scale }
	b.layer("sim.ns_per_cycle", ratio(self("sim"), cycles))
	b.layer("mesh.msgs", msgs)
	b.layer("mesh.hops", hops)
	b.layer("mesh.ns_per_hop", ratio(self("mesh"), hops))
	b.layer("cache.accesses", accesses)
	b.layer("cache.misses", misses)
	b.layer("cache.ns_per_access", ratio(self("cache"), accesses))
	b.layer("core.dir.msgs", dirMsgs)
	b.layer("core.dir.ns_per_msg", ratio(self("core.dir"), dirMsgs))
	b.layer("core.commits", commits)
	b.layer("core.violations", violations)
	b.layer("core.commit_ratio", ratio(commits, commits+violations))
	b.layer("core.violation_cycle_share", ratio(violCycles, allCycles))

	for i, l := range legs {
		if l.protocol == "tcc" {
			continue
		}
		var runS, allocs []float64
		for _, op := range plain {
			runS = append(runS, op[i].runS())
			allocs = append(allocs, float64(op[i].allocs))
		}
		s := l.ref
		b.layer(l.protocol+".run_s", median(runS))
		b.layer(l.protocol+".allocs_per_run", median(allocs))
		b.layer(l.protocol+".commit_ratio", ratio(float64(s.Commits), float64(s.Commits+s.Violations)))
	}
}

func sumU64(xs []uint64) float64 {
	var t uint64
	for _, x := range xs {
		t += x
	}
	return float64(t)
}

// probeEpoch runs the leg once more on the epoch-parallel engine with one
// worker and with one worker per CPU, checks that both give the same
// summary (the engine's results must not depend on its worker count), and
// reports the parallel run's wall time over the sequential engine's.
func (w simWorkload) probeEpoch(b *bench, l *leg, plain [][]legRun) {
	workers := runtime.NumCPU()
	for w.procs%workers != 0 {
		workers--
	}
	var sums []tcc.Summary
	var wall float64
	for _, shards := range []int{1, workers} {
		b.attempted++
		cfg := l.cfg
		cfg.Shards = shards
		runtime.GC()
		sys, err := tcc.NewSystemFor(l.protocol, cfg, l.prog)
		if err != nil {
			b.fail("epoch engine, %d shards: build: %v", shards, err)
			return
		}
		ref := b.sampleRef()
		t0 := time.Now()
		res, err := sys.Run()
		wall = time.Since(t0).Seconds()
		wall *= speedScale(ref, b.sampleRef())
		if err != nil {
			b.fail("epoch engine, %d shards: run: %v", shards, err)
			return
		}
		if want := programTxs(l.prog); res.Summary.Commits != want {
			b.fail("epoch engine, %d shards: %d of %d transactions committed", shards, res.Summary.Commits, want)
		}
		sums = append(sums, res.Summary)
	}
	if sums[0] != sums[1] {
		b.fail("epoch engine: Shards=1 gives %+v, Shards=%d gives %+v", sums[0], workers, sums[1])
	}
	var seq []float64
	for _, op := range plain {
		seq = append(seq, op[0].runS())
	}
	b.layer("sim.epoch_wall_ratio", wall/median(seq))
	b.layer("sim.epoch_workers", float64(workers))
}
