// Command perfbench is the repository's benchmark. It measures the simulator
// from outside, the way its two kinds of user meet it: single simulation
// runs through the public tcc API (tcc.NewSystemFor, ProtocolSystem.Run),
// and run jobs submitted to the tccd job service over its HTTP API.
//
// Usage (from the repository root):
//
//	bash perfbench/run.sh --workload barnes-16p --seed 1 --seconds 20 --trace 0
//
// --workload is one of the names below, or "all" to run every workload in
// one process. --seed generates the workload's inputs (programs and job
// seeds); the simulator receives only the generated inputs. With --trace 0
// the benchmark prints the end-to-end metrics; with --trace 1 it runs half
// the time untraced and half under a CPU profile and a client-side span
// recorder, and prints the per-layer metrics. Every operation's output is
// checked outside the timed region; a failed check makes the result
// incorrect and the exit code 1. The last line of standard output is one
// JSON object: {"correct", "attempted", "failed", "metrics"}.
//
// Profiles and spans of traced runs are written to .bench_build/trace/.
package main

import (
	"bytes"
	_ "embed"
	"encoding/json"
	"flag"
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strings"

	"scalabletcc/tcc"
)

// workload is one named traffic shape.
type workload struct {
	name string
	run  func(*bench) error
}

// The workloads. Why each one exists is recorded in BENCHMARK.json.
var workloads = []workload{
	{"barnes-16p", simWorkload{app: "barnes", procs: 16, scale: 2, protocols: []string{"tcc"}}.run},
	{"hotspot-256p", simWorkload{app: "hotspot", procs: 256, scale: 0.25, protocols: []string{"tcc"}, epochProbe: true}.run},
	{"rivals-barnes-16p", simWorkload{app: "barnes", procs: 16, scale: 0.5, protocols: []string{"baseline", "tl2", "eager"}}.run},
	{"service-small-jobs", serviceWorkload{
		clients: 2, workers: 2, procs: 8, scale: 0.05,
		apps:         []string{"hotspot", "barnes", "equake", "SPECjbb2000"},
		protocols:    []string{"tcc", "tcc", "tl2", "eager"},
		seedsPerSlot: 2,
	}.run},
}

// metricDef is one reported metric's name and unit.
type metricDef struct{ name, unit string }

// endToEnd lists the metrics a --trace 0 run reports, in order.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"sim_cycles_per_s", "cycles/s"},
	{"run_s_p50", "s"},
	{"jobs_per_s", "1/s"},
	{"job_latency_ms_p50", "ms"},
	{"job_latency_ms_p90", "ms"},
	{"allocs_per_run", "count"},
	{"alloc_mb_per_run", "MB"},
	{"peak_heap_mb", "MB"},
}

// perLayer lists the metrics a --trace 1 run reports. A metric that does
// not apply to a workload (the rivals' run times on a TCC workload, say)
// reads 0 there.
var perLayer = func() []metricDef {
	var defs []metricDef
	for _, l := range layerNames {
		defs = append(defs, metricDef{l + ".self_s", "s"}, metricDef{l + ".share", "fraction"})
	}
	defs = append(defs,
		metricDef{"runtime.alloc_share", "fraction"},
		metricDef{"sim.ns_per_cycle", "ns"},
		metricDef{"sim.epoch_wall_ratio", "ratio"},
		metricDef{"sim.epoch_workers", "count"},
		metricDef{"mesh.msgs", "count"},
		metricDef{"mesh.hops", "count"},
		metricDef{"mesh.ns_per_hop", "ns"},
		metricDef{"cache.accesses", "count"},
		metricDef{"cache.misses", "count"},
		metricDef{"cache.ns_per_access", "ns"},
		metricDef{"core.dir.msgs", "count"},
		metricDef{"core.dir.ns_per_msg", "ns"},
		metricDef{"core.commits", "count"},
		metricDef{"core.violations", "count"},
		metricDef{"core.commit_ratio", "fraction"},
		metricDef{"core.violation_cycle_share", "fraction"},
	)
	for _, p := range []string{"tl2", "eager", "baseline"} {
		defs = append(defs,
			metricDef{p + ".run_s", "s"},
			metricDef{p + ".allocs_per_run", "count"},
			metricDef{p + ".commit_ratio", "fraction"})
	}
	return append(defs,
		metricDef{"obs.event_bytes_per_job", "bytes"},
		metricDef{"obs.ns_per_byte", "ns"},
		metricDef{"runner.submit_ms_p50", "ms"},
		metricDef{"runner.queue_wait_ms_p50", "ms"},
		metricDef{"runner.exec_ms_p50", "ms"},
		metricDef{"runner.stream_tail_ms_p50", "ms"},
		metricDef{"runner.refused", "count"},
		metricDef{"trace.overhead_ms", "ms"},
		metricDef{"trace.overhead_share", "fraction"},
		metricDef{"trace.samples", "count"},
		metricDef{"trace.ops", "count"},
	)
}()

// defaultSeed is the seed the pinned summaries belong to. heldOutSeed is
// kept out of tuning so a later claim can be checked on inputs it was not
// fitted to.
const (
	defaultSeed = 1
	heldOutSeed = 20070213
)

//go:embed pinned.json
var pinnedJSON []byte

// pinnedSummary is the part of a run's summary fixed at the default seed.
type pinnedSummary struct {
	Protocol     string `json:"protocol"`
	Cycles       uint64 `json:"cycles"`
	Instructions uint64 `json:"instructions"`
	Commits      uint64 `json:"commits"`
	Violations   uint64 `json:"violations"`
}

// bench is one workload's run: its settings, its checks and its metrics.
type bench struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	pins     map[string]pinnedSummary

	attempted, failed, refused int
	problems                   []string
	values                     map[string]float64
	notes                      []string
	refSamples                 []float64 // reference-loop times, seconds
}

// sampleRef times the reference loop and keeps the sample for the report.
func (b *bench) sampleRef() float64 {
	d := refLoop()
	b.refSamples = append(b.refSamples, d)
	return d
}

type metricOut struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func main() {
	name := flag.String("workload", "all", "workload name, or all")
	seed := flag.Uint64("seed", defaultSeed, "input seed")
	seconds := flag.Float64("seconds", 20, "measured seconds per workload")
	trace := flag.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	flag.Parse()
	if *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fatalf("--seconds must be positive and --trace 0 or 1")
	}
	var pins map[string]pinnedSummary
	if err := json.Unmarshal(pinnedJSON, &pins); err != nil {
		fatalf("pinned.json: %v", err)
	}

	var selected []workload
	for _, w := range workloads {
		if *name == "all" || *name == w.name {
			selected = append(selected, w)
		}
	}
	if len(selected) == 0 {
		var names []string
		for _, w := range workloads {
			names = append(names, w.name)
		}
		fatalf("unknown workload %q (valid: %s, all)", *name, strings.Join(names, ", "))
	}

	fmt.Printf("host: %d CPUs, GOMAXPROCS %d, %s %s/%s; seeds: default %d, held out %d\n",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), runtime.GOOS, runtime.GOARCH,
		defaultSeed, heldOutSeed)
	correct, attempted, failed := true, 0, 0
	all := map[string]map[string]metricOut{}
	for _, w := range selected {
		b := &bench{workload: w.name, seed: *seed, seconds: *seconds, trace: *trace == 1,
			pins: pins, values: map[string]float64{}}
		if err := w.run(b); err != nil {
			fatalf("%s: %v", w.name, err)
		}
		all[w.name] = b.print()
		correct = correct && b.failed == 0
		attempted += b.attempted
		failed += b.failed
	}

	out := map[string]any{"correct": correct, "attempted": attempted, "failed": failed}
	if len(selected) == 1 {
		out["metrics"] = all[selected[0].name]
	} else {
		out["workloads"] = all
	}
	line, err := json.Marshal(out)
	if err != nil {
		fatalf("encode result: %v", err)
	}
	fmt.Println(string(line))
	if !correct {
		os.Exit(1)
	}
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "perfbench: "+format+"\n", args...)
	os.Exit(2)
}

// inputSeed is the seed the workload's inputs are generated from: the
// --seed argument mixed with the workload's name, so workloads sharing a
// profile still get independent inputs.
func (b *bench) inputSeed() uint64 {
	h := fnv.New64a()
	h.Write([]byte(b.workload))
	return derive(b.seed, h.Sum64())
}

// derive mixes a seed with k (splitmix64). It never returns 0, which job
// specs read as "the default seed".
func derive(seed, k uint64) uint64 {
	z := seed + 0x9e3779b97f4a7c15*(k+1)
	z = (z ^ z>>30) * 0xbf58476d1ce4e5b9
	z = (z ^ z>>27) * 0x94d049bb133111eb
	z ^= z >> 31
	if z == 0 {
		z = 1
	}
	return z
}

func (b *bench) fail(format string, args ...any) {
	b.failed++
	b.problems = append(b.problems, fmt.Sprintf(format, args...))
}

func (b *bench) note(format string, args ...any) {
	b.notes = append(b.notes, fmt.Sprintf(format, args...))
}

// e2e and layer record one metric; the name must be in its table.
func (b *bench) e2e(name string, v float64) { b.record(endToEnd, name, v) }

func (b *bench) layer(name string, v float64) { b.record(perLayer, name, v) }

func (b *bench) record(defs []metricDef, name string, v float64) {
	for _, d := range defs {
		if d.name == name {
			b.values[name] = v
			return
		}
	}
	panic("perfbench: undeclared metric " + name)
}

// checkPinned compares a summary taken at the default seed with the value
// pinned for it in pinned.json. Other seeds have no pins; their runs are
// checked by the oracles and by agreeing with each other.
func (b *bench) checkPinned(label string, s tcc.Summary) {
	if b.seed != defaultSeed {
		return
	}
	key := b.workload + "/" + label
	got := pinnedSummary{s.Protocol, s.Cycles, s.Instructions, s.Commits, s.Violations}
	want, ok := b.pins[key]
	switch {
	case !ok:
		js, _ := json.Marshal(got)
		b.fail("no pinned summary for %q; this run gives %s", key, js)
	case got != want:
		b.fail("%s: summary %+v, pinned %+v", key, got, want)
	}
}

// layerTimes charges the profile's CPU time to layers, per operation, in
// reference seconds (scale converts raw seconds; see calib.go).
func (b *bench) layerTimes(lp *layerProfile, ops, scale float64) {
	for _, l := range layerNames {
		b.layer(l+".self_s", float64(lp.selfNS[l])/ops/1e9*scale)
		b.layer(l+".share", ratio(float64(lp.selfNS[l]), float64(lp.totalNS)))
	}
	b.layer("runtime.alloc_share", ratio(float64(lp.mallocNS), float64(lp.totalNS)))
	b.layer("trace.samples", float64(lp.samples))
	b.layer("trace.ops", ops)
}

// traceDir holds the profiles and spans of traced runs.
const traceDir = ".bench_build/trace"

func (b *bench) tracePath(suffix string) string {
	return filepath.Join(traceDir, fmt.Sprintf("%s-seed%d%s", b.workload, b.seed, suffix))
}

// profile runs fn under the CPU profiler, keeps the profile for inspection
// with go tool pprof, and folds it onto layers.
func (b *bench) profile(fn func()) (*layerProfile, error) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		return nil, fmt.Errorf("start CPU profile: %w", err)
	}
	fn()
	pprof.StopCPUProfile()
	if err := os.MkdirAll(traceDir, 0o755); err != nil {
		return nil, err
	}
	if err := os.WriteFile(b.tracePath(".cpu.pprof"), buf.Bytes(), 0o644); err != nil {
		return nil, err
	}
	return foldProfile(buf.Bytes())
}

func (b *bench) writeSpans(rec *spanRecorder) error {
	return rec.write(b.tracePath(".spans.jsonl"))
}

// print writes the human-readable report and returns the metrics of the
// run's kind: end-to-end untraced, per-layer traced. Metrics that do not
// apply to the workload read 0.
func (b *bench) print() map[string]metricOut {
	mode := "untraced"
	if b.trace {
		mode = "traced"
	}
	fmt.Printf("== %s (seed %d, input seed %d, %g s, %s)\n", b.workload, b.seed, b.inputSeed(), b.seconds, mode)
	for _, n := range b.notes {
		fmt.Println("  " + n)
	}
	if len(b.refSamples) > 0 {
		m := median(b.refSamples)
		fmt.Printf("  reference loop: median %.2f ms over %d samples; raw host times = reported times x %.3f\n",
			m*1e3, len(b.refSamples), m/refNominalS)
	}
	for _, p := range b.problems {
		fmt.Println("  FAILED: " + p)
	}
	fmt.Printf("  error_rate %.6g (%d failed or refused of %d attempted)\n",
		ratio(float64(b.failed), float64(b.attempted)), b.failed, b.attempted)
	out := map[string]metricOut{}
	show := func(defs []metricDef, keep bool) {
		for _, d := range defs {
			v := b.values[d.name]
			fmt.Printf("  %-32s %14.6g %s\n", d.name, v, d.unit)
			if keep {
				out[d.name] = metricOut{v, d.unit}
			}
		}
	}
	show(endToEnd, !b.trace)
	if b.trace {
		show(perLayer, true)
	}
	return out
}
