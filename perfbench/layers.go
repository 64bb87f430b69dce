package main

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"path"
	"strings"
)

// Layers are the repository's modules ("other" gathers the small helper
// packages) plus three buckets for time outside them: the benchmark's own
// code, the garbage collector, and the rest of the runtime. Every CPU sample
// is charged to exactly one layer.
var layerNames = []string{
	"sim", "mesh", "core.proc", "core.dir", "core.sys", "cache", "mem",
	"workload", "tl2", "eager", "baseline", "obs", "runner", "tcc",
	"other", "bench", "runtime.gc", "runtime.other",
}

// modulePrefix is the import-path prefix of the simulator's packages.
const modulePrefix = "scalabletcc/"

// frame is one function on a sampled stack.
type frame struct {
	fn, file string
}

// layerOf names the layer a repository frame belongs to, or "" when the
// frame is not the simulator's or the benchmark's own code. Standard-library
// and runtime frames return "", so their time is charged to the innermost
// repository frame that called them.
func layerOf(f frame) string {
	if strings.HasPrefix(f.fn, "main.") {
		return "bench" // the benchmark's own client and measurement code
	}
	if !strings.HasPrefix(f.fn, modulePrefix) {
		return ""
	}
	// scalabletcc/internal/core.(*Proc).step -> package "core". Package
	// paths in the module hold no dots, so the first dot ends the path.
	pkg := f.fn[len(modulePrefix):]
	if dot := strings.IndexByte(pkg, '.'); dot >= 0 {
		pkg = pkg[:dot]
	}
	pkg = path.Base(pkg)
	switch pkg {
	case "core":
		switch path.Base(f.file) {
		case "proc.go":
			return "core.proc"
		case "directory.go":
			return "core.dir"
		default:
			return "core.sys"
		}
	case "sim", "mesh", "cache", "mem", "workload", "tl2", "eager", "baseline", "obs", "runner", "tcc":
		return pkg
	default:
		return "other" // bits, tid, stats, verify and the remaining helpers
	}
}

// isGCFrame reports whether a frame belongs to the garbage collector's own
// goroutines (background marking, sweeping and scavenging).
func isGCFrame(fn string) bool {
	switch fn {
	case "runtime.gcBgMarkWorker", "runtime.bgsweep", "runtime.bgscavenge", "runtime.gcStart":
		return true
	}
	return false
}

// layerProfile is a CPU profile folded onto layers.
type layerProfile struct {
	samples  int
	totalNS  int64
	selfNS   map[string]int64
	mallocNS int64 // samples with runtime.mallocgc anywhere on the stack
}

// foldProfile decodes a gzipped pprof CPU profile and charges each sample's
// CPU time to the layer of its innermost repository frame, leaving out the
// reference loop's samples. Samples with no repository frame go to
// runtime.gc when the stack belongs to the collector and to runtime.other
// otherwise (scheduler, network poller, HTTP plumbing).
func foldProfile(data []byte) (*layerProfile, error) {
	samples, err := decodeProfile(data)
	if err != nil {
		return nil, err
	}
	lp := &layerProfile{selfNS: map[string]int64{}}
next:
	for _, s := range samples {
		layer, gc, malloc := "", false, false
		for _, f := range s.stack {
			if f.fn == "main.(*refState).run" {
				continue next // the speed reference is not the program's work
			}
			if layer == "" {
				layer = layerOf(f)
			}
			gc = gc || isGCFrame(f.fn)
			malloc = malloc || f.fn == "runtime.mallocgc"
		}
		if layer == "" {
			layer = "runtime.other"
			if gc {
				layer = "runtime.gc"
			}
		}
		lp.samples += int(s.count)
		lp.totalNS += s.cpuNS
		lp.selfNS[layer] += s.cpuNS
		if malloc {
			lp.mallocNS += s.cpuNS
		}
	}
	return lp, nil
}

// --- a minimal decoder for the pprof protobuf (profile.proto) ---

type rawSample struct {
	stack []frame // innermost first
	count int64
	cpuNS int64
}

// pbField is one protobuf field: its number, wire type, and either a varint
// value or a length-delimited payload.
type pbField struct {
	num  int
	wire int
	v    uint64
	data []byte
}

func readVarint(b []byte) (uint64, int, error) {
	var x uint64
	for i := 0; i < len(b) && i < 10; i++ {
		x |= uint64(b[i]&0x7f) << (7 * i)
		if b[i] < 0x80 {
			return x, i + 1, nil
		}
	}
	return 0, 0, errors.New("pprof: bad varint")
}

// fields splits a message into its fields. Only the wire types pprof uses
// (varint, length-delimited, fixed64, fixed32) are accepted.
func fields(b []byte) ([]pbField, error) {
	var out []pbField
	for len(b) > 0 {
		key, n, err := readVarint(b)
		if err != nil {
			return nil, err
		}
		b = b[n:]
		f := pbField{num: int(key >> 3), wire: int(key & 7)}
		switch f.wire {
		case 0:
			f.v, n, err = readVarint(b)
			if err != nil {
				return nil, err
			}
			b = b[n:]
		case 2:
			l, n, err := readVarint(b)
			if err != nil {
				return nil, err
			}
			b = b[n:]
			if uint64(len(b)) < l {
				return nil, errors.New("pprof: truncated field")
			}
			f.data, b = b[:l], b[l:]
		case 1:
			if len(b) < 8 {
				return nil, errors.New("pprof: truncated fixed64")
			}
			b = b[8:]
		case 5:
			if len(b) < 4 {
				return nil, errors.New("pprof: truncated fixed32")
			}
			b = b[4:]
		default:
			return nil, fmt.Errorf("pprof: unsupported wire type %d", f.wire)
		}
		out = append(out, f)
	}
	return out, nil
}

// varints returns a repeated integer field's values, packed or not.
func (f pbField) varints() ([]uint64, error) {
	if f.wire == 0 {
		return []uint64{f.v}, nil
	}
	var out []uint64
	for b := f.data; len(b) > 0; {
		v, n, err := readVarint(b)
		if err != nil {
			return nil, err
		}
		out = append(out, v)
		b = b[n:]
	}
	return out, nil
}

func decodeProfile(gz []byte) ([]rawSample, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("pprof: %w", err)
	}
	data, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("pprof: %w", err)
	}
	top, err := fields(data)
	if err != nil {
		return nil, err
	}
	type fn struct{ name, file int64 }
	var (
		strs    []string
		funcs   = map[uint64]fn{}
		locs    = map[uint64][]uint64{} // location id -> function ids, innermost first
		samples [][]pbField
		out     []rawSample
	)
	for _, f := range top {
		switch f.num {
		case 2:
			sf, err := fields(f.data)
			if err != nil {
				return nil, err
			}
			samples = append(samples, sf)
		case 4:
			lf, err := fields(f.data)
			if err != nil {
				return nil, err
			}
			var id uint64
			var fids []uint64
			for _, g := range lf {
				switch g.num {
				case 1:
					id = g.v
				case 4:
					ln, err := fields(g.data)
					if err != nil {
						return nil, err
					}
					for _, h := range ln {
						if h.num == 1 {
							fids = append(fids, h.v)
						}
					}
				}
			}
			locs[id] = fids
		case 5:
			ff, err := fields(f.data)
			if err != nil {
				return nil, err
			}
			var id uint64
			var x fn
			for _, g := range ff {
				switch g.num {
				case 1:
					id = g.v
				case 2:
					x.name = int64(g.v)
				case 4:
					x.file = int64(g.v)
				}
			}
			funcs[id] = x
		case 6:
			strs = append(strs, string(f.data))
		}
	}
	str := func(i int64) string {
		if i < 0 || i >= int64(len(strs)) {
			return ""
		}
		return strs[i]
	}
	for _, sf := range samples {
		var s rawSample
		var vals []uint64
		for _, g := range sf {
			switch g.num {
			case 1:
				ids, err := g.varints()
				if err != nil {
					return nil, err
				}
				for _, id := range ids {
					for _, fid := range locs[id] {
						x := funcs[fid]
						s.stack = append(s.stack, frame{fn: str(x.name), file: str(x.file)})
					}
				}
			case 2:
				v, err := g.varints()
				if err != nil {
					return nil, err
				}
				vals = append(vals, v...)
			}
		}
		// A CPU profile's sample types are [samples/count, cpu/nanoseconds].
		if len(vals) != 2 {
			return nil, fmt.Errorf("pprof: sample has %d values, want 2", len(vals))
		}
		s.count, s.cpuNS = int64(vals[0]), int64(vals[1])
		out = append(out, s)
	}
	return out, nil
}
