package main

import (
	"math/bits"
	"time"
)

// The hosts this benchmark runs on are shared, and their speed drifts with
// the load their neighbours put on them: on a 2-vCPU KVM guest the same
// simulation took 0.6 s in one minute and 1.1 s ten minutes later, with the
// guest's own CPU time rising just as much (the loss is not steal time, so
// no CPU clock hides it). The benchmark therefore reports host times at a
// reference speed. Next to the measured work it times refLoop, its own
// fixed reference work, and multiplies every raw time by
// refNominalS / (refLoop's time). The reference work is a miniature
// discrete-event simulation — a binary heap of events, a hashed directory,
// scattered line updates — so it slows under the same contention the
// simulator does, and no change to the simulator can change it.

// refNominalS is refLoop's time at the reference speed, in seconds: its
// median on the 2-vCPU Xeon guest the first figures were recorded on, so
// reported times read as that host's seconds.
const refNominalS = 0.030

const (
	refSteps = 300_000
	refLines = 1 << 15 // 256 KiB of line state
	refNodes = 64
	refDir   = 1 << 11 // directory entries
)

type refEvent struct {
	t    uint64
	node int32
}

// refState holds the reference work's buffers. They are allocated once so
// refLoop allocates nothing after its first call and never disturbs the
// heap statistics of the measured work.
type refState struct {
	lines []uint64
	dir   map[uint64]uint32
	heap  []refEvent
}

var refWork *refState

// refLoop runs the reference work once and returns its wall time in
// seconds. It runs on one CPU even when the measured work keeps several
// busy: two copies run at once on the 2-vCPU guest took either the same
// time as one or twice as long, in alternating spells that the daemon's
// own job times did not follow.
func refLoop() float64 {
	if refWork == nil {
		refWork = &refState{
			lines: make([]uint64, refLines),
			dir:   make(map[uint64]uint32, refDir),
			heap:  make([]refEvent, 0, refNodes),
		}
	}
	return refWork.run()
}

// run performs the reference work once and returns its wall time.
func (st *refState) run() float64 {
	clear(st.dir)
	h := st.heap[:0]
	t0 := time.Now()
	for i := 0; i < refNodes; i++ {
		h = refPush(h, refEvent{uint64(i), int32(i)})
	}
	x := uint64(0x9e3779b97f4a7c15)
	for step := 0; step < refSteps; step++ {
		var e refEvent
		e, h = refPop(h)
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		addr := x & (refLines - 1)
		st.lines[addr] += uint64(e.node)
		key := addr >> 4
		if c, ok := st.dir[key]; ok {
			if c&7 == 7 {
				delete(st.dir, key)
			} else {
				st.dir[key] = c + 1
			}
		} else if len(st.dir) < refDir {
			st.dir[key] = 1
		}
		h = refPush(h, refEvent{e.t + 1 + uint64(bits.OnesCount64(x)&15), e.node})
	}
	d := time.Since(t0).Seconds()
	st.heap = h
	return d
}

func refPush(h []refEvent, e refEvent) []refEvent {
	h = append(h, e)
	for i := len(h) - 1; i > 0; {
		p := (i - 1) / 2
		if h[p].t <= h[i].t {
			break
		}
		h[p], h[i] = h[i], h[p]
		i = p
	}
	return h
}

func refPop(h []refEvent) (refEvent, []refEvent) {
	e := h[0]
	n := len(h) - 1
	h[0] = h[n]
	h = h[:n]
	for i := 0; ; {
		l := 2*i + 1
		if l >= n {
			break
		}
		if r := l + 1; r < n && h[r].t < h[l].t {
			l = r
		}
		if h[i].t <= h[l].t {
			break
		}
		h[i], h[l] = h[l], h[i]
		i = l
	}
	return e, h
}

// speedScale converts raw host seconds measured between two reference
// samples (taken just before and just after) to reference seconds.
func speedScale(before, after float64) float64 {
	return refNominalS / ((before + after) / 2)
}
