package mesh

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"scalabletcc/internal/sim"
)

// refRoute is the per-hop route walk the mesh used before RouteAt walked
// each leg in a straight line: every hop recomputes the next coordinate in
// the current dimension (shortest way around on a torus) and picks the link
// by comparing it with the "up" neighbour. It keeps its own link state and
// hop counter, so the two walks can be run side by side.
type refRoute struct {
	cfg   Config
	links [4][]link
	hops  uint64
}

func newRefRoute(cfg Config) *refRoute {
	r := &refRoute{cfg: cfg}
	for d := range r.links {
		r.links[d] = make([]link, cfg.Width*cfg.Height)
	}
	return r
}

func (r *refRoute) dimStep(cur, dst, size int) int {
	if cur == dst {
		return cur
	}
	forward := dst - cur
	if forward < 0 {
		forward += size
	}
	stepUp := forward <= size-forward
	if !r.cfg.Torus {
		stepUp = dst > cur
	}
	if stepUp {
		return (cur + 1) % size
	}
	return (cur - 1 + size) % size
}

func (r *refRoute) route(now sim.Time, src, dst, bytes int) sim.Time {
	if src == dst {
		return now + r.cfg.LocalLatency
	}
	occupancy := sim.Time((bytes + r.cfg.LinkBytes - 1) / r.cfg.LinkBytes)
	if occupancy < 1 {
		occupancy = 1
	}
	w, h := r.cfg.Width, r.cfg.Height
	x, y := src%w, src/w
	dx, dy := dst%w, dst/w
	t := now
	for x != dx || y != dy {
		var d int
		nx, ny := x, y
		if x != dx {
			if r.dimStep(x, dx, w) == (x+1)%w {
				d, nx = dirEast, (x+1)%w
			} else {
				d, nx = dirWest, (x-1+w)%w
			}
		} else {
			if r.dimStep(y, dy, h) == (y+1)%h {
				d, ny = dirNorth, (y+1)%h
			} else {
				d, ny = dirSouth, (y-1+h)%h
			}
		}
		l := &r.links[d][y*w+x]
		start := t
		if l.nextFree > start {
			start = l.nextFree
		}
		l.nextFree = start + occupancy
		l.busy += occupancy
		t = start + r.cfg.HopLatency
		x, y = nx, ny
		r.hops++
	}
	arrival := t + occupancy
	if r.cfg.Jitter != nil {
		arrival += r.cfg.Jitter(src, dst, bytes)
	}
	return arrival
}

// routeGeometry draws a mesh shape: full and partial grids, 1xN and Nx1
// lines, and tori of odd and even sizes (size 2 included, where both
// neighbours coincide).
func routeGeometry(r *rand.Rand) (cfg Config, nodes int) {
	w, h := 1+r.Intn(7), 1+r.Intn(7)
	switch r.Intn(4) {
	case 0:
		w = 1
	case 1:
		h = 1
	}
	if w*h == 1 {
		w = 2
	}
	nodes = w*h - r.Intn(w) // a partial last row leaves grid positions empty
	if nodes < 2 {
		nodes = 2
	}
	cfg = Config{
		Width: w, Height: h,
		HopLatency:   sim.Time(1 + r.Intn(4)),
		LinkBytes:    1 + r.Intn(16),
		LocalLatency: 1,
		Torus:        r.Intn(2) == 0,
	}
	if r.Intn(4) == 0 {
		cfg.Jitter = func(src, dst, bytes int) sim.Time { return sim.Time((src*7 + dst*3 + bytes) % 5) }
	}
	return cfg, nodes
}

// TestRouteWalkMatchesPerHopReference drives RouteAt and the per-hop
// reference walk with the same random message sequences, at nondecreasing
// injection times, on random geometries. Arrival times, every link's
// reservation and busy clocks, the hop counter, and each message's hop
// increment against Hops(src, dst) must all agree.
func TestRouteWalkMatchesPerHopReference(t *testing.T) {
	check := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		cfg, nodes := routeGeometry(r)
		var k sim.Kernel
		n := New(&k, nodes, cfg)
		ref := newRefRoute(cfg)
		now := sim.Time(0)
		for m := 0; m < 200; m++ {
			now += sim.Time(r.Intn(4))
			src, dst, bytes := r.Intn(nodes), r.Intn(nodes), 1+r.Intn(80)
			before := n.hopsTotal
			got := n.RouteAt(now, src, dst, bytes, ClassCommit)
			want := ref.route(now, src, dst, bytes)
			if got != want {
				t.Errorf("seed %d %dx%d torus=%v: %d->%d at %d arrives %d, reference %d",
					seed, cfg.Width, cfg.Height, cfg.Torus, src, dst, now, got, want)
				return false
			}
			if inc := int(n.hopsTotal - before); inc != n.Hops(src, dst) {
				t.Errorf("seed %d: %d->%d walked %d hops, Hops says %d", seed, src, dst, inc, n.Hops(src, dst))
				return false
			}
		}
		if n.hopsTotal != ref.hops {
			t.Errorf("seed %d: hopsTotal %d, reference %d", seed, n.hopsTotal, ref.hops)
			return false
		}
		if !reflect.DeepEqual(n.links, ref.links) {
			t.Errorf("seed %d %dx%d torus=%v: link state diverged from the reference", seed, cfg.Width, cfg.Height, cfg.Torus)
			return false
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}
