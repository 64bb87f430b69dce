package machine

import (
	"math/rand"
	"slices"
	"testing"

	"scalabletcc/internal/bits"
	"scalabletcc/internal/mem"
	"scalabletcc/internal/workload"
)

// The tests address lines below the synthetic programs' regions (which
// start at 1<<32), in testPages pages that testNode homes round-robin.
const (
	testLine  = 32
	testPage  = 4096
	testPages = 16
)

// testNode returns node 0 of a mesh machine of procs nodes on which test
// page k is homed at node k % procs.
func testNode(tb testing.TB, procs int, mutate func(*Config)) *Node {
	tb.Helper()
	cfg := DefaultConfig(procs)
	if mutate != nil {
		mutate(&cfg)
	}
	m, err := New("test", cfg, workload.Hotspot().Scale(0.05).Build(procs, 1))
	if err != nil {
		tb.Fatal(err)
	}
	m.UseMesh()
	for k := 0; k < testPages; k++ {
		m.Home(mem.Addr(k*testPage), k%procs)
	}
	n := &Node{}
	n.Init(m, 0, nil)
	return n
}

// testLineAddr returns the i'th test line: consecutive lines go to
// consecutive pages, so to consecutive homes.
func testLineAddr(i int) mem.Addr {
	return mem.Addr((i%testPages)*testPage + (i/testPages)*testLine)
}

// randLine returns one of the first lines test lines.
func randLine(rng *rand.Rand, lines int) mem.Addr { return testLineAddr(rng.Intn(lines)) }

// TestLineSetMatchesMap drives a LineSet and a map-backed reference through
// random Touch/Get/Reset sequences: every lookup, every line's state and
// the first-touch order must agree, and nothing survives a Reset.
func TestLineSetMatchesMap(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var s LineSet
	ref := map[mem.Addr]TxLine{}
	var order []mem.Addr
	for step := 0; step < 50000; step++ {
		base := randLine(rng, 96)
		switch r := rng.Intn(100); {
		case r < 3:
			s.Reset()
			ref = map[mem.Addr]TxLine{}
			order = order[:0]
		case r < 55:
			tl := s.Touch(base)
			want, ok := ref[base]
			if !ok {
				order = append(order, base)
			}
			if *tl != want {
				t.Fatalf("step %d: Touch(%#x) = %+v, want %+v", step, base, *tl, want)
			}
			switch rng.Intn(3) {
			case 0:
				tl.Read = true
			case 1:
				tl.Write = true
			}
			tl.Written = tl.Written.Set(rng.Intn(8))
			ref[base] = *tl
		default:
			tl := s.Get(base)
			want, ok := ref[base]
			if (tl != nil) != ok {
				t.Fatalf("step %d: Get(%#x) present = %v, want %v", step, base, tl != nil, ok)
			}
			if ok && *tl != want {
				t.Fatalf("step %d: Get(%#x) = %+v, want %+v", step, base, *tl, want)
			}
		}
		if !slices.Equal(s.Order, order) {
			t.Fatalf("step %d: Order = %#x, want %#x", step, s.Order, order)
		}
	}
}

// refGroups is GroupByHome's map-based reference.
func refGroups(n *Node, s *LineSet, want func(*TxLine) bool) []HomeGroup {
	var out []HomeGroup
	idx := map[int]int{}
	for _, base := range s.Order {
		if want != nil && !want(s.Get(base)) {
			continue
		}
		home := n.M.Home(base, n.ID)
		gi, ok := idx[home]
		if !ok {
			gi = len(out)
			idx[home] = gi
			out = append(out, HomeGroup{Home: home})
		}
		out[gi].Bases = append(out[gi].Bases, base)
	}
	return out
}

func equalGroups(a, b []HomeGroup) bool {
	return slices.EqualFunc(a, b, func(x, y HomeGroup) bool {
		return x.Home == y.Home && x.Locked == y.Locked && slices.Equal(x.Bases, y.Bases)
	})
}

// TestGroupByHomeMatchesMap groups random line sets into one reused buffer
// and compares each grouping with the map-based reference: the same homes
// in first-touch order, the same lines per home, and the want filter. The
// buffer is dirtied after every grouping (Locked set, Bases overwritten),
// so a stale entry leaking into a later, smaller grouping shows.
func TestGroupByHomeMatchesMap(t *testing.T) {
	wants := []func(*TxLine) bool{
		nil,
		func(tl *TxLine) bool { return tl.Read },
		func(tl *TxLine) bool { return tl.Written.Any() },
	}
	for _, procs := range []int{1, 3, 8, 16} {
		n := testNode(t, procs, nil)
		rng := rand.New(rand.NewSource(int64(procs)))
		var s LineSet
		var buf []HomeGroup
		for iter := 0; iter < 2000; iter++ {
			s.Reset()
			for k := rng.Intn(40); k > 0; k-- {
				tl := s.Touch(randLine(rng, 128))
				tl.Read = tl.Read || rng.Intn(2) == 0
				if rng.Intn(2) == 0 {
					tl.Written = tl.Written.Set(rng.Intn(8))
				}
			}
			want := wants[rng.Intn(len(wants))]
			buf = n.GroupByHome(buf, &s, want)
			if ref := refGroups(n, &s, want); !equalGroups(buf, ref) {
				t.Fatalf("procs %d iter %d: GroupByHome = %+v, want %+v", procs, iter, buf, ref)
			}
			all := buf[:cap(buf)]
			for i := range all {
				all[i].Locked = true
				for j := range all[i].Bases {
					all[i].Bases[j] = 0xdead00
				}
			}
		}
	}
}

// TestGroupByHomeReuseAfterLargerGrouping regroups a buffer that held more
// groups, and longer ones, than the new grouping needs.
func TestGroupByHomeReuseAfterLargerGrouping(t *testing.T) {
	n := testNode(t, 8, nil)
	var s LineSet
	for i := 0; i < 4*testPages; i++ {
		s.Touch(testLineAddr(i))
	}
	buf := n.GroupByHome(nil, &s, nil)
	if len(buf) != 8 {
		t.Fatalf("%d groups over 8 homes, want 8", len(buf))
	}
	for i := range buf {
		buf[i].Locked = true
	}
	s.Reset()
	s.Touch(mem.Addr(5 * testPage)) // home 5
	s.Touch(mem.Addr(2 * testPage)) // home 2
	s.Touch(mem.Addr(5*testPage + testLine))
	got := n.GroupByHome(buf, &s, nil)
	want := []HomeGroup{
		{Home: 5, Bases: []mem.Addr{5 * testPage, 5*testPage + testLine}},
		{Home: 2, Bases: []mem.Addr{2 * testPage}},
	}
	if !equalGroups(got, want) {
		t.Fatalf("regrouped = %+v, want %+v", got, want)
	}
}

// TestLineVersionsAcrossEviction fills, commits and evicts lines in a small
// L2 and checks CurrentCopy against a map-based reference after every
// step: a line's version is the last one filled or committed while it was
// resident, and an evicted line has none until it is filled again.
func TestLineVersionsAcrossEviction(t *testing.T) {
	n := testNode(t, 4, func(c *Config) {
		c.L1Size, c.L1Ways = 2*testLine, 2
		c.L2Size, c.L2Ways = 16*testLine, 2
	})
	rng := rand.New(rand.NewSource(7))
	ref := map[mem.Addr]mem.Version{}
	data := make([]mem.Version, testLine/4)
	var s LineSet
	const lines = 64
	for step := 0; step < 20000; step++ {
		base := randLine(rng, lines)
		v := mem.Version(step + 1)
		if rng.Intn(4) == 0 && n.Cache.Peek(base) != nil {
			s.Reset()
			tl := s.Touch(base)
			tl.Read = true
			tl.Written = bits.WordMask(1)
			n.CommitLocal(&s, nil, v)
		} else {
			n.FillVersioned(base, data, v)
		}
		ref[base] = v
		for a := range ref {
			if n.Cache.Peek(a) == nil {
				delete(ref, a)
			}
		}
		for i := 0; i < lines; i++ {
			a := testLineAddr(i)
			gotV, gotOK := n.CurrentCopy(a)
			wantV, wantOK := ref[a]
			if gotV != wantV || gotOK != wantOK {
				t.Fatalf("step %d: CurrentCopy(%#x) = %d, %v; want %d, %v", step, a, gotV, gotOK, wantV, wantOK)
			}
		}
	}
	if got := n.lineVer.idx.Len(); got != len(ref) {
		t.Fatalf("version table holds %d lines, %d are resident", got, len(ref))
	}
}

// TestLineTableMatchesMap checks Entry/Get/Del against a map, including id
// reuse after Del and pointer stability across growth.
func TestLineTableMatchesMap(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	var tab LineTable[uint64]
	ref := map[mem.Addr]uint64{}
	ptrs := map[mem.Addr]*uint64{}
	for step := 0; step < 50000; step++ {
		base := mem.Addr(rng.Intn(500)) * testLine
		switch rng.Intn(3) {
		case 0:
			e, added := tab.Entry(base)
			_, had := ref[base]
			if added == had {
				t.Fatalf("step %d: Entry(%#x) added = %v with entry present = %v", step, base, added, had)
			}
			if added && *e != 0 {
				t.Fatalf("step %d: added entry not zeroed: %d", step, *e)
			}
			if had && e != ptrs[base] {
				t.Fatalf("step %d: entry for %#x moved", step, base)
			}
			*e = uint64(step)
			ref[base], ptrs[base] = uint64(step), e
		case 1:
			tab.Del(base)
			delete(ref, base)
			delete(ptrs, base)
		default:
			e := tab.Get(base)
			want, ok := ref[base]
			if (e != nil) != ok || (ok && *e != want) {
				t.Fatalf("step %d: Get(%#x) = %v, want %d (present %v)", step, base, e, want, ok)
			}
		}
		if tab.idx.Len() != len(ref) {
			t.Fatalf("step %d: Len = %d, want %d", step, tab.idx.Len(), len(ref))
		}
	}
}

// BenchmarkLineSetAttempt is one attempt's line bookkeeping at steady
// state: Reset, 32 first touches and lookups, and a grouping by home into
// a reused buffer. It must not allocate.
func BenchmarkLineSetAttempt(b *testing.B) {
	n := testNode(b, 8, nil)
	rng := rand.New(rand.NewSource(1))
	addrs := make([]mem.Addr, 32)
	for i := range addrs {
		addrs[i] = randLine(rng, 128)
	}
	var s LineSet
	var groups []HomeGroup
	written := func(tl *TxLine) bool { return tl.Written.Any() }
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Reset()
		for j, a := range addrs {
			if tl := s.Get(a); tl == nil || !tl.Read {
				s.Touch(a).Read = true
			}
			if j%4 == 0 {
				tl := s.Touch(a)
				tl.Written = tl.Written.Set(j % 8)
			}
		}
		groups = n.GroupByHome(groups, &s, written)
	}
	if len(groups) == 0 {
		b.Fatal("no groups")
	}
}
