package machine

import (
	"scalabletcc/internal/bits"
	"scalabletcc/internal/mem"
	"scalabletcc/internal/verify"
)

// TxLine is one line's per-transaction state in a protocol that tracks
// lines at their homes (the TL2 STM and the eager HTM).
type TxLine struct {
	Read    bool          // the home checked (or registered) a read this attempt; the local copy is current
	Write   bool          // the home registered this attempt as the line's writer
	Written bits.WordMask // words the attempt wrote, buffered locally until commit
}

// LineSet is the lines one attempt touched, in first-touch order. An
// AddrIndex resolves a line to its position in Order, and the line states
// sit in a dense slice parallel to Order, so Reset is O(1) and a set that
// has reached its size touches lines without allocating. A *TxLine is
// valid until the next Touch.
type LineSet struct {
	idx   mem.AddrIndex
	lines []TxLine
	Order []mem.Addr
}

// Reset empties the set for a new attempt.
func (s *LineSet) Reset() {
	s.idx.Reset()
	s.lines = s.lines[:0]
	s.Order = s.Order[:0]
}

// Get returns the line's state, or nil if the attempt has not touched it.
func (s *LineSet) Get(base mem.Addr) *TxLine {
	if i, ok := s.idx.Get(base); ok {
		return &s.lines[i]
	}
	return nil
}

// Touch returns the line's state, adding the line if the attempt has not
// touched it yet.
func (s *LineSet) Touch(base mem.Addr) *TxLine {
	if i, ok := s.idx.Get(base); ok {
		return &s.lines[i]
	}
	s.idx.Set(base, int32(len(s.lines)))
	s.lines = append(s.lines, TxLine{})
	s.Order = append(s.Order, base)
	return &s.lines[len(s.lines)-1]
}

// HomeGroup batches one message's lines for a single home.
type HomeGroup struct {
	Home   int
	Bases  []mem.Addr
	Locked bool // TL2's lock phase: this home's all-or-nothing acquisition succeeded
}

// GroupByHome batches the lines of s that want selects (every line when
// want is nil) into one group per home, in first-touch order for
// determinism. It refills groups, reusing its elements' Bases storage,
// and returns the filled slice. The caller owns the buffer: it must not
// regroup into it while a request still names one of its groups.
func (n *Node) GroupByHome(groups []HomeGroup, s *LineSet, want func(*TxLine) bool) []HomeGroup {
	if n.homeGroup == nil {
		n.homeGroup = make([]int32, n.M.Cfg.Procs)
	}
	out := groups[:0]
	for i, base := range s.Order {
		if want != nil && !want(&s.lines[i]) {
			continue
		}
		home := n.M.Home(base, n.ID)
		// homeGroup[home] may be left over from an earlier grouping; it
		// names this call's group only if that group is for home.
		gi := int(n.homeGroup[home])
		if gi >= len(out) || out[gi].Home != home {
			gi = len(out)
			n.homeGroup[home] = int32(gi)
			if gi < cap(out) {
				out = out[:gi+1]
				out[gi] = HomeGroup{Home: home, Bases: out[gi].Bases[:0]}
			} else {
				out = append(out, HomeGroup{Home: home})
			}
		}
		out[gi].Bases = append(out[gi].Bases, base)
	}
	return out
}

// CommitLocal applies the committed attempt's writes to the node's own
// state: the commit-log record (nil when logging is off) gains every
// written word at version v, and a local copy read this attempt takes v in
// its written words — its other words still match memory, so the whole
// copy is current at v.
func (n *Node) CommitLocal(s *LineSet, record *verify.Record, v mem.Version) {
	for i, base := range s.Order {
		tl := &s.lines[i]
		if !tl.Written.Any() {
			continue
		}
		n.M.LogWrites(record, base, tl.Written, v)
		if line := n.Cache.Peek(base); line != nil && tl.Read {
			for w := 0; w < n.M.Cfg.Geometry.WordsPerLine(); w++ {
				if tl.Written.Has(w) {
					line.Data[w] = v
				}
			}
			n.setLineVer(base, v)
		}
	}
}
