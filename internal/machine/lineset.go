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

// LineSet is the lines one attempt touched, in first-touch order.
type LineSet struct {
	lines map[mem.Addr]*TxLine
	Order []mem.Addr
}

// Reset empties the set for a new attempt.
func (s *LineSet) Reset() {
	s.lines = make(map[mem.Addr]*TxLine, len(s.lines)+1)
	s.Order = s.Order[:0]
}

// Get returns the line's state, or nil if the attempt has not touched it.
func (s *LineSet) Get(base mem.Addr) *TxLine { return s.lines[base] }

// Touch returns the line's state, adding the line if the attempt has not
// touched it yet.
func (s *LineSet) Touch(base mem.Addr) *TxLine {
	tl := s.lines[base]
	if tl == nil {
		tl = &TxLine{}
		s.lines[base] = tl
		s.Order = append(s.Order, base)
	}
	return tl
}

// HomeGroup batches one message's lines for a single home.
type HomeGroup struct {
	Home   int
	Bases  []mem.Addr
	Locked bool // TL2's lock phase: this home's all-or-nothing acquisition succeeded
}

// GroupByHome batches the lines of s that want selects (every line when
// want is nil) into one group per home, in first-touch order for
// determinism.
func (n *Node) GroupByHome(s *LineSet, want func(*TxLine) bool) []HomeGroup {
	var out []HomeGroup
	idx := make(map[int]int)
	for _, base := range s.Order {
		if want != nil && !want(s.lines[base]) {
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

// CommitLocal applies the committed attempt's writes to the node's own
// state: the commit-log record (nil when logging is off) gains every
// written word at version v, and a local copy read this attempt takes v in
// its written words — its other words still match memory, so the whole
// copy is current at v.
func (n *Node) CommitLocal(s *LineSet, record *verify.Record, v mem.Version) {
	for _, base := range s.Order {
		tl := s.lines[base]
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
			n.LineVer[base] = v
		}
	}
}
