package machine

import "scalabletcc/internal/mem"

// LineTable holds one entry of per-line state per line base, for state a
// node keeps across transactions: the rivals' home-side line metadata and
// a node's cached-copy versions. It uses core.Directory's entry storage:
// an AddrIndex resolves a base to a dense id and the entries live in
// fixed-size chunks, so an entry pointer never moves and a lookup is one
// hash probe, not a Go map access. Deleted ids are recycled. The zero
// value is an empty table.
type LineTable[T any] struct {
	idx    mem.AddrIndex
	chunks [][]T
	n      int32   // ids handed out so far
	free   []int32 // ids of deleted entries, reused before new ones
}

// lineChunk is how many entries each storage chunk holds (a power of two,
// so at resolves an id with a shift and a mask).
const (
	lineChunkShift = 6
	lineChunk      = 1 << lineChunkShift
)

func (t *LineTable[T]) at(id int32) *T {
	return &t.chunks[id>>lineChunkShift][id&(lineChunk-1)]
}

// Get returns base's entry, or nil if the table has none.
func (t *LineTable[T]) Get(base mem.Addr) *T {
	if id, ok := t.idx.Get(base); ok {
		return t.at(id)
	}
	return nil
}

// Entry returns base's entry and whether this call added it; an added
// entry is T's zero value, for the caller to initialize.
func (t *LineTable[T]) Entry(base mem.Addr) (*T, bool) {
	if id, ok := t.idx.Get(base); ok {
		return t.at(id), false
	}
	var id int32
	if k := len(t.free); k > 0 {
		id = t.free[k-1]
		t.free = t.free[:k-1]
	} else {
		id = t.n
		t.n++
		if id&(lineChunk-1) == 0 {
			t.chunks = append(t.chunks, make([]T, lineChunk))
		}
	}
	t.idx.Set(base, id)
	e := t.at(id)
	var zero T
	*e = zero
	return e, true
}

// Del removes base's entry, if any, and frees its id for reuse.
func (t *LineTable[T]) Del(base mem.Addr) {
	if id, ok := t.idx.Get(base); ok {
		t.idx.Del(base)
		t.free = append(t.free, id)
	}
}
