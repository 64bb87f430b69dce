package machine

import (
	"fmt"

	"scalabletcc/internal/bits"
	"scalabletcc/internal/mem"
)

// Rec is one pooled event payload: the fields a protocol message needs
// beyond the kernel's two argument words. Field meaning is per opcode. The
// slices keep their capacity across reuse, so a recycled record fills them
// without allocating.
type Rec struct {
	Home  int
	Base  mem.Addr
	V     mem.Version
	OK    bool
	Data  []mem.Version
	Bases []mem.Addr
	Masks []bits.WordMask

	live bool
}

// Slab pools Recs by index, so a record travels through the kernel and the
// mesh as one argument word and steady-state messaging allocates nothing.
// Every allocated record must be freed exactly once; Live counts the
// outstanding ones (zero after a completed run) and a double free panics.
type Slab struct {
	recs []*Rec
	free []uint64
	live int
}

// Alloc returns a cleared record and its index.
func (s *Slab) Alloc() (uint64, *Rec) {
	var i uint64
	if n := len(s.free); n > 0 {
		i = s.free[n-1]
		s.free = s.free[:n-1]
	} else {
		i = uint64(len(s.recs))
		s.recs = append(s.recs, &Rec{})
	}
	r := s.recs[i]
	*r = Rec{Data: r.Data[:0], Bases: r.Bases[:0], Masks: r.Masks[:0], live: true}
	s.live++
	return i, r
}

// At returns the record at index i.
func (s *Slab) At(i uint64) *Rec { return s.recs[i] }

// Free returns record i to the pool. Freeing a record that is not live is
// a protocol bug and panics.
func (s *Slab) Free(i uint64) {
	r := s.recs[i]
	if !r.live {
		panic(fmt.Sprintf("machine: record %d freed twice", i))
	}
	r.live = false
	s.live--
	s.free = append(s.free, i)
}

// Live returns the number of allocated records not yet freed.
func (s *Slab) Live() int { return s.live }
