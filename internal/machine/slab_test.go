package machine

import "testing"

func TestSlabRecyclesAndCountsLive(t *testing.T) {
	var s Slab
	i, r := s.Alloc()
	r.Bases = append(r.Bases, 1, 2, 3)
	r.OK = true
	j, _ := s.Alloc()
	if s.Live() != 2 {
		t.Fatalf("live = %d, want 2", s.Live())
	}
	s.Free(i)
	k, r2 := s.Alloc()
	if k != i {
		t.Fatalf("freed record %d not reused (got %d)", i, k)
	}
	if r2.OK || len(r2.Bases) != 0 || cap(r2.Bases) < 3 {
		t.Fatalf("recycled record not cleared with capacity kept: %+v", r2)
	}
	s.Free(j)
	s.Free(k)
	if s.Live() != 0 {
		t.Fatalf("live = %d after freeing everything", s.Live())
	}
}

func TestSlabDoubleFreePanics(t *testing.T) {
	var s Slab
	i, _ := s.Alloc()
	s.Free(i)
	defer func() {
		if recover() == nil {
			t.Fatal("double free did not panic")
		}
	}()
	s.Free(i)
}
