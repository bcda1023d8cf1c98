package util

import "unsafe"

// Slab carves runs of T from chunks that double from 512 bytes to 16 KiB and
// gives them back only all together, to another Slab's Recycle: memory whose
// users end together (an evicted P_N) is carved again without an allocation.
// The zero Slab is ready; it is not safe for concurrent use.
type Slab[T any] struct {
	cur        []T // the rest of the chunk being carved
	used, free [][]T
}

// Alloc returns a run of n elements. A recycled run holds what it held.
func (s *Slab[T]) Alloc(n int) []T {
	if len(s.cur) < n {
		for len(s.free) > 0 && len(s.free[0]) < n {
			s.free = s.free[1:] // too short: left to the garbage collector
		}
		if len(s.free) > 0 { // in the order they were first carved
			s.cur, s.free = s.free[0], s.free[1:]
		} else {
			s.cur = make([]T, max(n, 512<<min(len(s.used), 5)/int(unsafe.Sizeof(*new(T)))))
		}
		s.used = append(s.used, s.cur)
	}
	r := s.cur[:n:n]
	s.cur = s.cur[n:]
	return r
}

// Recycle gives the chunks from carved from to s, drops the ones it left idle
// and empties from. Nothing may use a run carved from from afterwards.
func (s *Slab[T]) Recycle(from *Slab[T]) {
	s.free = append(s.free, from.used...)
	*from = Slab[T]{}
}
