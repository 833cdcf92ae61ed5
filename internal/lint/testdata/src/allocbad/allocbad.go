package allocbad

type entry struct{ n int }

type Service struct {
	cache map[string]*entry
	last  *entry
}

// Do is a request hit path: the cached branch must not allocate, but this
// copy of it builds a fresh entry on every miss.
//
//alloc:zero the hit branch stays off the heap.
func (s *Service) Do(key string) int {
	if e, ok := s.cache[key]; ok {
		e.n++
		return e.n
	}
	e := &entry{n: 1} // want "Do allocates inside its //alloc:zero contract: &entry{...} escapes to heap"
	s.last = e
	return e.n
}

// Counter hands out the address of a local, which the compiler moves to
// the heap.
//
//alloc:zero
func Counter() *int {
	n := 0 // want "Counter allocates inside its //alloc:zero contract: moved to heap: n"
	return &n
}

// Spill has no contract, so its allocation is not a finding; the old
// waiver grammar on it is.
func Spill() *entry {
	return &entry{} //alloc:escape a cold path // want "unknown annotation"
}

//alloc:none // want "unknown annotation"
func none() {}

func misplaced() {
	//alloc:zero // want "must be in a function's doc comment"
	none()
}
