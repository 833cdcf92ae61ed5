package main

import (
	"math/rand"
	"testing"
)

func TestOrderCoversAllNodes(t *testing.T) {
	torus := Torus{NX: 5, NY: 4, NZ: 3}
	for _, policy := range []Policy{Linear, MortonOrder, HilbertOrder} {
		order := orderNodes(torus, policy)
		if len(order) != torus.Nodes() {
			t.Fatalf("%v: order has %d nodes, want %d", policy, len(order), torus.Nodes())
		}
		seen := map[Coord]bool{}
		for _, c := range order {
			if seen[c] {
				t.Fatalf("%v: node %v visited twice", policy, c)
			}
			if c.X >= torus.NX || c.Y >= torus.NY || c.Z >= torus.NZ {
				t.Fatalf("%v: node %v out of torus", policy, c)
			}
			seen[c] = true
		}
	}
}

func TestHopDistanceWraps(t *testing.T) {
	torus := Torus{NX: 10, NY: 10, NZ: 10}
	if d := torus.HopDistance(Coord{0, 0, 0}, Coord{9, 0, 0}); d != 1 {
		t.Fatalf("wrap distance = %d, want 1", d)
	}
	if d := torus.HopDistance(Coord{0, 0, 0}, Coord{5, 5, 5}); d != 15 {
		t.Fatalf("antipodal distance = %d, want 15", d)
	}
	if d := torus.HopDistance(Coord{3, 4, 5}, Coord{3, 4, 5}); d != 0 {
		t.Fatalf("self distance = %d", d)
	}
}

func TestAllocFreeCycle(t *testing.T) {
	torus := Torus{NX: 4, NY: 4, NZ: 4}
	a := NewAllocator(torus, HilbertOrder)
	total := torus.Nodes()
	j1 := a.Alloc(10)
	j2 := a.Alloc(20)
	if j1 == nil || j2 == nil {
		t.Fatal("allocations failed on an empty machine")
	}
	if a.FreeNodes() != total-30 {
		t.Fatalf("free count %d, want %d", a.FreeNodes(), total-30)
	}
	a.Free(j1)
	if a.FreeNodes() != total-20 {
		t.Fatalf("free count after release %d, want %d", a.FreeNodes(), total-20)
	}
	// The freed run must be reusable.
	j3 := a.Alloc(10)
	if j3 == nil {
		t.Fatal("could not reuse freed nodes")
	}
	// Exhaust the machine.
	rest := a.Alloc(a.FreeNodes())
	if rest == nil {
		t.Fatal("could not allocate the full remainder")
	}
	if a.Alloc(1) != nil {
		t.Fatal("allocated on a full machine")
	}
}

func TestAllocTooBig(t *testing.T) {
	a := NewAllocator(Torus{NX: 2, NY: 2, NZ: 2}, Linear)
	if got := a.Alloc(9); got != nil {
		t.Fatal("allocated more nodes than exist")
	}
}

func TestHilbertAllocationsMoreCompact(t *testing.T) {
	// The §1/§2 claim: SFC-ordered allocation keeps jobs geometrically
	// compact. Compare mean pairwise hops of mid-size jobs on an empty
	// Titan-like torus across policies.
	torus := TitanTorus()
	avg := func(policy Policy, jobSize int) float64 {
		a := NewAllocator(torus, policy)
		var sum float64
		n := 0
		for {
			job := a.Alloc(jobSize)
			if job == nil {
				break
			}
			sum += torus.AvgPairwiseHops(job)
			n++
		}
		return sum / float64(n)
	}
	for _, jobSize := range []int{32, 128} {
		lin := avg(Linear, jobSize)
		hil := avg(HilbertOrder, jobSize)
		if hil >= lin {
			t.Fatalf("job size %d: Hilbert allocation hops %f not below linear %f", jobSize, hil, lin)
		}
	}
}

func TestFragmentationUnderChurn(t *testing.T) {
	// Allocate and free randomly; the allocator must neither leak nor
	// corrupt its free list, and jobs must stay disjoint.
	torus := Torus{NX: 8, NY: 8, NZ: 8}
	a := NewAllocator(torus, MortonOrder)
	rng := rand.New(rand.NewSource(77))
	live := make(map[int][]Coord)
	used := make(map[Coord]int)
	next := 0
	for step := 0; step < 500; step++ {
		if rng.Intn(2) == 0 || len(live) == 0 {
			size := 1 + rng.Intn(30)
			job := a.Alloc(size)
			if job == nil {
				continue
			}
			for _, c := range job {
				if owner, taken := used[c]; taken {
					t.Fatalf("node %v double-allocated (job %d)", c, owner)
				}
				used[c] = next
			}
			live[next] = job
			next++
		} else {
			// Free a random live job.
			for id, job := range live {
				a.Free(job)
				for _, c := range job {
					delete(used, c)
				}
				delete(live, id)
				break
			}
		}
	}
	want := torus.Nodes() - len(used)
	if a.FreeNodes() != want {
		t.Fatalf("free-node accounting drifted: %d, want %d", a.FreeNodes(), want)
	}
}

func TestBoundingVolume(t *testing.T) {
	if v := BoundingVolume(nil); v != 0 {
		t.Fatalf("empty volume %d", v)
	}
	if v := BoundingVolume([]Coord{{1, 1, 1}}); v != 1 {
		t.Fatalf("single volume %d", v)
	}
	v := BoundingVolume([]Coord{{0, 0, 0}, {1, 2, 3}})
	if v != 2*3*4 {
		t.Fatalf("box volume %d, want 24", v)
	}
}

// FreeNodes returns the number of unallocated nodes. Only the allocator's
// tests count them.
func (a *Allocator) FreeNodes() int {
	n := 0
	for _, r := range a.free {
		n += r.hi - r.lo
	}
	return n
}
