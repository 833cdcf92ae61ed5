package service

import (
	"runtime"
	"sync"
	"testing"
	"time"
)

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition not reached")
		}
		runtime.Gosched()
		time.Sleep(time.Millisecond)
	}
}

func TestFairQueueSlotAccounting(t *testing.T) {
	q := NewFairQueue(2)
	if !q.Acquire("a") || !q.Acquire("a") {
		t.Fatal("uncontended Acquire failed")
	}
	if q.InUse() != 2 {
		t.Fatalf("InUse = %d, want 2", q.InUse())
	}
	done := make(chan bool)
	go func() { done <- q.Acquire("a") }()
	waitFor(t, func() bool { return q.Waiting() == 1 })
	q.Release("a", 10)
	if !<-done {
		t.Fatal("blocked Acquire returned false")
	}
	if q.InUse() != 2 {
		t.Fatalf("InUse after handoff = %d, want 2", q.InUse())
	}
	q.Release("a", 10)
	q.Release("a", 10)
	if q.InUse() != 0 {
		t.Fatalf("InUse after drain = %d, want 0", q.InUse())
	}
	if q.Attained("a") != 30 {
		t.Fatalf("Attained = %d, want 30", q.Attained("a"))
	}
}

// grantOrder parks one waiter per tenant (in the given spawn order, each
// confirmed parked before the next spawns), then frees the single slot and
// records the order in which tenants are granted it.
func grantOrder(t *testing.T, q *FairQueue, tenants []string) []string {
	t.Helper()
	var mu sync.Mutex
	var order []string
	var wg sync.WaitGroup
	for i, tenant := range tenants {
		wg.Add(1)
		go func(tenant string) {
			defer wg.Done()
			if !q.Acquire(tenant) {
				t.Error("Acquire failed")
				return
			}
			mu.Lock()
			order = append(order, tenant)
			mu.Unlock()
			q.Release(tenant, 1)
		}(tenant)
		want := i + 1
		waitFor(t, func() bool { return q.Waiting() == want })
	}
	q.Release("holder", 1) // free the slot the test held
	wg.Wait()
	return order
}

func TestFairQueueLeastAttainedWins(t *testing.T) {
	q := NewFairQueue(1)
	// Preload service history: heavy has consumed 1000 units, light 1.
	q.Acquire("heavy")
	q.Release("heavy", 1000)
	q.Acquire("light")
	q.Release("light", 1)
	q.Acquire("holder") // occupy the slot so waiters park

	// Spawn heavy first: arrival order must NOT beat attained service.
	order := grantOrder(t, q, []string{"heavy", "light"})
	if len(order) != 2 || order[0] != "light" || order[1] != "heavy" {
		t.Fatalf("grant order = %v, want [light heavy]", order)
	}
}

func TestFairQueueTieBreakDeterministic(t *testing.T) {
	q := NewFairQueue(1)
	q.Acquire("holder")
	// Equal (zero) attained service: lexicographically smaller tenant wins
	// regardless of arrival order.
	order := grantOrder(t, q, []string{"zeta", "beta", "alpha"})
	if len(order) != 3 || order[0] != "alpha" || order[1] != "beta" || order[2] != "zeta" {
		t.Fatalf("grant order = %v, want [alpha beta zeta]", order)
	}
}

func TestFairQueueFIFOWithinTenant(t *testing.T) {
	q := NewFairQueue(1)
	q.Acquire("holder")
	var mu sync.Mutex
	var order []int
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if !q.Acquire("same") {
				t.Error("Acquire failed")
				return
			}
			mu.Lock()
			order = append(order, i)
			mu.Unlock()
			q.Release("same", 1)
		}(i)
		want := i + 1
		waitFor(t, func() bool { return q.Waiting() == want })
	}
	q.Release("holder", 1)
	wg.Wait()
	for i, got := range order {
		if got != i {
			t.Fatalf("grant order = %v, want arrival order", order)
		}
	}
}

func TestFairQueueCloseWakesWaiters(t *testing.T) {
	q := NewFairQueue(1)
	q.Acquire("holder")
	results := make(chan bool, 3)
	for i := 0; i < 3; i++ {
		go func() { results <- q.Acquire("t") }()
	}
	waitFor(t, func() bool { return q.Waiting() == 3 })
	q.Close()
	for i := 0; i < 3; i++ {
		if <-results {
			t.Fatal("Acquire succeeded after Close")
		}
	}
	if q.Acquire("t") {
		t.Fatal("Acquire on closed queue succeeded")
	}
	// The outstanding slot's Release still balances.
	q.Release("holder", 1)
	if q.InUse() != 0 {
		t.Fatalf("InUse = %d, want 0", q.InUse())
	}
}

func TestFairQueueUnbalancedReleasePanics(t *testing.T) {
	defer func() {
		if r := recover(); r != errUnbalancedRelease {
			t.Fatalf("recovered %v, want errUnbalancedRelease", r)
		}
	}()
	NewFairQueue(1).Release("x", 1)
}

// TestFairQueueThroughputUnderContention floods the queue from many tenants
// and checks conservation: every Acquire is granted exactly once, slots
// never exceed the bound, and attained service sums to the charged total.
func TestFairQueueThroughputUnderContention(t *testing.T) {
	const slots, tenants, perTenant = 3, 5, 40
	q := NewFairQueue(slots)
	var inFlight, peak, granted int64
	var mu sync.Mutex
	var wg sync.WaitGroup
	names := []string{"a", "b", "c", "d", "e"}
	for ti := 0; ti < tenants; ti++ {
		for j := 0; j < perTenant; j++ {
			wg.Add(1)
			go func(tenant string) {
				defer wg.Done()
				if !q.Acquire(tenant) {
					t.Error("Acquire failed")
					return
				}
				mu.Lock()
				inFlight++
				granted++
				if inFlight > peak {
					peak = inFlight
				}
				mu.Unlock()
				runtime.Gosched()
				mu.Lock()
				inFlight--
				mu.Unlock()
				q.Release(tenant, 2)
			}(names[ti])
		}
	}
	wg.Wait()
	if peak > slots {
		t.Fatalf("peak in-flight %d exceeds %d slots", peak, slots)
	}
	if granted != tenants*perTenant {
		t.Fatalf("granted %d, want %d", granted, tenants*perTenant)
	}
	var sum uint64
	for _, n := range names {
		sum += q.Attained(n)
	}
	if sum != uint64(tenants*perTenant*2) {
		t.Fatalf("attained sum %d, want %d", sum, tenants*perTenant*2)
	}
	if q.InUse() != 0 || q.Waiting() != 0 {
		t.Fatalf("leaked state: InUse=%d Waiting=%d", q.InUse(), q.Waiting())
	}
}

// Attained returns the service units charged to tenant so far. It and the
// three observers below are test-only views of the queue's books. A tenant
// the queue has never seen (or has evicted) reports the eviction floor —
// the value it would be (re)admitted at.
func (q *FairQueue) Attained(tenant string) uint64 {
	q.mu.Lock()
	defer q.mu.Unlock()
	if st := q.tenants[tenant]; st != nil {
		return st.attained
	}
	return q.floor
}

// Tenants returns the number of tenants currently tracked.
func (q *FairQueue) Tenants() int {
	q.mu.Lock()
	defer q.mu.Unlock()
	return len(q.tenants)
}

// InUse returns the number of currently granted slots.
func (q *FairQueue) InUse() int {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.used
}

// Waiting returns the number of waiters parked in Acquire.
func (q *FairQueue) Waiting() int {
	q.mu.Lock()
	defer q.mu.Unlock()
	n := 0
	for _, st := range q.tenants {
		n += st.waiting
	}
	return n
}
