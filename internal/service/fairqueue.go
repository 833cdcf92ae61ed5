package service

import (
	"errors"
	"sync"
)

// errUnbalancedRelease reports a Release not paired with an Acquire.
var errUnbalancedRelease = errors.New("service: FairQueue.Release without matching Acquire")

// MaxTenants bounds the queue's tenant table. Tenant names are
// client-chosen strings, so without a bound a client cycling through fresh
// names grows the accounting maps by one entry per name forever — the
// unboundedgrowth bug class. When the table is full, idle tenants (no
// waiters, no held slots) are evicted in ascending-attained order, and the
// eviction floor rises to the evicted tenant's attained service so a tenant
// cannot leave, rejoin under the same or a fresh name, and restart at zero
// priority debt.
const MaxTenants = 1024

// tenantState is the per-tenant accounting record.
type tenantState struct {
	attained uint64 // total service units consumed
	waiting  int    // waiters parked in Acquire
	holding  int    // slots currently granted
}

// FairQueue is the admission scheduler for the partitioning service: a
// bounded pool of execution slots shared by competing tenants, granted in
// least-attained-service order. Each tenant (a campaign, a client, a load
// class — any string the caller picks) accumulates the service it has
// consumed; when a slot frees, the waiting tenant with the least attained
// service wins it, FIFO within a tenant, with deterministic tie-breaks
// (lexicographically smaller tenant first, then arrival order). A tenant
// that hammers the service with expensive requests therefore cannot starve
// a light interactive tenant: the light tenant's attained service stays
// low, so its requests jump the heavy tenant's backlog.
//
// The queue is built on a mutex and a condition variable only — no
// channels, no goroutines of its own — so it composes with the repo's
// determinism rules and can be exercised single-threaded in tests. The
// tenant table is bounded (MaxTenants): idle tenants are evicted
// least-attained-first and new or rejoining tenants start at the eviction
// floor, so forgetting a tenant never lowers anyone's priority debt.
type FairQueue struct {
	mu   sync.Mutex
	cond *sync.Cond

	slots int // total execution slots
	used  int // slots currently granted

	tenants  map[string]*tenantState
	floor    uint64 // attained service assigned to new/rejoining tenants
	arrivals uint64 // global arrival counter for FIFO tickets

	// head ticket per tenant: a waiter may only win a slot if it holds the
	// oldest outstanding ticket of its tenant (FIFO within tenant).
	tickets map[string][]uint64

	closed bool
}

// NewFairQueue returns a queue with the given number of execution slots.
// slots < 1 is treated as 1.
func NewFairQueue(slots int) *FairQueue {
	if slots < 1 {
		slots = 1
	}
	q := &FairQueue{
		slots:   slots,
		tenants: map[string]*tenantState{},
		tickets: map[string][]uint64{},
	}
	q.cond = sync.NewCond(&q.mu)
	return q
}

// tenantLocked returns tenant's accounting record, creating it at the
// eviction floor (and evicting an idle tenant if the table is full).
func (q *FairQueue) tenantLocked(tenant string) *tenantState {
	st := q.tenants[tenant]
	if st == nil {
		if len(q.tenants) >= MaxTenants {
			q.evictLocked()
		}
		st = &tenantState{attained: q.floor}
		q.tenants[tenant] = st
	}
	return st
}

// evictLocked removes the idle tenant with the least attained service
// (ties broken lexicographically, for determinism) and raises the floor to
// its attained value. If every tenant is active the table grows past
// MaxTenants — active tenants are bounded by live callers, not by names.
func (q *FairQueue) evictLocked() {
	victim := ""
	var victimSt *tenantState
	for name, st := range q.tenants {
		if st.waiting > 0 || st.holding > 0 {
			continue
		}
		if victimSt == nil || st.attained < victimSt.attained ||
			(st.attained == victimSt.attained && name < victim) {
			victim, victimSt = name, st
		}
	}
	if victimSt == nil {
		return
	}
	if victimSt.attained > q.floor {
		q.floor = victimSt.attained
	}
	delete(q.tenants, victim)
}

// Acquire blocks until the caller holds an execution slot, then returns
// true. It returns false (without a slot) if the queue is closed while
// waiting. Callers must pair every successful Acquire with Release.
func (q *FairQueue) Acquire(tenant string) bool {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.closed {
		return false
	}
	ticket := q.arrivals
	q.arrivals++
	q.tickets[tenant] = append(q.tickets[tenant], ticket)
	st := q.tenantLocked(tenant)
	st.waiting++
	for !q.closed && !q.eligibleLocked(tenant, ticket) {
		q.cond.Wait()
	}
	st.waiting--
	q.dropTicketLocked(tenant, ticket)
	if q.closed {
		q.cond.Broadcast()
		return false
	}
	q.used++
	st.holding++
	return true
}

// eligibleLocked reports whether the waiter (tenant, ticket) should win a
// free slot now: a slot is free, the ticket is the tenant's oldest, and no
// other waiting tenant has strictly higher priority.
func (q *FairQueue) eligibleLocked(tenant string, ticket uint64) bool {
	if q.used >= q.slots {
		return false
	}
	ts := q.tickets[tenant]
	if len(ts) == 0 || ts[0] != ticket {
		return false // FIFO within tenant: only the head ticket competes.
	}
	mine := q.tenants[tenant].attained
	for other, st := range q.tenants {
		if st.waiting == 0 || other == tenant {
			continue
		}
		if st.attained < mine || (st.attained == mine && other < tenant) {
			return false
		}
	}
	return true
}

// dropTicketLocked removes the waiter's ticket from its tenant's FIFO.
func (q *FairQueue) dropTicketLocked(tenant string, ticket uint64) {
	ts := q.tickets[tenant]
	for i, t := range ts {
		if t == ticket {
			ts = append(ts[:i], ts[i+1:]...)
			break
		}
	}
	if len(ts) == 0 {
		delete(q.tickets, tenant)
	} else {
		q.tickets[tenant] = ts
	}
}

// Release returns a slot and charges cost service units to the tenant.
// Cost is whatever unit the caller accounts in (keys sorted, nanoseconds,
// trials run); it only needs to be comparable across tenants. cost < 1 is
// charged as 1 so every completed request advances the tenant's attained
// service and ties cannot persist forever.
func (q *FairQueue) Release(tenant string, cost uint64) {
	if cost < 1 {
		cost = 1
	}
	q.mu.Lock()
	q.used--
	if q.used < 0 {
		q.mu.Unlock()
		panic(errUnbalancedRelease)
	}
	st := q.tenantLocked(tenant)
	if st.holding > 0 {
		st.holding--
	}
	st.attained += cost
	q.mu.Unlock()
	q.cond.Broadcast()
}

// Close wakes every waiter with a failed acquisition and makes future
// Acquires fail immediately. Slots already granted remain valid; their
// Releases still balance the books.
func (q *FairQueue) Close() {
	q.mu.Lock()
	q.closed = true
	q.mu.Unlock()
	q.cond.Broadcast()
}
