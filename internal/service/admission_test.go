package service

import (
	"runtime"
	"sync"
	"testing"
	"time"
)

// admissionDeadline bounds every wait in these tests, so a missing wake
// fails the test instead of hanging it.
const admissionDeadline = 5 * time.Second

// quiet is how long a waiter that should stay blocked is watched.
const quiet = 50 * time.Millisecond

// waitTickets polls until n admissions have taken a ticket.
func waitTickets(t *testing.T, s *Service, n uint64) {
	t.Helper()
	deadline := time.Now().Add(admissionDeadline)
	for {
		s.mu.Lock()
		got := s.tickets
		s.mu.Unlock()
		if got == n {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("%d admissions took a ticket, want %d", got, n)
		}
		runtime.Gosched()
		time.Sleep(time.Millisecond)
	}
}

// receive returns the next value on ch, failing the test at the deadline.
func receive[T any](t *testing.T, ch <-chan T, what string) T {
	t.Helper()
	select {
	case v := <-ch:
		return v
	case <-time.After(admissionDeadline):
		t.Fatalf("%s: no result within %v", what, admissionDeadline)
		panic("unreachable")
	}
}

// stillBlocked fails the test if ch yields a value within quiet.
func stillBlocked[T any](t *testing.T, ch <-chan T, what string) {
	t.Helper()
	select {
	case v := <-ch:
		t.Fatalf("%s returned %v while every slot was held", what, v)
	case <-time.After(quiet):
	}
}

// admitAsync calls s.admit on its own goroutine and reports its error.
func admitAsync(s *Service) <-chan error {
	done := make(chan error, 1)
	go func() { done <- s.admit() }()
	return done
}

// TestAdmissionSlots: with two slots, two admissions return at once and a
// third blocks until one of them is released.
func TestAdmissionSlots(t *testing.T) {
	s := New(Config{Slots: 2})
	defer s.Close()
	for i := 0; i < 2; i++ {
		if err := receive(t, admitAsync(s), "uncontended admit"); err != nil {
			t.Fatalf("uncontended admit: %v", err)
		}
	}
	third := admitAsync(s)
	waitTickets(t, s, 3)
	stillBlocked(t, third, "third admit")
	s.release()
	if err := receive(t, third, "third admit after a release"); err != nil {
		t.Fatalf("third admit: %v", err)
	}
	s.release()
	s.release()
}

// TestAdmissionOrder: waiters queued behind full slots are admitted one per
// release, in the order they arrived. A broadcast wakes every waiter, and
// which one the scheduler runs first varies, so the order is checked over
// several rounds: admission that ignores arrival order passes one round
// about half the time, and all of them almost never.
func TestAdmissionOrder(t *testing.T) {
	const slots, waiters, rounds = 2, 3, 8
	s := New(Config{Slots: slots})
	defer s.Close()
	for i := 0; i < slots; i++ {
		if err := receive(t, admitAsync(s), "uncontended admit"); err != nil {
			t.Fatalf("uncontended admit: %v", err)
		}
	}
	// A waiter reports its arrival index, or -1 if admit failed.
	admitted := make(chan int, waiters)
	for round := 0; round < rounds; round++ {
		s.mu.Lock()
		arrived := s.tickets
		s.mu.Unlock()
		for i := 0; i < waiters; i++ {
			go func(i int) {
				if s.admit() != nil {
					i = -1
				}
				admitted <- i
			}(i)
			arrived++
			waitTickets(t, s, arrived) // waiter i has arrived before i+1 starts
		}
		if round == 0 {
			stillBlocked(t, admitted, "a queued waiter")
		}
		for want := 0; want < waiters; want++ {
			s.release()
			if got := receive(t, admitted, "a queued waiter after a release"); got != want {
				t.Fatalf("round %d: release %d admitted waiter %d, want %d (arrival order)", round, want, got, want)
			}
			if round == 0 && want < waiters-1 {
				stillBlocked(t, admitted, "a second waiter after one release")
			}
		}
	}
	for i := 0; i < slots; i++ {
		s.release()
	}
}

// TestAdmissionClose: Close wakes a request waiting for a slot, and its Do
// returns ErrClosed; the slot granted before Close is still released.
func TestAdmissionClose(t *testing.T) {
	s := New(Config{Slots: 1})
	if err := receive(t, admitAsync(s), "uncontended admit"); err != nil {
		t.Fatalf("uncontended admit: %v", err)
	}
	done := make(chan error, 1)
	go func() {
		_, _, err := s.Do(baseRequest(testKeys(90, 500)))
		done <- err
	}()
	waitTickets(t, s, 2)
	stillBlocked(t, done, "a miss behind the held slot")
	s.Close()
	if err := receive(t, done, "a waiting Do after Close"); err != ErrClosed {
		t.Fatalf("waiting Do after Close: %v, want ErrClosed", err)
	}
	if err := receive(t, admitAsync(s), "admit after Close"); err != ErrClosed {
		t.Fatalf("admit after Close: %v, want ErrClosed", err)
	}
	s.release()
}

// TestAdmissionContention floods three slots from many goroutines: every
// admission is granted exactly once and no more than three hold a slot at
// any moment.
func TestAdmissionContention(t *testing.T) {
	const slots, callers = 3, 200
	s := New(Config{Slots: slots})
	defer s.Close()
	var mu sync.Mutex
	var inFlight, peak, granted int
	var wg sync.WaitGroup
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if s.admit() != nil {
				return
			}
			mu.Lock()
			inFlight++
			granted++
			peak = max(peak, inFlight)
			mu.Unlock()
			runtime.Gosched()
			mu.Lock()
			inFlight--
			mu.Unlock()
			s.release()
		}()
	}
	finished := make(chan struct{})
	go func() { wg.Wait(); close(finished) }()
	receive(t, finished, "the flood")
	if peak > slots {
		t.Fatalf("peak in-flight %d exceeds %d slots", peak, slots)
	}
	if granted != callers {
		t.Fatalf("granted %d admissions, want %d", granted, callers)
	}
	if s.tickets != s.released {
		t.Fatalf("%d tickets, %d released", s.tickets, s.released)
	}
}
