package fault

import (
	"testing"
	"time"
)

// All supervisor tests drive a fake clock: no test sleeps.

func TestRespawnBudgetSchedule(t *testing.T) {
	b := &RespawnBudget{MaxRespawns: 3, Base: 100 * time.Millisecond, Max: 1 * time.Second}
	now := time.Unix(1000, 0)

	want := []time.Duration{100 * time.Millisecond, 200 * time.Millisecond, 400 * time.Millisecond}
	for i, w := range want {
		d, ok := b.Next(7, now)
		if !ok {
			t.Fatalf("attempt %d: budget refused, want ok", i)
		}
		if d != w {
			t.Fatalf("attempt %d: delay %v, want %v", i, d, w)
		}
		now = now.Add(d)
	}
	if _, ok := b.Next(7, now); ok {
		t.Fatal("4th attempt allowed past MaxRespawns=3")
	}
	if got := b.Used(7, now); got != 3 {
		t.Fatalf("Used = %d, want 3", got)
	}
}

func TestRespawnBudgetCapsAtMax(t *testing.T) {
	b := &RespawnBudget{MaxRespawns: 6, Base: 100 * time.Millisecond, Max: 250 * time.Millisecond}
	now := time.Unix(1000, 0)
	var last time.Duration
	for i := 0; i < 6; i++ {
		d, ok := b.Next(1, now)
		if !ok {
			t.Fatalf("attempt %d refused", i)
		}
		last = d
	}
	if last != 250*time.Millisecond {
		t.Fatalf("backoff %v did not cap at Max 250ms", last)
	}
}

func TestRespawnBudgetWindowReplenishes(t *testing.T) {
	b := &RespawnBudget{MaxRespawns: 2, Base: 10 * time.Millisecond, Max: 10 * time.Millisecond, Window: time.Minute}
	now := time.Unix(2000, 0)
	for i := 0; i < 2; i++ {
		if _, ok := b.Next(3, now); !ok {
			t.Fatalf("attempt %d refused inside fresh budget", i)
		}
		now = now.Add(time.Second)
	}
	if _, ok := b.Next(3, now); ok {
		t.Fatal("budget not exhausted after MaxRespawns in window")
	}
	// A quiet minute forgets the old deaths.
	now = now.Add(2 * time.Minute)
	d, ok := b.Next(3, now)
	if !ok {
		t.Fatal("budget did not replenish after window passed")
	}
	if d != 10*time.Millisecond {
		t.Fatalf("replenished budget delay %v, want first-attempt 10ms", d)
	}
	if got := b.Used(3, now); got != 1 {
		t.Fatalf("Used after replenish = %d, want 1", got)
	}
}

func TestRespawnBudgetPerRank(t *testing.T) {
	b := &RespawnBudget{MaxRespawns: 1, Base: time.Millisecond, Max: time.Millisecond}
	now := time.Unix(3000, 0)
	if _, ok := b.Next(1, now); !ok {
		t.Fatal("rank 1 first attempt refused")
	}
	if _, ok := b.Next(1, now); ok {
		t.Fatal("rank 1 second attempt allowed")
	}
	// Rank 2's budget is untouched by rank 1's crash loop.
	if _, ok := b.Next(2, now); !ok {
		t.Fatal("rank 2 first attempt refused")
	}
}

func TestRespawnBudgetDefaults(t *testing.T) {
	b := &RespawnBudget{}
	now := time.Unix(4000, 0)
	ds := []time.Duration{}
	for {
		d, ok := b.Next(0, now)
		if !ok {
			break
		}
		ds = append(ds, d)
		if len(ds) > 10 {
			t.Fatal("default budget never exhausted")
		}
	}
	if len(ds) != 3 {
		t.Fatalf("default MaxRespawns = %d attempts, want 3", len(ds))
	}
	if ds[0] != 100*time.Millisecond || ds[1] != 200*time.Millisecond || ds[2] != 400*time.Millisecond {
		t.Fatalf("default schedule %v, want 100ms/200ms/400ms", ds)
	}
}

// Used reports how many attempts rank has charged inside the window as of
// now, without charging a new one. Only the schedule tests observe it.
func (b *RespawnBudget) Used(rank int, now time.Time) int {
	b.mu.Lock()
	defer b.mu.Unlock()
	n := 0
	for _, at := range b.attempts[rank] {
		if b.Window <= 0 || now.Sub(at) < b.Window {
			n++
		}
	}
	return n
}
