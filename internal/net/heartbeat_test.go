package net

import (
	"testing"
	"time"

	"optipart/internal/comm"
)

// The monitor and backoff are pure functions of injected instants and
// seeds, so these tests advance a fake clock by hand and never sleep.

func TestMonitorExpiry(t *testing.T) {
	base := time.Unix(1000, 0)
	m := NewMonitor(2 * time.Second)
	m.Touch(1, base)
	m.Touch(2, base)

	if got := m.Expired(base.Add(1999 * time.Millisecond)); len(got) != 0 {
		t.Fatalf("expired before timeout: %v", got)
	}
	m.Touch(2, base.Add(1500*time.Millisecond)) // rank 2 shows life
	if got := m.Expired(base.Add(2 * time.Second)); len(got) != 1 || got[0] != 1 {
		t.Fatalf("want [1] expired at the threshold, got %v", got)
	}
	if !m.Dead(1) || m.Dead(2) {
		t.Fatalf("death flags wrong: dead(1)=%v dead(2)=%v", m.Dead(1), m.Dead(2))
	}
	// A dead peer is reported exactly once and does not resurrect.
	m.Touch(1, base.Add(3*time.Second))
	if got := m.Expired(base.Add(10 * time.Second)); len(got) != 1 || got[0] != 2 {
		t.Fatalf("want [2] on the second sweep, got %v", got)
	}
}

func TestMonitorForget(t *testing.T) {
	base := time.Unix(0, 0)
	m := NewMonitor(time.Second)
	m.Touch(3, base)
	m.Forget(3) // clean departure
	if got := m.Expired(base.Add(time.Minute)); len(got) != 0 {
		t.Fatalf("forgotten peer reported dead: %v", got)
	}
}

func TestMonitorExpiredSorted(t *testing.T) {
	base := time.Unix(0, 0)
	m := NewMonitor(time.Second)
	for _, r := range []int{5, 1, 3, 2, 4} {
		m.Touch(r, base)
	}
	got := m.Expired(base.Add(2 * time.Second))
	want := []int{1, 2, 3, 4, 5}
	if len(got) != len(want) {
		t.Fatalf("got %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("not sorted: %v", got)
		}
	}
}

func TestBackoffSchedule(t *testing.T) {
	b := comm.Backoff{Base: 50 * time.Millisecond, Max: 2 * time.Second}
	want := []time.Duration{
		50 * time.Millisecond, 100 * time.Millisecond, 200 * time.Millisecond,
		400 * time.Millisecond, 800 * time.Millisecond, 1600 * time.Millisecond,
		2 * time.Second, 2 * time.Second,
	}
	for k, w := range want {
		if got := b.Delay(k); got != w {
			t.Fatalf("attempt %d: got %v want %v (no jitter)", k, got, w)
		}
	}
}

func TestBackoffJitterDeterministicAndBounded(t *testing.T) {
	b1 := comm.Backoff{Base: 50 * time.Millisecond, Max: 2 * time.Second, Jitter: 7}
	b2 := comm.Backoff{Base: 50 * time.Millisecond, Max: 2 * time.Second, Jitter: 7}
	b3 := comm.Backoff{Base: 50 * time.Millisecond, Max: 2 * time.Second, Jitter: 8}
	plain := comm.Backoff{Base: 50 * time.Millisecond, Max: 2 * time.Second}
	differs := false
	for k := 0; k < 10; k++ {
		d1, d2, d3 := b1.Delay(k), b2.Delay(k), b3.Delay(k)
		base := plain.Delay(k)
		if d1 != d2 {
			t.Fatalf("attempt %d: same seed gave %v and %v", k, d1, d2)
		}
		if d1 < base || float64(d1) > 1.25*float64(base) {
			t.Fatalf("attempt %d: jittered delay %v outside [%v, 1.25·%v]", k, d1, base, base)
		}
		if d1 != d3 {
			differs = true
		}
	}
	if !differs {
		t.Fatal("different seeds never decorrelated the schedule")
	}
}

func TestSplitEndpoint(t *testing.T) {
	cases := []struct {
		ep, network, addr string
	}{
		{"unix:/tmp/opt.sock", "unix", "/tmp/opt.sock"},
		{"tcp:example.org:7000", "tcp", "example.org:7000"},
		{"tcp::7000", "tcp", "127.0.0.1:7000"},
		{"tcp:0.0.0.0:7000", "tcp", "0.0.0.0:7000"},
	}
	for _, tc := range cases {
		network, addr, err := SplitEndpoint(tc.ep)
		if err != nil || network != tc.network || addr != tc.addr {
			t.Errorf("SplitEndpoint(%q) = %q, %q, %v; want %q, %q", tc.ep, network, addr, err, tc.network, tc.addr)
		}
	}
	for _, ep := range []string{"unix:", "tcp:", "", "/tmp/opt.sock", "udp::7000", "unix"} {
		if network, addr, err := SplitEndpoint(ep); err == nil {
			t.Errorf("SplitEndpoint(%q) = %q, %q; want an error", ep, network, addr)
		}
	}
}
