package comm

import (
	"slices"
	"testing"
)

func TestAllgatherEmptyContributions(t *testing.T) {
	Run(4, CostModel{}, func(c *Comm) {
		var local []int64
		if c.Rank() == 2 {
			local = []int64{7}
		}
		got := Allgather(c, local, 8)
		if len(got) != 1 || got[0] != 7 {
			t.Errorf("rank %d: got %v", c.Rank(), got)
		}
	})
}

func TestAlltoallvAllEmpty(t *testing.T) {
	stats := Run(3, CostModel{Ts: 1}, func(c *Comm) {
		send := make([][]int64, 3)
		recv := Alltoallv(c, send, 8, AlltoallvOptions{})
		for src, r := range recv {
			if len(r) != 0 {
				t.Errorf("rank %d received %d elements from %d", c.Rank(), len(r), src)
			}
		}
	})
	// No active stages: no latency charged for the exchange itself.
	if stats.TotalMsgs() != 0 {
		t.Fatalf("empty exchange sent %d messages", stats.TotalMsgs())
	}
}

func TestSparsePricing(t *testing.T) {
	model := CostModel{Ts: 1e-3, Tw: 1e-6}
	stats := Run(8, model, func(c *Comm) {
		send := make([][]int64, 8)
		// Every rank talks to exactly two neighbors.
		send[(c.Rank()+1)%8] = make([]int64, 100)
		send[(c.Rank()+7)%8] = make([]int64, 50)
		_ = Alltoallv(c, send, 8, AlltoallvOptions{Sparse: true})
	})
	// Sparse cost: ts·maxMsgs + tw·maxBytes = 1e-3·2 + 1e-6·1200.
	want := 2e-3 + 1e-6*1200
	if diff := stats.Time() - want; diff > 1e-12 || diff < -1e-12 {
		t.Fatalf("sparse exchange cost %g, want %g", stats.Time(), want)
	}
}

func TestAllreduceStructPayload(t *testing.T) {
	// A reduction over a struct payload with a caller-supplied combine.
	type pair struct{ A, B int64 }
	Run(5, CostModel{}, func(c *Comm) {
		got := AllreduceScalar(c, pair{1, int64(c.Rank())}, 16, func(x, y pair) pair {
			return pair{x.A + y.A, max(x.B, y.B)}
		})
		if got.A != 5 || got.B != 4 {
			t.Errorf("rank %d: allreduce = %+v", c.Rank(), got)
		}
	})
}

func TestStatsPhases(t *testing.T) {
	stats := Run(2, CostModel{}, func(c *Comm) {
		c.SetPhase("alpha")
		c.Elapse(1)
		if c.Rank() == 1 {
			c.SetPhase("beta")
			c.Elapse(2)
		}
	})
	names := stats.Phases()
	has := map[string]bool{}
	for _, n := range names {
		has[n] = true
	}
	if !has["alpha"] || !has["beta"] {
		t.Fatalf("phases = %v", names)
	}
	if got := stats.Phase("beta"); got != 2 {
		t.Fatalf("beta = %g", got)
	}
	if got := stats.Phase("nonexistent"); got != 0 {
		t.Fatalf("missing phase = %g", got)
	}
}

func TestPhaseClockPerRank(t *testing.T) {
	Run(3, CostModel{}, func(c *Comm) {
		c.SetPhase("work")
		c.Elapse(float64(c.Rank()))
		if got := c.PhaseClock("work"); got != float64(c.Rank()) {
			t.Errorf("rank %d: PhaseClock = %g", c.Rank(), got)
		}
	})
}

func TestCollectivesAfterCollectives(t *testing.T) {
	// Back-to-back collectives of different types must not interfere
	// (slot/scratch reuse safety).
	Run(6, CostModel{}, func(c *Comm) {
		for i := 0; i < 20; i++ {
			s := AllreduceScalar(c, int64(1), 8, SumI64)
			if s != 6 {
				t.Errorf("iter %d: sum %d", i, s)
				return
			}
			g := Allgather(c, []int64{int64(c.Rank())}, 8)
			if len(g) != 6 {
				t.Errorf("iter %d: gathered %d", i, len(g))
				return
			}
			c.Barrier()
		}
	})
}

// Phases returns the set of phase names seen on any rank, sorted so the
// result is independent of map iteration order. Only tests list phases.
func (s *Stats) Phases() []string {
	seen := map[string]bool{}
	var names []string
	for _, m := range s.PhaseTimes {
		for name := range m {
			if !seen[name] {
				seen[name] = true
				names = append(names, name)
			}
		}
	}
	slices.Sort(names)
	return names
}
