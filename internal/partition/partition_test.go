package partition

import (
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"optipart/internal/comm"
	"optipart/internal/machine"
	"optipart/internal/octree"
	"optipart/internal/psort"
	"optipart/internal/sfc"
)

// runPartition executes Partition across p ranks over a deterministic
// random workload and returns the per-rank results.
func runPartition(t *testing.T, p, perRank int, kind sfc.Kind, opts Options) []*Result {
	t.Helper()
	curve := sfc.NewCurve(kind, 3)
	opts.Curve = curve
	if opts.Machine.Name == "" {
		opts.Machine = machine.Wisconsin8()
	}
	results := make([]*Result, p)
	comm.Run(p, comm.CostModel{}, func(c *comm.Comm) {
		rng := rand.New(rand.NewSource(int64(1000 + c.Rank())))
		local := octree.RandomKeys(rng, perRank, 3, octree.Normal, 2, 12)
		results[c.Rank()] = Partition(c, local, opts)
	})
	return results
}

// TestPartitionSortedMatchesPartition: on curve-sorted blocks with their
// rank column, PartitionSorted returns what Partition returns on the same
// blocks — elements after the exchange, separators, quality, prediction,
// rounds and achieved tolerance — and its world the same modeled clocks,
// phase times, messages and bytes, so skipping the sort skips no charge.
// Both curves, 2-D and 3-D, every mode, and p in {1, 3, 8}.
func TestPartitionSortedMatchesPartition(t *testing.T) {
	m := machine.Wisconsin8()
	for _, kind := range []sfc.Kind{sfc.Morton, sfc.Hilbert} {
		for _, dim := range []int{2, 3} {
			curve := sfc.NewCurve(kind, dim)
			rng := rand.New(rand.NewSource(int64(41 + dim)))
			keys := octree.RandomKeys(rng, 2400, dim, octree.Normal, 2, 12)
			psort.TreeSort(curve, keys) // sorted, duplicates kept
			ranks := make([]sfc.Rank128, len(keys))
			for i, k := range keys {
				ranks[i] = curve.Rank(k)
			}
			for _, mode := range []Mode{EqualWork, FlexibleTolerance, ModelDriven} {
				opts := Options{Curve: curve, Mode: mode, Tol: 0.2, Machine: m}
				for _, p := range []int{1, 3, 8} {
					run := func(sorted bool) ([]*Result, *comm.Stats) {
						res := make([]*Result, p)
						stats, err := comm.RunChecked(p, m.CostModel(), func(c *comm.Comm) error {
							lo, hi := len(keys)*c.Rank()/p, len(keys)*(c.Rank()+1)/p
							block := slices.Clone(keys[lo:hi])
							if sorted {
								res[c.Rank()] = PartitionSorted(c, block, ranks[lo:hi], opts)
							} else {
								res[c.Rank()] = Partition(c, block, opts)
							}
							return nil
						})
						if err != nil {
							t.Fatal(err)
						}
						return res, stats
					}
					want, wantStats := run(false)
					got, gotStats := run(true)
					for r := range want {
						w, g := want[r], got[r]
						if !slices.Equal(g.Local, w.Local) || !slices.Equal(g.Splitters.Seps, w.Splitters.Seps) ||
							g.Quality != w.Quality || g.Predicted != w.Predicted || g.Rounds != w.Rounds || g.AchievedTol != w.AchievedTol {
							t.Fatalf("%v dim=%d %v p=%d rank %d: PartitionSorted %+v, Partition %+v", kind, dim, mode, p, r, g, w)
						}
					}
					if !reflect.DeepEqual(gotStats, wantStats) {
						t.Fatalf("%v dim=%d %v p=%d: PartitionSorted stats %+v, Partition %+v", kind, dim, mode, p, gotStats, wantStats)
					}
				}
			}
		}
	}
}

func checkDistribution(t *testing.T, results []*Result, kind sfc.Kind, wantN int) {
	t.Helper()
	curve := sfc.NewCurve(kind, 3)
	sp := results[0].Splitters
	total := 0
	var prevLast *sfc.Key
	for r, res := range results {
		total += len(res.Local)
		if !psort.IsSorted(curve, res.Local) {
			t.Fatalf("rank %d output not sorted", r)
		}
		for _, k := range res.Local {
			if sp.Owner(k) != r {
				t.Fatalf("rank %d holds %v owned by %d", r, k, sp.Owner(k))
			}
		}
		if prevLast != nil && len(res.Local) > 0 && curve.Compare(res.Local[0], *prevLast) < 0 {
			t.Fatalf("rank %d range starts before rank %d ends", r, r-1)
		}
		if len(res.Local) > 0 {
			last := res.Local[len(res.Local)-1]
			prevLast = &last
		}
	}
	if total != wantN {
		t.Fatalf("lost elements: %d, want %d", total, wantN)
	}
}

func TestEqualWorkPartition(t *testing.T) {
	for _, kind := range []sfc.Kind{sfc.Morton, sfc.Hilbert} {
		p, perRank := 8, 600
		results := runPartition(t, p, perRank, kind, Options{Mode: EqualWork})
		checkDistribution(t, results, kind, p*perRank)
		q := results[0].Quality
		// Equal-work should land within a few elements of N/p unless the
		// data has heavy duplication (our generator's duplicates are rare).
		grain := float64(p*perRank) / float64(p)
		if float64(q.Wmax) > grain*1.05 {
			t.Fatalf("%v: equal-work Wmax %d too far above grain %f", kind, q.Wmax, grain)
		}
	}
}

func TestFlexibleToleranceRespectsBound(t *testing.T) {
	for _, tol := range []float64{0.1, 0.3, 0.5} {
		results := runPartition(t, 8, 600, sfc.Hilbert, Options{Mode: FlexibleTolerance, Tol: tol})
		if got := results[0].AchievedTol; got > tol+1e-9 {
			t.Fatalf("tol=%f: achieved tolerance %f exceeds the bound", tol, got)
		}
		checkDistribution(t, results, sfc.Hilbert, 8*600)
	}
}

func TestToleranceTradeoff(t *testing.T) {
	// The paper's core claim (§3.2, Figures 11/12): a generous tolerance
	// trades extra load imbalance for less boundary surface. Individual
	// steps can jitter (the paper's own Figure 12 shows a kink for Morton),
	// so compare the endpoints of the sweep.
	qAt := func(tol float64) Quality {
		results := runPartition(t, 16, 500, sfc.Hilbert, Options{Mode: FlexibleTolerance, Tol: tol, SkipExchange: true})
		return results[0].Quality
	}
	tight, loose := qAt(0.0), qAt(0.5)
	if loose.Ctot >= tight.Ctot {
		t.Fatalf("total boundary did not shrink: tol=0 Ctot=%d, tol=0.5 Ctot=%d", tight.Ctot, loose.Ctot)
	}
	if loose.Wmax < tight.Wmax {
		t.Fatalf("load imbalance shrank with larger tolerance: %d -> %d", tight.Wmax, loose.Wmax)
	}
}

func TestOptiPartBeatsEqualWorkOnSlowNetwork(t *testing.T) {
	// On a communication-bound machine (CloudLab 10 GbE) the model must
	// choose a partition whose predicted time is no worse than equal-work.
	m := machine.Clemson32()
	equal := runPartition(t, 16, 500, sfc.Hilbert, Options{Mode: EqualWork, Machine: m, SkipExchange: true})
	opti := runPartition(t, 16, 500, sfc.Hilbert, Options{Mode: ModelDriven, Machine: m, SkipExchange: true})
	if opti[0].Predicted > equal[0].Predicted {
		t.Fatalf("OptiPart predicted %g worse than equal-work %g", opti[0].Predicted, equal[0].Predicted)
	}
}

func TestOptiPartExchange(t *testing.T) {
	p := 8
	results := runPartition(t, p, 400, sfc.Hilbert, Options{Mode: ModelDriven})
	checkDistribution(t, results, sfc.Hilbert, p*400)
}

func TestSplittersIdenticalAcrossRanks(t *testing.T) {
	results := runPartition(t, 6, 300, sfc.Morton, Options{Mode: ModelDriven, SkipExchange: true})
	ref := results[0].Splitters.Seps
	for r := 1; r < len(results); r++ {
		got := results[r].Splitters.Seps
		if len(got) != len(ref) {
			t.Fatalf("rank %d has %d separators, rank 0 has %d", r, len(got), len(ref))
		}
		for i := range ref {
			if got[i] != ref[i] {
				t.Fatalf("rank %d separator %d differs: %v vs %v", r, i, got[i], ref[i])
			}
		}
	}
}

func TestOwnerSeparatorSemantics(t *testing.T) {
	curve := sfc.NewCurve(sfc.Hilbert, 3)
	a := curve.KeyAtIndex(10, 5)
	b := curve.KeyAtIndex(100, 5)
	sp := &Splitters{Curve: curve, Seps: []sfc.Key{a, b}}
	if got := sp.Owner(curve.KeyAtIndex(0, 5)); got != 0 {
		t.Fatalf("key before first separator owned by %d", got)
	}
	if got := sp.Owner(a); got != 1 {
		t.Fatalf("separator key itself owned by %d, want 1", got)
	}
	if got := sp.Owner(curve.KeyAtIndex(50, 5)); got != 1 {
		t.Fatalf("middle key owned by %d, want 1", got)
	}
	if got := sp.Owner(b); got != 2 {
		t.Fatalf("second separator key owned by %d, want 2", got)
	}
	// A descendant of a separator belongs to the right side.
	if got := sp.Owner(a.Child(0)); got != 1 {
		t.Fatalf("descendant of separator owned by %d, want 1", got)
	}
}

func TestOwnerInfinity(t *testing.T) {
	curve := sfc.NewCurve(sfc.Morton, 3)
	sp := &Splitters{Curve: curve, Seps: []sfc.Key{InfKey}}
	k := sfc.Key{X: ^uint32(0) >> 2, Y: ^uint32(0) >> 2, Z: ^uint32(0) >> 2, Level: sfc.MaxLevel}
	if got := sp.Owner(k); got != 0 {
		t.Fatalf("everything must precede InfKey, got owner %d", got)
	}
}

func TestRanges(t *testing.T) {
	curve := sfc.NewCurve(sfc.Morton, 2)
	keys := make([]sfc.Key, 0, 16)
	for i := uint64(0); i < 16; i++ {
		keys = append(keys, curve.KeyAtIndex(i, 2))
	}
	sp := &Splitters{Curve: curve, Seps: []sfc.Key{keys[4], keys[8], keys[8]}}
	r := sp.Ranges(keys)
	want := []int{0, 4, 8, 8, 16}
	for i := range want {
		if r[i] != want[i] {
			t.Fatalf("Ranges = %v, want %v", r, want)
		}
	}
}

func TestEvaluateQualityUniformGrid(t *testing.T) {
	// A 4x4x4 uniform grid split into 4 slabs along the curve: work is
	// exactly 16 per partition; every octant on a slab boundary is a
	// boundary octant.
	curve := sfc.NewCurve(sfc.Morton, 3)
	var keys []sfc.Key
	for i := uint64(0); i < 64; i++ {
		keys = append(keys, curve.KeyAtIndex(i, 2))
	}
	var q Quality
	comm.Run(2, comm.CostModel{}, func(c *comm.Comm) {
		// Split the elements across 2 ranks arbitrarily.
		var local []sfc.Key
		for i, k := range keys {
			if i%2 == c.Rank() {
				local = append(local, k)
			}
		}
		sp := &Splitters{Curve: curve, Seps: []sfc.Key{keys[32]}}
		got := EvaluateQuality(c, curve, local, sp)
		if c.Rank() == 0 {
			q = got
		}
	})
	if q.N != 64 || q.Wmax != 32 || q.Wmin != 32 {
		t.Fatalf("work counts wrong: %+v", q)
	}
	if q.Cmax == 0 || q.Cmax > 32 {
		t.Fatalf("implausible boundary count: %+v", q)
	}
}

func TestMaxSplittersStagingChangesNothing(t *testing.T) {
	// The staged splitter selection (k < p) must produce identical
	// partitions, only different reduction traffic.
	full := runPartition(t, 8, 300, sfc.Hilbert, Options{Mode: EqualWork, SkipExchange: true})
	staged := runPartition(t, 8, 300, sfc.Hilbert, Options{Mode: EqualWork, MaxSplitters: 2, SkipExchange: true})
	for i := range full[0].Splitters.Seps {
		if full[0].Splitters.Seps[i] != staged[0].Splitters.Seps[i] {
			t.Fatalf("separator %d differs under staging", i)
		}
	}
}

func TestPartitionSingleRank(t *testing.T) {
	results := runPartition(t, 1, 200, sfc.Hilbert, Options{Mode: ModelDriven})
	if len(results[0].Local) != 200 {
		t.Fatalf("single rank lost elements: %d", len(results[0].Local))
	}
	if results[0].Quality.Wmax != 200 {
		t.Fatalf("single rank quality wrong: %+v", results[0].Quality)
	}
}

func TestPartitionEmptyInput(t *testing.T) {
	curve := sfc.NewCurve(sfc.Morton, 3)
	comm.Run(4, comm.CostModel{}, func(c *comm.Comm) {
		res := Partition(c, nil, Options{Curve: curve, Mode: EqualWork, Machine: machine.Titan()})
		if len(res.Local) != 0 {
			t.Errorf("rank %d received %d elements from empty input", c.Rank(), len(res.Local))
		}
	})
}

func TestHilbertBoundaryNotWorseThanMorton(t *testing.T) {
	// §5.5: the Hilbert curve's better locality yields a smaller total
	// partition boundary than Morton on the same adaptive mesh. The gap
	// shows when partition boundaries are not subtree-aligned, so use a
	// rank count that is not a power of eight (the paper's Clemson runs
	// use 1792 = 2^8·7 tasks).
	rng := rand.New(rand.NewSource(99))
	mesh := octree.AdaptiveMesh(rng, 3000, 3, octree.Normal, 8)
	p := 24
	qualityFor := func(kind sfc.Kind) Quality {
		curve := sfc.NewCurve(kind, 3)
		var q Quality
		comm.Run(p, comm.CostModel{}, func(c *comm.Comm) {
			var local []sfc.Key
			for i, k := range mesh.Leaves {
				if i%p == c.Rank() {
					local = append(local, k)
				}
			}
			res := Partition(c, local, Options{Curve: curve, Mode: EqualWork, Machine: machine.Wisconsin8(), SkipExchange: true})
			if c.Rank() == 0 {
				q = res.Quality
			}
		})
		return q
	}
	m, h := qualityFor(sfc.Morton), qualityFor(sfc.Hilbert)
	if h.Ctot >= m.Ctot {
		t.Fatalf("Hilbert total boundary %d not better than Morton %d", h.Ctot, m.Ctot)
	}
}

func TestParseMode(t *testing.T) {
	for s, want := range map[string]Mode{
		"equal": EqualWork, "equal-work": EqualWork, "Flexible": FlexibleTolerance, "optipart": ModelDriven, "OptiPart": ModelDriven,
	} {
		if got, err := ParseMode(s); err != nil || got != want {
			t.Errorf("ParseMode(%q) = %v, %v; want %v", s, got, err, want)
		}
	}
	for _, s := range []string{"greedy", "", "flex", "Mode(2)"} {
		if _, err := ParseMode(s); err == nil {
			t.Errorf("ParseMode(%q) accepted", s)
		}
	}
}
