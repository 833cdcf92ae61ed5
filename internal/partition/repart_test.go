package partition

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"testing"

	"optipart/internal/comm"
	"optipart/internal/machine"
	"optipart/internal/octree"
	"optipart/internal/par"
	"optipart/internal/psort"
	"optipart/internal/sfc"
)

// repartMesh builds a deterministic complete linear mesh for repartitioning
// tests, ordered along the given curve.
func repartMesh(curve *sfc.Curve, seed int64, nSeeds int, depth uint8) []sfc.Key {
	rng := rand.New(rand.NewSource(seed))
	m := octree.Balance21(octree.AdaptiveMesh(rng, nSeeds, 3, octree.Normal, depth))
	return m.WithCurve(curve).Leaves
}

func repartBase(curve *sfc.Curve) Options {
	return Options{
		Curve:        curve,
		Mode:         ModelDriven,
		Tol:          0.1,
		Machine:      machine.Wisconsin8(),
		SkipExchange: true,
	}
}

// blockOf returns rank r's equal-block slice of a global mesh.
func blockOf(mesh []sfc.Key, p, r int) []sfc.Key {
	lo := len(mesh) * r / p
	hi := len(mesh) * (r + 1) / p
	return append([]sfc.Key(nil), mesh[lo:hi]...)
}

func TestRepartitionStableMeshKeepsPlacement(t *testing.T) {
	curve := sfc.NewCurve(sfc.Hilbert, 3)
	mesh := repartMesh(curve, 1, 400, 6)
	p := 8
	moved := make([]int64, p)
	comm.Run(p, comm.CostModel{}, func(c *comm.Comm) {
		res := Partition(c, blockOf(mesh, p, c.Rank()), repartBase(curve))
		// Same mesh again, prior placement given: nothing is violated.
		ranges := res.Splitters.Ranges(mesh)
		local := append([]sfc.Key(nil), mesh[ranges[c.Rank()]:ranges[c.Rank()+1]]...)
		rr := Repartition(c, local, RepartOptions{Options: repartBase(curve), Prior: res.Splitters})
		moved[c.Rank()] = rr.MovedElements
		for i, sep := range rr.Splitters.Seps {
			if sep != res.Splitters.Seps[i] {
				t.Errorf("rank %d: separator %d changed on a stable mesh", c.Rank(), i)
			}
		}
	})
	for r := 0; r < p; r++ {
		if moved[r] != 0 {
			t.Fatalf("rank %d: stable mesh moved %d elements, want 0", r, moved[r])
		}
	}
}

func TestRepartitionDerivedPriorMovesNothing(t *testing.T) {
	curve := sfc.NewCurve(sfc.Morton, 3)
	mesh := repartMesh(curve, 2, 300, 6)
	p := 4
	comm.Run(p, comm.CostModel{}, func(c *comm.Comm) {
		opts := repartBase(curve)
		opts.SkipExchange = false
		res := Partition(c, blockOf(mesh, p, c.Rank()), opts)
		// The exchanged distribution IS the prior; deriving it via
		// SplittersFromDistribution must find nothing to move.
		prior := SplittersFromDistribution(c, curve, res.Local)
		rr := Repartition(c, res.Local, RepartOptions{Options: repartBase(curve), Prior: prior})
		if rr.MovedElements != 0 {
			t.Errorf("rank %d: repartition of a fresh distribution against its derived prior moved %d elements",
				c.Rank(), rr.MovedElements)
		}
	})
}

// TestRepartitionNilPriorPanics: every warm start names its prior; a nil
// one is a partition error, like a prior of the wrong size.
func TestRepartitionNilPriorPanics(t *testing.T) {
	curve := sfc.NewCurve(sfc.Morton, 3)
	mesh := repartMesh(curve, 2, 300, 6)
	defer func() {
		if r := recover(); r == nil || !strings.Contains(fmt.Sprint(r), "partition: Repartition needs a prior placement") {
			t.Fatalf("nil prior: recovered %v, want the partition error", r)
		}
	}()
	comm.Run(2, comm.CostModel{}, func(c *comm.Comm) {
		Repartition(c, blockOf(mesh, 2, c.Rank()), RepartOptions{Options: repartBase(curve)})
	})
}

// TestRepartitionMovesLessThanScratch drives both strategies through the
// same evolving mesh history and checks the incremental path's headline
// property: strictly fewer cumulative moved elements. The mesh follows a
// moving refinement front (uniform refinement preserves relative balance,
// so without a front neither strategy would need to move anything).
func TestRepartitionMovesLessThanScratch(t *testing.T) {
	curve := sfc.NewCurve(sfc.Hilbert, 3)
	p := 8
	ev := octree.NewEvolver(curve, 5, repartMesh(curve, 3, 400, 6))
	ev.RefineBias, ev.CoarsenBias = octree.FrontBias(3, 2, 6, 0.25)

	var spInc, spScratch *Splitters
	comm.Run(p, comm.CostModel{}, func(c *comm.Comm) {
		res := Partition(c, blockOf(ev.Leaves(), p, c.Rank()), repartBase(curve))
		if c.Rank() == 0 {
			spInc, spScratch = res.Splitters, res.Splitters
		}
	})

	var cumInc, cumScratch int64
	for step := 0; step < 6; step++ {
		ev.Step(0.05, 0.2)
		mesh := ev.Leaves()
		nextInc := make([]*Splitters, p)
		nextScratch := make([]*Splitters, p)
		movedInc := make([]int64, p)
		movedScratch := make([]int64, p)
		comm.Run(p, comm.CostModel{}, func(c *comm.Comm) {
			r := c.Rank()
			ri := spInc.Ranges(mesh)
			local := append([]sfc.Key(nil), mesh[ri[r]:ri[r+1]]...)
			rr := Repartition(c, local, RepartOptions{Options: repartBase(curve), Prior: spInc})
			nextInc[r] = rr.Splitters
			movedInc[r] = rr.MovedElements

			rs := spScratch.Ranges(mesh)
			localS := append([]sfc.Key(nil), mesh[rs[r]:rs[r+1]]...)
			res := Partition(c, localS, repartBase(curve))
			nextScratch[r] = res.Splitters
			movedScratch[r] = MovedElements(c, localS, spScratch, res.Splitters)
		})
		for r := 1; r < p; r++ {
			if movedInc[r] != movedInc[0] || movedScratch[r] != movedScratch[0] {
				t.Fatalf("step %d: moved counts disagree across ranks", step)
			}
			for i := range nextInc[r].Seps {
				if nextInc[r].Seps[i] != nextInc[0].Seps[i] {
					t.Fatalf("step %d: incremental splitters disagree across ranks", step)
				}
			}
		}
		cumInc += movedInc[0]
		cumScratch += movedScratch[0]
		spInc, spScratch = nextInc[0], nextScratch[0]
	}
	if cumInc >= cumScratch {
		t.Fatalf("incremental moved %d elements cumulatively, scratch %d: want strictly fewer",
			cumInc, cumScratch)
	}
}

func TestMovedElementsMatchesOwnerScan(t *testing.T) {
	curve := sfc.NewCurve(sfc.Hilbert, 3)
	mesh := repartMesh(curve, 7, 350, 6)
	p := 6
	// Two arbitrary placements, equal blocks and a skewed split, plus the
	// extremes: everything on rank 0 against everything on rank p-1.
	prior := &Splitters{Curve: curve, Seps: make([]sfc.Key, p-1)}
	next := &Splitters{Curve: curve, Seps: make([]sfc.Key, p-1)}
	first := &Splitters{Curve: curve, Seps: make([]sfc.Key, p-1)}
	last := &Splitters{Curve: curve, Seps: make([]sfc.Key, p-1)}
	for r := 1; r < p; r++ {
		prior.Seps[r-1] = mesh[len(mesh)*r/p]
		next.Seps[r-1] = mesh[len(mesh)*r*r/(p*p)]
		first.Seps[r-1] = InfKey
		last.Seps[r-1] = mesh[0]
	}
	var scan int64
	for _, k := range mesh {
		if prior.Owner(k) != next.Owner(k) {
			scan++
		}
	}
	cases := []struct {
		name     string
		from, to *Splitters
		want     int64
	}{
		{"owner scan", prior, next, scan},
		{"prior == next", prior, prior, 0},
		{"disjoint placements", first, last, int64(len(mesh))},
	}
	comm.Run(p, comm.CostModel{}, func(c *comm.Comm) {
		ranges := prior.Ranges(mesh)
		local := mesh[ranges[c.Rank()]:ranges[c.Rank()+1]]
		for _, tc := range cases {
			if got := MovedElements(c, local, tc.from, tc.to); got != tc.want {
				t.Errorf("rank %d, %s: MovedElements = %d, want %d", c.Rank(), tc.name, got, tc.want)
			}
		}
	})
}

// TestMergeSepsClampCopiesBoundary drives mergeSeps into its monotone
// clamp: the prior's first separator sits far right of the second target,
// which is re-aimed, so the snapped second separator crosses it. The clamped
// candidate's boundaries must still be its global Ranges.
func TestMergeSepsClampCopiesBoundary(t *testing.T) {
	curve := sfc.NewCurve(sfc.Hilbert, 3)
	mesh := repartMesh(curve, 1, 200, 6)
	const p = 3
	n := len(mesh)
	prior := &Splitters{Curve: curve, Seps: []sfc.Key{mesh[n*9/10], mesh[n*19/20]}}
	comm.Run(p, comm.CostModel{}, func(c *comm.Comm) {
		local := blockOf(mesh, p, c.Rank())
		a := psort.GetArena()
		defer psort.PutArena(a)
		ranks, _ := psort.TreeSortArena(curve, local, a)
		sel := newSelector(c, c.Size(), curve, local, ranks, a, 0)
		priorB := priorBounds(c, sel, prior)
		violated := []int64{sel.targets[1]}
		sel.targets = violated
		for sel.refineRound(0) {
		}
		cand, b := mergeSeps(curve, prior, priorB, sel, violated, []int{1})
		if cand.Seps[1] != cand.Seps[0] {
			t.Errorf("rank %d: the re-aimed separator did not cross the kept one; the clamp never fired", c.Rank())
		}
		if want := cand.Ranges(mesh); !slices.Equal(b, want) {
			t.Errorf("rank %d: merged boundaries %v, the candidate's Ranges give %v", c.Rank(), b, want)
		}
	})
}

func engineConfig(curve *sfc.Curve, p int) RepartConfig {
	return RepartConfig{Curve: curve, P: p, Machine: machine.Wisconsin8(), Tol: 0.1}
}

func TestRepartitionerSeedInvariants(t *testing.T) {
	curve := sfc.NewCurve(sfc.Hilbert, 3)
	mesh := repartMesh(curve, 4, 400, 6)
	e := NewRepartitioner(engineConfig(curve, 8))
	res := e.Seed(mesh)
	if e.Len() != len(mesh) {
		t.Fatalf("engine holds %d elements, want %d", e.Len(), len(mesh))
	}
	checkColumns(t, e, "seed")
	if res.Quality.N != int64(len(mesh)) {
		t.Fatalf("quality N = %d, want %d", res.Quality.N, len(mesh))
	}
	if res.Quality.Wmin == 0 {
		t.Fatal("cold seed produced an empty partition")
	}
	if res.MovedElements != 0 {
		t.Fatal("seed has no prior; moved must be 0")
	}
	sp := e.Splitters()
	if sp.P() != 8 {
		t.Fatalf("splitters P = %d, want 8", sp.P())
	}

	// The cold start is Algorithm 3: Seed's separators are Partition's
	// under ModelDriven at the same p, curve and machine, and its Quality
	// is Algorithm 2 under the element positions they fall at.
	for _, kind := range []sfc.Kind{sfc.Hilbert, sfc.Morton} {
		curve := sfc.NewCurve(kind, 3)
		mesh := repartMesh(curve, 4, 400, 6)
		for _, m := range []machine.Machine{machine.Titan(), machine.Wisconsin8()} {
			for _, p := range []int{3, 8, 16} {
				cfg := engineConfig(curve, p)
				cfg.Machine = m
				e := NewRepartitioner(cfg)
				res := e.Seed(mesh)
				var want *Splitters
				comm.Run(p, m.CostModel(), func(c *comm.Comm) {
					opts := Options{Curve: curve, Mode: ModelDriven, Machine: m, SkipExchange: true}
					if r := Partition(c, blockOf(mesh, p, c.Rank()), opts); c.Rank() == 0 {
						want = r.Splitters
					}
				})
				if got := e.Splitters(); !slices.Equal(got.Seps, want.Seps) {
					t.Fatalf("%v %s p=%d: Seed separators %v, Partition's %v", kind, m.Name, p, got.Seps, want.Seps)
				}
				keys := e.Keys()
				snapped := &Splitters{Curve: curve, Seps: make([]sfc.Key, p-1)}
				for i, pos := range want.Ranges(keys)[1:p] {
					snapped.Seps[i] = InfKey
					if pos < len(keys) {
						snapped.Seps[i] = keys[pos]
					}
				}
				comm.Run(1, comm.CostModel{}, func(c *comm.Comm) {
					if q := EvaluateQuality(c, curve, keys, snapped); q != res.Quality {
						t.Errorf("%v %s p=%d: Seed quality %+v, Algorithm 2 under its snapped separators %+v", kind, m.Name, p, res.Quality, q)
					}
				})
			}
		}
	}
}

// TestRepartitionerKeepsNoRankColumn: the sort's rank columns live in a
// borrowed arena for as long as Seed's selection reads them, so the
// engine's own arena never holds one, after Seed or after Rebuild.
func TestRepartitionerKeepsNoRankColumn(t *testing.T) {
	curve := sfc.NewCurve(sfc.Hilbert, 3)
	mesh := repartMesh(curve, 4, 400, 6)
	e := NewRepartitioner(engineConfig(curve, 8))
	check := func(when string) {
		t.Helper()
		a := reflect.ValueOf(e.arena).Elem()
		for _, name := range []string{"ranks", "rAlt"} {
			if col := a.FieldByName(name); !col.IsValid() || col.Cap() != 0 {
				t.Fatalf("after %s the engine arena's %s column is %v with capacity %d, want an empty column", when, name, col.IsValid(), col.Cap())
			}
		}
	}
	e.Seed(mesh)
	check("Seed")
	e.Rebuild(mesh, e.Splitters())
	check("Rebuild")
}

// checkColumns fails unless the engine's key column is in strictly
// increasing curve rank order, the order its separator searches assume,
// and its cached span columns equal fresh ranks of the keys' face
// neighbours.
func checkColumns(t *testing.T, e *Repartitioner, when string) {
	t.Helper()
	curve := e.cfg.Curve
	if len(e.keys) != e.n || len(e.lo) != e.n || len(e.hi) != e.n {
		t.Fatalf("%s: columns hold %d keys and %d/%d spans for %d elements", when, len(e.keys), len(e.lo), len(e.hi), e.n)
	}
	for i, k := range e.Keys() {
		if i > 0 && !curve.Rank(e.keys[i-1]).Less(curve.Rank(k)) {
			t.Fatalf("%s: key %d does not follow key %d in curve order", when, i, i-1)
		}
		lo, hi := sfc.MaxRank128, sfc.Rank128{}
		for _, f := range octree.Faces(curve.Dim) {
			if nk, ok := octree.FaceNeighbor(k, f); ok {
				r := curve.Rank(nk)
				if r.Less(lo) {
					lo = r
				}
				if hi.Less(r) {
					hi = r
				}
			}
		}
		if e.lo[i] != lo || e.hi[i] != hi {
			t.Fatalf("%s: cached span %d stale", when, i)
		}
	}
}

// TestRepartitionerStepMatchesEvolver checks the incremental mesh update:
// after each delta the engine's cached columns must equal the evolver's
// leaves with fresh ranks and spans.
func TestRepartitionerStepMatchesEvolver(t *testing.T) {
	curve := sfc.NewCurve(sfc.Hilbert, 3)
	ev := octree.NewEvolver(curve, 9, repartMesh(curve, 5, 300, 6))
	e := NewRepartitioner(engineConfig(curve, 8))
	e.Seed(ev.Leaves())
	for step := 0; step < 8; step++ {
		d := ev.Step(0.06, 0.08)
		e.Step(d)
		leaves := ev.Leaves()
		if e.Len() != len(leaves) {
			t.Fatalf("step %d: engine %d elements, evolver %d", step, e.Len(), len(leaves))
		}
		for i, k := range e.Keys() {
			if k != leaves[i] {
				t.Fatalf("step %d: key %d diverges", step, i)
			}
		}
		checkColumns(t, e, fmt.Sprintf("step %d", step))
	}
}

// TestRepartitionerStepMatchesRebuild: the warm Step over a delta and a
// cold Rebuild over the same mesh and prior must adopt the identical
// placement — what makes partition.rebuild_ms a fair cold comparison for
// partition.step_ms in the benchmark spine. Step prices rungs from its
// count memo, carried across the delta; Rebuild counts from scratch. Six
// steps of a growing mesh under engineConfig come first, then 60-step
// moving-front campaigns on both curves.
func TestRepartitionerStepMatchesRebuild(t *testing.T) {
	curve := sfc.NewCurve(sfc.Hilbert, 3)
	ev := octree.NewEvolver(curve, 13, repartMesh(curve, 6, 350, 6))
	e := NewRepartitioner(engineConfig(curve, 8))
	e.Seed(ev.Leaves())
	for step := 0; step < 6; step++ {
		if err := stepMatchesRebuild(e, ev, 0.07, 0.08); err != nil {
			t.Fatalf("growing mesh step %d: %v", step, err)
		}
	}
	for _, kind := range []sfc.Kind{sfc.Hilbert, sfc.Morton} {
		for _, p := range []int{2, 8, 16} {
			curve := sfc.NewCurve(kind, 3)
			e, ev := frontCampaign(curve, p, 13, repartMesh(curve, 6, 350, 6))
			e.Seed(ev.Leaves())
			for step := 0; step < 60; step++ {
				refine, coarsen := campaignFracs(step, e.Len())
				if err := stepMatchesRebuild(e, ev, refine, coarsen); err != nil {
					t.Fatalf("%v p=%d step %d: %v", kind, p, step, err)
				}
			}
		}
	}
}

// frontCampaign returns an engine and an evolver over mesh driven by a
// moving refinement front, under a horizon short enough that some steps
// re-aim the placement: the count memo is then carried across both kept
// and moved adoptions.
func frontCampaign(curve *sfc.Curve, p int, seed int64, mesh []sfc.Key) (*Repartitioner, *octree.Evolver) {
	ev := octree.NewEvolver(curve, seed, mesh)
	ev.RefineBias, ev.CoarsenBias = octree.FrontBias(curve.Dim, 4, 6, 0.25)
	return NewRepartitioner(RepartConfig{Curve: curve, P: p, Machine: machine.Titan(), Tol: 0.03, Horizon: 50}), ev
}

// campaignFracs returns the refine and coarsen fractions of a campaign's
// step: refine-only, coarsen-only, no-op and mixed deltas in turn, steered
// to keep an n-leaf mesh within a few thousand leaves.
func campaignFracs(step, n int) (refine, coarsen float64) {
	r, c := 0.03, 0.2
	if n > 4000 {
		r = 0.003
	}
	if n < 2000 {
		c = 0.01
	}
	switch step % 4 {
	case 0:
		return r, 0
	case 1:
		return 0, c
	case 2:
		return 0, 0
	}
	return r, c
}

// stepMatchesRebuild advances ev by one step, applies its delta to e, and
// fails unless the result and adopted separators equal a cold Rebuild's
// over the same mesh and prior, and the reported Quality equals a full
// recount (fullQuality).
func stepMatchesRebuild(e *Repartitioner, ev *octree.Evolver, refine, coarsen float64) error {
	prior := e.Splitters()
	got := e.Step(ev.Step(refine, coarsen))
	cold := NewRepartitioner(e.cfg)
	want := cold.Rebuild(ev.Leaves(), prior)
	if got != want {
		return fmt.Errorf("Step %+v != Rebuild %+v", got, want)
	}
	ws, cs := e.Splitters(), cold.Splitters()
	for i := range ws.Seps {
		if ws.Seps[i] != cs.Seps[i] {
			return fmt.Errorf("adopted separators diverge at %d", i)
		}
	}
	if q := fullQuality(e); got.Quality != q {
		return fmt.Errorf("reported quality %+v, full recount %+v", got.Quality, q)
	}
	return nil
}

// fullQuality recounts the engine's adopted placement from scratch:
// qualityUnder its separator ranks.
func fullQuality(e *Repartitioner) Quality { return qualityUnder(e, e.sepRanks) }

// qualityUnder recounts the placement of separator ranks sepRanks over the
// engine's mesh from scratch: fresh rank and exact span columns of its
// keys, from RankWithSpan directly and not through either column fill,
// each separator snapped to the first element at or after it (the
// positions the engine prices), and the any-order scanCounts over the
// whole mesh.
func qualityUnder(e *Repartitioner, sepRanks []sfc.Rank128) Quality {
	keys := e.Keys()
	ranks := make([]sfc.Rank128, len(keys))
	lo := make([]sfc.Rank128, len(keys))
	hi := make([]sfc.Rank128, len(keys))
	for i, k := range keys {
		ranks[i], lo[i], hi[i] = e.cfg.Curve.RankWithSpan(k)
	}
	seps := make([]sfc.Rank128, e.cfg.P-1)
	for r := range seps {
		seps[r] = sfc.MaxRank128
		if pos := sfc.LowerBound(ranks, sepRanks[r]); pos < len(keys) {
			seps[r] = ranks[pos]
		}
	}
	counts := make([]int64, 2*e.cfg.P)
	scanCounts(e.cfg.Curve, keys, ranks, lo, hi, seps, counts)
	return foldQuality(counts)
}

// TestRepartitionerMemoMatchesScan pins the count memo against a full
// Algorithm 2 pass: after every Seed, Step and Rebuild of one long-lived
// engine, the reported Quality equals fullQuality. The campaign cycles
// refine-only, coarsen-only, no-op and mixed deltas and re-ingests through
// Rebuild every seventh step, which must drop the memo the steps built.
// It covers both curves, p from 1 to 16, and a mesh smaller than p.
func TestRepartitionerMemoMatchesScan(t *testing.T) {
	steps := 300
	if testing.Short() {
		steps = 50
	}
	for _, kind := range []sfc.Kind{sfc.Hilbert, sfc.Morton} {
		curve := sfc.NewCurve(kind, 3)
		// The tiny mesh is the root refined once: 8 leaves, fewer than
		// p = 16 until the front refines it.
		grow := octree.NewEvolver(curve, 1, []sfc.Key{sfc.RootKey})
		grow.Step(1, 0)
		meshes := []struct {
			name string
			keys []sfc.Key
		}{{"tiny", grow.Leaves()}, {"adaptive", repartMesh(curve, 3, 60, 5)}}
		for _, mesh := range meshes {
			for _, p := range []int{1, 2, 7, 16} {
				e, ev := frontCampaign(curve, p, 7, mesh.keys)
				moved := 0
				check := func(when string, res StepResult) {
					t.Helper()
					if !res.Kept {
						moved++
					}
					if q := fullQuality(e); res.Quality != q {
						t.Fatalf("%v %s p=%d %s (n=%d): reported quality %+v, full recount %+v",
							kind, mesh.name, p, when, e.Len(), res.Quality, q)
					}
				}
				check("seed", e.Seed(ev.Leaves()))
				moved = 0 // a cold Seed never keeps a prior
				for step := 0; step < steps; step++ {
					if step%7 == 6 {
						prior := e.Splitters()
						ev.Step(campaignFracs(step, e.Len()))
						check(fmt.Sprintf("rebuild %d", step), e.Rebuild(ev.Leaves(), prior))
						continue
					}
					check(fmt.Sprintf("step %d", step), e.Step(ev.Step(campaignFracs(step, e.Len()))))
				}
				if mesh.name == "adaptive" && p > 1 && moved == 0 {
					t.Errorf("%v p=%d: no step re-aimed the placement; the campaign should exercise both outcomes", kind, p)
				}
			}
		}
	}
}

// FuzzRepartitionerStep drives short moving-front campaigns from fuzzed
// mesh and evolver seeds, partition count and refine/coarsen fractions
// (the mesh seed's low bit picks the curve), and requires every Step to
// adopt what a cold Rebuild adopts, with its Quality equal to a full
// recount.
func FuzzRepartitionerStep(f *testing.F) {
	f.Add(int64(3), int64(7), uint8(7), uint8(40), uint8(60))
	f.Add(int64(4), int64(1), uint8(16), uint8(0), uint8(255))
	f.Add(int64(5), int64(2), uint8(2), uint8(255), uint8(0))
	f.Add(int64(6), int64(9), uint8(1), uint8(10), uint8(10))
	f.Add(int64(0), int64(0), uint8(40), uint8(0), uint8(0))
	f.Fuzz(func(t *testing.T, meshSeed, evSeed int64, p, refine, coarsen uint8) {
		kind := sfc.Hilbert
		if meshSeed&1 != 0 {
			kind = sfc.Morton
		}
		curve := sfc.NewCurve(kind, 3)
		e, ev := frontCampaign(curve, 1+int(p)%32, evSeed, repartMesh(curve, meshSeed, 30, 5))
		if res := e.Seed(ev.Leaves()); res.Quality != fullQuality(e) {
			t.Fatalf("seed: reported quality %+v, full recount %+v", res.Quality, fullQuality(e))
		}
		for step := 0; step < 4; step++ {
			if err := stepMatchesRebuild(e, ev, float64(refine)/2550, float64(coarsen)/510); err != nil {
				t.Fatalf("step %d (n=%d): %v", step, e.Len(), err)
			}
		}
	})
}

// TestRepartitionerAgreesWithCollective pins the arithmetic the serial
// engine and the collective path share: along an evolving mesh history, the
// Quality and moved count a Step reports are exactly what the collective
// EvaluateQuality and MovedElements compute for the engine's placements
// from a different data layout (4 ranks, keys dealt round-robin for the
// scan; the moved count needs curve-ordered ranges, so equal blocks).
//
// The engine prices a placement by positions, so each separator enters its
// scan as the rank of the first element at or after it. For an adopted
// candidate that element IS the separator; for a kept prior whose separator
// octant has since been refined it is the octant's first child, and a
// neighbor octant equal to the separator itself is attributed to the other
// side. The quality comparison therefore runs under the snapped separators,
// and the test reports how often snapping mattered so the difference stays
// visible.
func TestRepartitionerAgreesWithCollective(t *testing.T) {
	curve := sfc.NewCurve(sfc.Hilbert, 3)
	ev := octree.NewEvolver(curve, 11, repartMesh(curve, 12, 350, 6))
	// A moving refinement front under a long horizon: three steps re-aim
	// (moved > 0) and three keep the prior.
	ev.RefineBias, ev.CoarsenBias = octree.FrontBias(3, 2, 6, 0.25)
	cfg := engineConfig(curve, 8)
	cfg.Horizon = 100
	e := NewRepartitioner(cfg)
	res := e.Seed(ev.Leaves())
	prior := e.Splitters()
	keptSteps, snappedSeps := 0, 0
	for step := 0; step <= 6; step++ {
		if step > 0 {
			prior = e.Splitters()
			res = e.Step(ev.Step(0.05, 0.2))
		}
		next := e.Splitters()
		keys := e.Keys()
		snapped := &Splitters{Curve: curve, Seps: make([]sfc.Key, len(next.Seps))}
		for i, pos := range next.Ranges(keys)[1:next.P()] {
			snapped.Seps[i] = InfKey
			if pos < len(keys) {
				snapped.Seps[i] = keys[pos]
			}
			if snapped.Seps[i] != next.Seps[i] {
				snappedSeps++
			}
		}
		if res.Kept {
			keptSteps++
		}
		comm.Run(4, comm.CostModel{}, func(c *comm.Comm) {
			var dealt []sfc.Key
			for i, k := range keys {
				if i%4 == c.Rank() {
					dealt = append(dealt, k)
				}
			}
			if q := EvaluateQuality(c, curve, dealt, snapped); q != res.Quality {
				t.Errorf("step %d rank %d: collective quality %+v, engine %+v (kept=%v)", step, c.Rank(), q, res.Quality, res.Kept)
			}
			block := blockOf(keys, 4, c.Rank())
			if moved := MovedElements(c, block, prior, next); moved != res.MovedElements {
				t.Errorf("step %d rank %d: collective moved %d, engine %d", step, c.Rank(), moved, res.MovedElements)
			}
		})
	}
	if keptSteps == 0 || keptSteps == 6 {
		t.Errorf("%d of 6 steps kept the prior; the history should exercise both outcomes", keptSteps)
	}
	t.Logf("%d of 6 steps kept the prior; %d separators differed from the element they snap to", keptSteps, snappedSeps)
}

// TestRepartitionerMovedAccounting verifies the binary-search moved count
// against a brute-force owner comparison over the new mesh.
func TestRepartitionerMovedAccounting(t *testing.T) {
	curve := sfc.NewCurve(sfc.Hilbert, 3)
	ev := octree.NewEvolver(curve, 21, repartMesh(curve, 8, 350, 6))
	e := NewRepartitioner(engineConfig(curve, 8))
	e.Seed(ev.Leaves())
	for step := 0; step < 5; step++ {
		prior := e.Splitters()
		d := ev.Step(0.08, 0.08)
		res := e.Step(d)
		next := e.Splitters()
		var want int64
		for _, k := range ev.Leaves() {
			if prior.Owner(k) != next.Owner(k) {
				want++
			}
		}
		if res.MovedElements != want {
			t.Fatalf("step %d: MovedElements = %d, brute force %d", step, res.MovedElements, want)
		}
		if res.MovedBytes != want*int64(machine.GhostPayloadBytes) {
			t.Fatalf("step %d: MovedBytes inconsistent", step)
		}
	}
}

// TestRepartitionerStepAcrossWidths pins the parallel Step: a 100-step
// moving-front campaign that grows a 33k-leaf mesh (five merge chunks) to
// 63k, under online-repart's horizon of 240 steps, reports the same
// StepResult sequence and ends with the same key and span columns
// under pool widths 1, 2 and 7. At every width each step's Quality equals a
// full recount, so the count memo summed from the chunks' slices stays
// exact.
func TestRepartitionerStepAcrossWidths(t *testing.T) {
	curve := sfc.NewCurve(sfc.Hilbert, 3)
	mesh := repartMesh(curve, 11, 300, 8)
	if chunks := par.NumChunks(len(mesh), mergeGrain); chunks < 3 {
		t.Fatalf("mesh of %d leaves spans %d merge chunks, want at least 3", len(mesh), chunks)
	}
	type run struct {
		results []StepResult
		keys    []sfc.Key
		lo, hi  []sfc.Rank128
		reaimed int
	}
	campaign := func(w int) (out run) {
		prev := par.SetWorkers(w)
		defer par.SetWorkers(prev)
		ev := octree.NewEvolver(curve, 21, mesh)
		ev.RefineBias, ev.CoarsenBias = octree.FrontBias(curve.Dim, 4, 6, 0.25)
		e := NewRepartitioner(RepartConfig{Curve: curve, P: 16, Machine: machine.Titan(), Tol: 0.03, Horizon: 240})
		out.results = append(out.results, e.Seed(ev.Leaves()))
		for step := 0; step < 100; step++ {
			res := e.Step(ev.Step(0.002, 0.0025))
			if q := fullQuality(e); res.Quality != q {
				t.Fatalf("width %d step %d: reported quality %+v, full recount %+v", w, step, res.Quality, q)
			}
			if !res.Kept {
				out.reaimed++
			}
			out.results = append(out.results, res)
		}
		out.keys = slices.Clone(e.Keys())
		out.lo, out.hi = slices.Clone(e.lo), slices.Clone(e.hi)
		return out
	}
	want := campaign(1)
	if want.reaimed == 0 {
		t.Fatal("no step re-aimed the placement; the campaign should exercise both outcomes")
	}
	for _, w := range []int{2, 7} {
		got := campaign(w)
		if !slices.Equal(got.results, want.results) {
			t.Fatalf("width %d: StepResult sequence differs from width 1", w)
		}
		if !slices.Equal(got.keys, want.keys) || !slices.Equal(got.lo, want.lo) || !slices.Equal(got.hi, want.hi) {
			t.Fatalf("width %d: columns differ from width 1", w)
		}
	}
}

// TestRepartitionerEarlyExitExact holds the warm walk's early exit to the
// full walk it cuts short. Two engines follow one moving-front campaign of
// 200 steps (50 under -short) on both curves at p = 16 under Titan, tol
// 0.03 and horizon 240: one Steps, the other merges the same delta and
// prices every rung in full (fullWalk). Every StepResult and every adopted
// placement must be bit-equal, and the campaign must both re-aim the
// placement and end walks on a strictly worse rung, the rungs the early
// exit prunes.
func TestRepartitionerEarlyExitExact(t *testing.T) {
	steps := 200
	if testing.Short() {
		steps = 50
	}
	cfg := RepartConfig{P: 16, Machine: machine.Titan(), Tol: 0.03, Horizon: 240}
	for _, kind := range []sfc.Kind{sfc.Hilbert, sfc.Morton} {
		cfg.Curve = sfc.NewCurve(kind, 3)
		ev := octree.NewEvolver(cfg.Curve, 5, repartMesh(cfg.Curve, 6, 350, 6))
		ev.RefineBias, ev.CoarsenBias = octree.FrontBias(3, 4, 6, 0.25)
		e, full := NewRepartitioner(cfg), NewRepartitioner(cfg)
		e.Seed(ev.Leaves())
		full.Seed(ev.Leaves())
		reaimed, pruned := 0, 0
		for step := 0; step < steps; step++ {
			d := ev.Step(campaignFracs(step, e.Len()))
			got := e.Step(d)
			full.applyDelta(d)
			want, lost := fullWalk(full)
			if got != want || math.Float64bits(got.Predicted) != math.Float64bits(want.Predicted) {
				t.Fatalf("%v step %d: Step adopts %+v, the full walk %+v", kind, step, got, want)
			}
			if !slices.Equal(e.Splitters().Seps, full.Splitters().Seps) {
				t.Fatalf("%v step %d: adopted separators differ from the full walk's", kind, step)
			}
			if !got.Kept {
				reaimed++
			}
			if lost {
				pruned++
			}
		}
		t.Logf("%v: %d of %d steps re-aimed; %d walks ended on a worse rung", kind, reaimed, steps, pruned)
		if reaimed == 0 || pruned == 0 {
			t.Errorf("%v: %d steps re-aimed and %d walks ended on a worse rung; the campaign should exercise both", kind, reaimed, pruned)
		}
	}
}

// fullWalk is selectPlacement's warm walk without the early exit, for an
// engine of n >= p elements: every rung is scanned in full and priced,
// adopted when strictly better than the best so far, walked past on a tie,
// and the walk stops on the first strictly worse rung, which it reports.
func fullWalk(e *Repartitioner) (res StepResult, lost bool) {
	p := e.cfg.P
	e.aPos[0], e.aPos[p] = 0, e.n
	for r := 1; r < p; r++ {
		e.aPos[r] = e.cfg.Curve.LowerBoundKeys(e.keys, e.sepRanks[r-1])
	}
	q, _ := e.scanQuality(e.aPos, math.MaxInt64)
	copy(e.bestPos, e.aPos)
	copy(e.bestCounts, e.counts)
	res = StepResult{Quality: q, Predicted: e.obj.tp(q), Rounds: 1, Kept: true}
	best := e.obj.j(q, 0)
	for slack := int(e.obj.tol * (float64(e.n) / float64(p))); ; slack /= 2 {
		e.buildCandidate(slack)
		q, _ := e.scanQuality(e.bPos, math.MaxInt64)
		moved := movedBetween(e.aPos, e.bPos, e.n)
		res.Rounds++
		if v := e.obj.j(q, moved); v < best {
			best = v
			copy(e.bestPos, e.bPos)
			copy(e.bestCounts, e.counts)
			res.Quality, res.Predicted, res.Kept = q, e.obj.tp(q), false
			res.MovedElements, res.MovedBytes = moved, moved*int64(e.obj.payload)
		} else if lost = v > best; lost {
			break
		}
		if slack == 0 {
			break
		}
	}
	e.posRanks(e.bestPos, e.memoRanks)
	copy(e.counts, e.bestCounts)
	if !res.Kept {
		copy(e.sepRanks, e.memoRanks)
		for r := 1; r < p; r++ {
			e.seps[r-1] = InfKey
			if e.bestPos[r] < e.n {
				e.seps[r-1] = e.keys[e.bestPos[r]]
			}
		}
	}
	return res, lost
}

// TestRepartitionerMergeStraddlingFamily coarsens sibling families that
// straddle merge-chunk boundaries. A uniform level-5 mesh with its first
// leaf refined puts families at 8m+7, so the ones at 8191 and 16383 cross
// the nominal bounds 8192 and 16384; a third family and two refines sit in
// other chunks. After the merge the columns must hold the expected leaves
// with fresh ranks and spans, and the count memo must equal a full recount
// under the memo's own brackets before any rung rescans; then the
// placement's Quality must equal fullQuality.
func TestRepartitionerMergeStraddlingFamily(t *testing.T) {
	curve := sfc.NewCurve(sfc.Hilbert, 3)
	grow := octree.NewEvolver(curve, 1, []sfc.Key{sfc.RootKey})
	for i := 0; i < 5; i++ {
		grow.Step(1, 0)
	}
	e := NewRepartitioner(engineConfig(curve, 8))
	e.Seed(grow.Leaves())
	e.Step(octree.Delta{Refined: []int{0}, OldLen: e.Len(), NewLen: e.Len() + 7})

	old := slices.Clone(e.Keys())
	delta := octree.Delta{Refined: []int{12000, 20000}, Coarsened: []int{15, 8191, 16383}, OldLen: len(old)}
	delta.NewLen = len(old) + 7*len(delta.Refined) - 7*len(delta.Coarsened)
	var want []sfc.Key
	for i := 0; i < len(old); i++ {
		switch {
		case slices.Contains(delta.Coarsened, i):
			for j := i; j < i+8; j++ {
				if old[j].Parent() != old[i].Parent() || old[j].Level != 5 {
					t.Fatalf("leaves %d..%d are not one level-5 family", i, i+7)
				}
			}
			want = append(want, old[i].Parent())
			i += 7
		case slices.Contains(delta.Refined, i):
			for c := 0; c < 8; c++ {
				want = append(want, old[i].Child(c))
			}
		default:
			want = append(want, old[i])
		}
	}
	slices.SortFunc(want, func(a, b sfc.Key) int {
		ra, rb := curve.Rank(a), curve.Rank(b)
		if ra.Less(rb) {
			return -1
		}
		if rb.Less(ra) {
			return 1
		}
		return 0
	})

	e.applyDelta(delta)
	if !slices.Equal(e.Keys(), want) {
		t.Fatal("merged keys differ from the expected leaves")
	}
	checkColumns(t, e, "merge")
	ranks := make([]sfc.Rank128, e.n)
	for i, k := range e.keys {
		ranks[i] = curve.Rank(k)
	}
	recount := make([]int64, 2*e.cfg.P)
	scanCounts(curve, e.keys, ranks, e.lo, e.hi, e.memoRanks, recount)
	if !slices.Equal(e.counts, recount) {
		t.Fatalf("count memo %v, full recount %v", e.counts, recount)
	}
	if res, q := e.selectPlacement(), fullQuality(e); res.Quality != q {
		t.Fatalf("reported quality %+v, full recount %+v", res.Quality, q)
	}
}

// TestRepartitionerStepRejectsDeltaPastEnd: a delta whose element count
// adds up but whose last refine or coarsened family lies past the mesh is
// refused, not merged into a column with a stale tail.
func TestRepartitionerStepRejectsDeltaPastEnd(t *testing.T) {
	curve := sfc.NewCurve(sfc.Hilbert, 3)
	ev := octree.NewEvolver(curve, 3, repartMesh(curve, 3, 40, 4))
	e := NewRepartitioner(engineConfig(curve, 4))
	e.Seed(ev.Leaves())
	n := e.Len()
	for name, d := range map[string]octree.Delta{
		"refine at n":       {Refined: []int{n}, OldLen: n, NewLen: n + 7},
		"family past n":     {Coarsened: []int{n - 4}, OldLen: n, NewLen: n - 7},
		"refine past n, 2x": {Refined: []int{0, n + 5}, OldLen: n, NewLen: n + 14},
	} {
		t.Run(name, func(t *testing.T) {
			defer func() {
				if r := recover(); r == nil || !strings.Contains(fmt.Sprint(r), "edits past the end") {
					t.Fatalf("recovered %v, want a delta-past-the-end panic", r)
				}
			}()
			e.Step(d)
		})
	}
}

// TestRepartitionerStepZeroAlloc pins the warm-start contract: once the
// arena columns and scratch are warm, a refine/coarsen step allocates
// nothing.
func TestRepartitionerStepZeroAlloc(t *testing.T) {
	curve := sfc.NewCurve(sfc.Hilbert, 3)
	ev := octree.NewEvolver(curve, 17, repartMesh(curve, 9, 250, 6))
	e := NewRepartitioner(engineConfig(curve, 8))
	e.Seed(ev.Leaves())
	// Warm every high-water mark: one full refinement inflates the columns
	// far past anything the measured steps will need. The no-op step in the
	// middle flips the double-buffer parity so BOTH column pairs see the
	// inflated mesh — without it one pair stays at the seed size and
	// reallocates as the mesh creeps. The measured fracs are small enough
	// that compounding growth over the runs stays well inside the headroom.
	e.Step(ev.Step(1, 0))
	e.Step(ev.Step(0, 0))
	e.Step(ev.Step(0, 1))
	for i := 0; i < 4; i++ {
		e.Step(ev.Step(0.005, 0.05))
	}
	allocs := testing.AllocsPerRun(20, func() {
		e.Step(ev.Step(0.005, 0.05))
	})
	if allocs != 0 {
		t.Fatalf("warm Step allocated %.1f times per run, want 0", allocs)
	}
}

func TestRepartitionerSinglePartition(t *testing.T) {
	curve := sfc.NewCurve(sfc.Morton, 3)
	ev := octree.NewEvolver(curve, 2, repartMesh(curve, 10, 100, 5))
	e := NewRepartitioner(engineConfig(curve, 1))
	res := e.Seed(ev.Leaves())
	if res.Quality.Cmax != 0 || res.Quality.Wmax != int64(e.Len()) {
		t.Fatalf("single partition quality wrong: %+v", res.Quality)
	}
	res = e.Step(ev.Step(0.1, 0.1))
	if res.MovedElements != 0 {
		t.Fatal("single partition can never move elements")
	}
}

// walkOnlyJ is the objective Repartition would reach without its merge
// rung: the better of the kept prior and every rung of the from-scratch
// descent, priced and stopped exactly as Repartition's final phase.
// Collective.
func walkOnlyJ(c *comm.Comm, local []sfc.Key, opts RepartOptions) float64 {
	obj := newObjective(opts.Machine, opts.Alpha, opts.PayloadBytes, opts.Tol, opts.Horizon)
	a := psort.GetArena()
	defer psort.PutArena(a)
	ranks, _ := psort.TreeSortArena(opts.Curve, local, a)
	sel := newSelector(c, c.Size(), opts.Curve, local, ranks, a, opts.MaxSplitters)
	best := obj.j(sel.quality(opts.Prior), 0)
	minT := math.Inf(1)
	sel.descend(func(cand *Splitters, _ []int, q Quality) bool {
		if q.emptiesRank(c.Size()) {
			return true
		}
		tp := obj.tp(q)
		best = math.Min(best, obj.j(q, MovedElements(c, local, opts.Prior, cand)))
		if tp > minT {
			return false
		}
		minT = tp
		return true
	})
	return best
}

// TestRepartitionMergeRungAdopted pins the violated-separator merge rung:
// on a small moving-front campaign (the shape of the repart experiment),
// some step's adopted placement is a merge — its J is strictly below the
// kept prior's and every descent rung's — and no step's J is above the
// kept prior's or what the walk alone would reach. Without the merge phase
// the quick repart transcript keeps its placements; this campaign does not.
// The campaign
// also adopts descent rungs, so at every step the moved count and the
// achieved tolerance, both derived from range boundaries without a
// reduction, are checked against recounts over the whole mesh.
func TestRepartitionMergeRungAdopted(t *testing.T) {
	const p, steps = 8, 10
	m := machine.Titan()
	curve := sfc.NewCurve(sfc.Hilbert, 3)
	ev := octree.NewEvolver(curve, 8, repartMesh(curve, 3, 100, 6))
	ev.RefineBias, ev.CoarsenBias = octree.FrontBias(3, 2, 8, 0.1)

	var sp *Splitters
	comm.Run(p, m.CostModel(), func(c *comm.Comm) {
		var local []sfc.Key
		for i, k := range ev.Leaves() {
			if i%p == c.Rank() {
				local = append(local, k)
			}
		}
		res := Partition(c, local, Options{Curve: curve, Mode: ModelDriven, Machine: m, SkipExchange: true})
		if c.Rank() == 0 {
			sp = res.Splitters
		}
	})

	var merged, descended []int
	for step := 1; step <= steps; step++ {
		ev.Step(0.008, 0.010)
		mesh := ev.Leaves()
		opts := RepartOptions{
			Options: Options{Curve: curve, Machine: m, Tol: 0.03, SkipExchange: true},
			Prior:   sp,
			Horizon: 240,
		}
		var rr *RepartResult
		var walkJ float64
		comm.Run(p, m.CostModel(), func(c *comm.Comm) {
			rg := sp.Ranges(mesh)
			local := append([]sfc.Key(nil), mesh[rg[c.Rank()]:rg[c.Rank()+1]]...)
			r := Repartition(c, local, opts)
			wj := walkOnlyJ(c, local, opts)
			if c.Rank() == 0 {
				rr, walkJ = r, wj
			}
		})
		next := rr.Splitters
		var moved int64
		for _, k := range mesh {
			if sp.Owner(k) != next.Owner(k) {
				moved++
			}
		}
		if rr.MovedElements != moved {
			t.Fatalf("step %d: MovedElements = %d, an owner recount gives %d", step, rr.MovedElements, moved)
		}
		var worst int
		for r, pos := range next.Ranges(mesh)[1:p] {
			d := pos - (r+1)*len(mesh)/p
			worst = max(worst, d, -d)
		}
		if tol := float64(worst) / (float64(len(mesh)) / p); rr.AchievedTol != tol {
			t.Fatalf("step %d: AchievedTol = %g, a recount from the adopted ranges gives %g", step, rr.AchievedTol, tol)
		}
		obj := newObjective(opts.Machine, opts.Alpha, opts.PayloadBytes, opts.Tol, opts.Horizon)
		j := obj.j(rr.Quality, rr.MovedElements)
		if priorJ := obj.j(directQuality(sp, mesh), 0); j > priorJ {
			t.Fatalf("step %d: Repartition's J %.6g is worse than keeping the prior (%.6g)", step, j, priorJ)
		}
		if j > walkJ {
			t.Fatalf("step %d: Repartition's J %.6g is worse than the walk alone (%.6g)", step, j, walkJ)
		}
		if j < walkJ {
			merged = append(merged, step)
		} else if moved > 0 {
			descended = append(descended, step)
		}
		sp = next
	}
	if len(merged) == 0 || len(descended) == 0 {
		t.Fatalf("merged candidates adopted at steps %v, descent rungs at %v: the campaign should adopt both", merged, descended)
	}
	t.Logf("merged candidates adopted at steps %v, descent rungs at %v", merged, descended)
}
