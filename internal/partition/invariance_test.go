package partition

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"optipart/internal/comm"
	"optipart/internal/machine"
	"optipart/internal/octree"
	"optipart/internal/sfc"
)

// TestRepartitionerMachineScaleInvariance is Eq. (3)'s first invariance,
// held by the serial engine: scaling the machine's (tc, ts, tw) by a power
// of two scales every Tp and J exactly, so the ladder compares the same
// numbers and must adopt the same placements. Over a 200-step moving-front
// campaign (50 under -short) on both curves, each StepResult under the
// machine scaled by 4 keeps the Quality, MovedElements, Rounds and Kept of
// the unscaled one, and its Predicted is exactly 4 times as large.
func TestRepartitionerMachineScaleInvariance(t *testing.T) {
	steps := 200
	if testing.Short() {
		steps = 50
	}
	for _, kind := range []sfc.Kind{sfc.Hilbert, sfc.Morton} {
		curve := sfc.NewCurve(kind, 3)
		mesh := repartMesh(curve, 6, 350, 6)
		base, ev := frontCampaign(curve, 8, 13, mesh)
		cfg := base.cfg
		cfg.Machine.Tc *= 4
		cfg.Machine.Ts *= 4
		cfg.Machine.Tw *= 4
		scaled := NewRepartitioner(cfg)
		check := func(when string, a, b StepResult) {
			t.Helper()
			if b.Predicted != 4*a.Predicted {
				t.Fatalf("%v %s: Predicted %g under the scaled machine, want 4 × %g", kind, when, b.Predicted, a.Predicted)
			}
			b.Predicted = a.Predicted
			if a != b {
				t.Fatalf("%v %s: the scaled machine adopts %+v, the unscaled one %+v", kind, when, b, a)
			}
		}
		check("seed", base.Seed(ev.Leaves()), scaled.Seed(ev.Leaves()))
		reaimed := 0
		for step := 0; step < steps; step++ {
			d := ev.Step(campaignFracs(step, base.Len()))
			a, b := base.Step(d), scaled.Step(d)
			check(fmt.Sprintf("step %d", step), a, b)
			if !a.Kept {
				reaimed++
			}
		}
		if reaimed == 0 {
			t.Errorf("%v: no step re-aimed the placement; the campaign should exercise the ladder", kind)
		}
	}
}

// TestPartitionModelDrivenRelations holds the collective ModelDriven
// Partition to Eq. (3)'s relations at spine size, 16 ranks × 4,096 keys (a
// quarter of that under -short), on both curves and two machines. Tp =
// α·tc·8·Wmax + tw·payload·Cmax, and power-of-two scale factors are exact
// in floating point, so:
//   - (tc, ts, tw) × 4 scales every rung's Tp by 4 and keeps the splitters;
//   - α × 2 with tc ÷ 2, and tw × 2 with payload ÷ 2, keep every Tp and the
//     splitters.
//
// The selector reduces global counts, so the splitters also depend only on
// the global multiset of keys: shuffling each rank's input, or dealing the
// same keys to the ranks in uneven slices, keeps them.
func TestPartitionModelDrivenRelations(t *testing.T) {
	const p = 16
	perRank := 4096
	if testing.Short() {
		perRank /= 4
	}
	for _, kind := range []sfc.Kind{sfc.Hilbert, sfc.Morton} {
		curve := sfc.NewCurve(kind, 3)
		rng := rand.New(rand.NewSource(5100 + int64(kind)))
		keys := octree.RandomKeys(rng, p*perRank, 3, octree.LogNormal, 4, 16)
		even := make([][]sfc.Key, p)
		shuffled := make([][]sfc.Key, p)
		uneven := make([][]sfc.Key, p)
		for r, from := 0, 0; r < p; r++ {
			even[r] = keys[r*perRank : (r+1)*perRank]
			shuffled[r] = slices.Clone(even[r])
			rng.Shuffle(perRank, func(i, j int) { shuffled[r][i], shuffled[r][j] = shuffled[r][j], shuffled[r][i] })
			// Every four ranks take 1/4, 7/4, 1/2 and 3/2 of perRank.
			to := from + perRank*[]int{1, 7, 2, 6}[r%4]/4
			uneven[r], from = keys[from:to], to
		}
		for _, m := range []machine.Machine{machine.Clemson32(), machine.Titan()} {
			// The default kernel, and a compute-heavy one with small ghosts,
			// under which halving either term of Eq. (3) alone moves the
			// Hilbert splitters on Titan.
			for _, app := range []struct {
				alpha   float64
				payload int
			}{{machine.DefaultAlpha, machine.GhostPayloadBytes}, {512, 8}} {
				base := Options{Curve: curve, Mode: ModelDriven, Machine: m, Alpha: app.alpha,
					PayloadBytes: app.payload, SkipExchange: true}
				want := partitionWorld(even, base)
				check := func(relation string, got *Result, scale float64) {
					t.Helper()
					where := fmt.Sprintf("%v on %s, α %g, payload %d, %s", kind, m.Name, app.alpha, app.payload, relation)
					if !slices.Equal(got.Splitters.Seps, want.Splitters.Seps) {
						t.Fatalf("%s: the splitters move", where)
					}
					if got.Quality != want.Quality || got.Predicted != scale*want.Predicted {
						t.Fatalf("%s: quality %+v predicted %g, want %+v and %g × %g",
							where, got.Quality, got.Predicted, want.Quality, scale, want.Predicted)
					}
				}
				scaled := base
				scaled.Machine.Tc *= 4
				scaled.Machine.Ts *= 4
				scaled.Machine.Tw *= 4
				check("(tc, ts, tw) × 4", partitionWorld(even, scaled), 4)
				work := base
				work.Alpha *= 2
				work.Machine.Tc /= 2
				check("α × 2 with tc ÷ 2", partitionWorld(even, work), 1)
				wire := base
				wire.Machine.Tw *= 2
				wire.PayloadBytes /= 2
				check("tw × 2 with payload ÷ 2", partitionWorld(even, wire), 1)
				check("each rank's input shuffled", partitionWorld(shuffled, base), 1)
				check("the keys dealt in uneven slices", partitionWorld(uneven, base), 1)
			}
		}
	}
}

// partitionWorld runs Partition on len(locals) ranks, rank r on a copy of
// locals[r], and returns rank 0's result.
func partitionWorld(locals [][]sfc.Key, opts Options) *Result {
	var res *Result
	comm.Run(len(locals), comm.CostModel{}, func(c *comm.Comm) {
		r := Partition(c, slices.Clone(locals[c.Rank()]), opts)
		if c.Rank() == 0 {
			res = r
		}
	})
	return res
}

// TestRepartitionerNeverAboveKept holds the serial engine's ladder to its
// guarantee along TestRepartitionerMachineScaleInvariance's campaign:
// every Step adopts a J no worse than keeping the prior placement, whose J
// is recounted from scratch (qualityUnder the prior separators, moving
// nothing), and a kept Step reports exactly that J.
func TestRepartitionerNeverAboveKept(t *testing.T) {
	steps := 200
	if testing.Short() {
		steps = 50
	}
	for _, kind := range []sfc.Kind{sfc.Hilbert, sfc.Morton} {
		curve := sfc.NewCurve(kind, 3)
		e, ev := frontCampaign(curve, 8, 13, repartMesh(curve, 6, 350, 6))
		e.Seed(ev.Leaves())
		for step := 0; step < steps; step++ {
			prior := slices.Clone(e.sepRanks)
			res := e.Step(ev.Step(campaignFracs(step, e.Len())))
			keptJ := e.obj.j(qualityUnder(e, prior), 0)
			j := e.obj.j(res.Quality, res.MovedElements)
			if j > keptJ || res.Kept && j != keptJ {
				t.Fatalf("%v step %d: adopted J %.9g (kept %t), keeping the prior gives %.9g", kind, step, j, res.Kept, keptJ)
			}
		}
	}
}

// TestRepartitionRelations holds the collective Repartition to the
// relations TestPartitionModelDrivenRelations checks, at the same size, on
// both curves, two machines and two kernels. The prior is Partition's
// ModelDriven placement of a LogNormal mesh; the current mesh adds a
// quarter as many Normal keys, a front at the centre, and each rank holds
// its keys under the prior. The default kernel keeps the prior and the
// compute-heavy one re-aims it. J = horizon·Tp + tw·payload·moved scales
// like Tp, so:
//   - (tc, ts, tw) × 4 keeps Splitters, Quality and MovedElements and
//     scales Predicted by exactly 4;
//   - α × 2 with tc ÷ 2, and tw × 2 with payload ÷ 2, keep the placement;
//   - shuffling each rank's input keeps the placement.
func TestRepartitionRelations(t *testing.T) {
	const p = 16
	perRank := 4096
	if testing.Short() {
		perRank /= 4
	}
	moved := 0
	for _, kind := range []sfc.Kind{sfc.Hilbert, sfc.Morton} {
		curve := sfc.NewCurve(kind, 3)
		rng := rand.New(rand.NewSource(6400 + int64(kind)))
		old := octree.RandomKeys(rng, p*perRank, 3, octree.LogNormal, 4, 16)
		keys := append(slices.Clone(old), octree.RandomKeys(rng, p*perRank/4, 3, octree.Normal, 4, 16)...)
		for _, m := range []machine.Machine{machine.Clemson32(), machine.Titan()} {
			for _, app := range []struct {
				alpha   float64
				payload int
			}{{machine.DefaultAlpha, machine.GhostPayloadBytes}, {512, 8}} {
				base := Options{Curve: curve, Mode: ModelDriven, Machine: m, Alpha: app.alpha,
					PayloadBytes: app.payload, SkipExchange: true}
				even := make([][]sfc.Key, p)
				for r := range even {
					even[r] = old[r*perRank : (r+1)*perRank]
				}
				prior := partitionWorld(even, base).Splitters
				held := make([][]sfc.Key, p)
				for _, k := range keys {
					o := prior.Owner(k)
					held[o] = append(held[o], k)
				}
				shuffled := make([][]sfc.Key, p)
				for r := range held {
					shuffled[r] = slices.Clone(held[r])
					rng.Shuffle(len(held[r]), func(i, j int) { shuffled[r][i], shuffled[r][j] = shuffled[r][j], shuffled[r][i] })
				}
				want := repartitionWorld(held, RepartOptions{Options: base, Prior: prior})
				if want.MovedElements > 0 {
					moved++
				}
				check := func(relation string, got *RepartResult, scale float64) {
					t.Helper()
					where := fmt.Sprintf("%v on %s, α %g, payload %d, %s", kind, m.Name, app.alpha, app.payload, relation)
					if !slices.Equal(got.Splitters.Seps, want.Splitters.Seps) {
						t.Fatalf("%s: the splitters move", where)
					}
					if got.Quality != want.Quality || got.MovedElements != want.MovedElements || got.Predicted != scale*want.Predicted {
						t.Fatalf("%s: quality %+v moved %d predicted %g, want %+v, %d and %g × %g", where,
							got.Quality, got.MovedElements, got.Predicted, want.Quality, want.MovedElements, scale, want.Predicted)
					}
				}
				scaled := base
				scaled.Machine.Tc *= 4
				scaled.Machine.Ts *= 4
				scaled.Machine.Tw *= 4
				check("(tc, ts, tw) × 4", repartitionWorld(held, RepartOptions{Options: scaled, Prior: prior}), 4)
				work := base
				work.Alpha *= 2
				work.Machine.Tc /= 2
				check("α × 2 with tc ÷ 2", repartitionWorld(held, RepartOptions{Options: work, Prior: prior}), 1)
				wire := base
				wire.Machine.Tw *= 2
				wire.PayloadBytes /= 2
				check("tw × 2 with payload ÷ 2", repartitionWorld(held, RepartOptions{Options: wire, Prior: prior}), 1)
				check("each rank's input shuffled", repartitionWorld(shuffled, RepartOptions{Options: base, Prior: prior}), 1)
			}
		}
	}
	if moved == 0 {
		t.Errorf("no case re-aimed the prior; the relations should cover a moved placement")
	}
}

// repartitionWorld runs Repartition on len(locals) ranks, rank r on a copy
// of locals[r], and returns rank 0's result.
func repartitionWorld(locals [][]sfc.Key, opts RepartOptions) *RepartResult {
	var res *RepartResult
	comm.Run(len(locals), comm.CostModel{}, func(c *comm.Comm) {
		r := Repartition(c, slices.Clone(locals[c.Rank()]), opts)
		if c.Rank() == 0 {
			res = r
		}
	})
	return res
}
