package partition

import (
	"fmt"
	"testing"

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
