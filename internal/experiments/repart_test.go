package experiments

import (
	"io"
	"testing"
)

// TestRepartSeedSweep runs the full-size repart campaign at seeds 1–5. At
// every seed the incremental strategy must move fewer elements than
// from-scratch OptiPart at no higher cumulative J = horizon·Tp +
// tw·movedBytes. Cumulative Tp alone is not a per-seed property: the
// experiment asserts it at the default seed only, so this test logs its
// ratio.
func TestRepartSeedSweep(t *testing.T) {
	if testing.Short() {
		t.Skip("full-size repart seed sweep skipped in -short")
	}
	for seed := int64(1); seed <= 5; seed++ {
		strategies, _ := repartCampaign(Config{Out: io.Discard, Seed: seed})
		inc, scr := strategies[0], strategies[1]
		if inc.cumMoved >= scr.cumMoved {
			t.Errorf("seed %d: incremental moved %d elements, from-scratch %d: want strictly fewer", seed, inc.cumMoved, scr.cumMoved)
		}
		if inc.cumJ > scr.cumJ {
			t.Errorf("seed %d: incremental cumulative J %.6g above from-scratch %.6g", seed, inc.cumJ, scr.cumJ)
		}
		t.Logf("seed %d: cumulative Tp incremental/scratch = %.4f", seed, inc.cumTp/scr.cumTp)
	}
}
