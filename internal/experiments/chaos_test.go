package experiments

import (
	"bytes"
	"testing"
)

// TestChaosManySeeds re-runs the chaos harness under several distinct seeds:
// each seed draws a different kill/drain/loss/straggler schedule, and every
// one must end in a campaign whose digest matches its fault-free golden.
func TestChaosManySeeds(t *testing.T) {
	for seed := int64(1); seed <= 5; seed++ {
		var buf bytes.Buffer
		if err := Run("chaos", Config{Out: &buf, Seed: seed, Quick: true}); err != nil {
			t.Fatalf("seed %d: chaos invariants violated: %v\ntranscript:\n%s", seed, err, buf.String())
		}
	}
}
