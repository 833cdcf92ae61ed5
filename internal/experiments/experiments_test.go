package experiments

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"optipart/internal/par"
)

// TestAllExperimentsQuick runs every registered experiment in quick mode;
// each driver contains its own shape assertions (monotone trends,
// pathological cases, improvement thresholds), so passing means the scaled
// reproduction reproduces the paper's qualitative results.
//
// Every experiment's output is additionally compared byte-for-byte against
// the golden transcript captured before the linearized-rank/radix-sort
// rewrite of the hot paths. Those optimizations restructure sorting,
// splitter refinement, and ownership lookup but by construction preserve
// every modeled quantity; any drift here means a perf change leaked into
// the model. Regenerate goldens only for an intentional model change:
//
//	UPDATE_GOLDEN=1 go test ./internal/experiments -run TestAllExperimentsQuick
var updateGolden = os.Getenv("UPDATE_GOLDEN") != ""

func TestAllExperimentsQuick(t *testing.T) {
	for _, name := range Names() {
		name := name
		t.Run(name, func(t *testing.T) {
			var buf bytes.Buffer
			if err := Run(name, Config{Out: &buf, Quick: true}); err != nil {
				t.Fatalf("%s failed: %v\noutput:\n%s", name, err, buf.String())
			}
			if buf.Len() == 0 {
				t.Fatalf("%s produced no output", name)
			}
			golden := filepath.Join("testdata", "golden", name+".golden")
			if updateGolden {
				if err := os.WriteFile(golden, buf.Bytes(), 0o644); err != nil {
					t.Fatalf("update golden: %v", err)
				}
				return
			}
			want, err := os.ReadFile(golden)
			if err != nil {
				t.Fatalf("missing golden transcript (set UPDATE_GOLDEN=1 to record): %v", err)
			}
			if !bytes.Equal(buf.Bytes(), want) {
				t.Fatalf("%s output drifted from golden transcript %s\n--- got ---\n%s\n--- want ---\n%s",
					name, golden, firstDiffContext(buf.String(), string(want)), firstDiffContext(string(want), buf.String()))
			}
		})
	}
}

// TestGoldenTranscriptsAcrossWorkerCounts re-runs every experiment with the
// worker pool widened: the transcripts must stay byte-identical to the same
// goldens, because the pool parallelizes host execution without touching a
// single modeled quantity. (TestAllExperimentsQuick covers the default
// width, which equals GOMAXPROCS; width 1 is the serial baseline the
// goldens were recorded at.) Under -short only the repart row at width 1
// runs: the incremental campaign's serial path against its golden.
func TestGoldenTranscriptsAcrossWorkerCounts(t *testing.T) {
	if updateGolden {
		t.Skip("goldens are recorded by TestAllExperimentsQuick")
	}
	for _, w := range []int{1, 2, 7} {
		for _, name := range Names() {
			if testing.Short() && (w != 1 || name != "repart") {
				continue
			}
			t.Run(fmt.Sprintf("workers=%d/%s", w, name), func(t *testing.T) {
				prev := par.SetWorkers(w)
				defer par.SetWorkers(prev)
				var buf bytes.Buffer
				if err := Run(name, Config{Out: &buf, Quick: true}); err != nil {
					t.Fatalf("%s failed: %v\noutput:\n%s", name, err, buf.String())
				}
				golden := filepath.Join("testdata", "golden", name+".golden")
				want, err := os.ReadFile(golden)
				if err != nil {
					t.Fatalf("missing golden transcript: %v", err)
				}
				if !bytes.Equal(buf.Bytes(), want) {
					t.Fatalf("%s output at workers=%d drifted from golden transcript\n--- got ---\n%s\n--- want ---\n%s",
						name, w, firstDiffContext(buf.String(), string(want)), firstDiffContext(string(want), buf.String()))
				}
			})
		}
	}
}

// firstDiffContext returns a few lines of a around its first divergence
// from b, keeping failure messages readable for multi-KB transcripts.
func firstDiffContext(a, b string) string {
	la, lb := strings.Split(a, "\n"), strings.Split(b, "\n")
	for i := range la {
		if i >= len(lb) || la[i] != lb[i] {
			lo := i - 1
			if lo < 0 {
				lo = 0
			}
			hi := i + 3
			if hi > len(la) {
				hi = len(la)
			}
			return strings.Join(la[lo:hi], "\n")
		}
	}
	return "(prefix identical; lengths differ)"
}

func TestRunUnknown(t *testing.T) {
	var buf bytes.Buffer
	if err := Run("fig99", Config{Out: &buf}); err == nil {
		t.Fatal("unknown experiment did not error")
	}
}

func TestNamesComplete(t *testing.T) {
	want := []string{"fig2", "fig3", "fig4", "fig5", "fig6", "fig7", "fig8", "fig9", "fig10", "fig11", "fig12", "headline", "faults", "chaos", "repart"}
	have := strings.Join(Names(), ",")
	for _, n := range want {
		if !strings.Contains(have, n) {
			t.Fatalf("experiment %s not registered (have %s)", n, have)
		}
	}
	for _, n := range Names() {
		if Describe(n) == "" {
			t.Fatalf("experiment %s has no description", n)
		}
	}
}
