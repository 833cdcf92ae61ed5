package octree

import (
	"math/rand"
	"slices"
	"testing"

	"optipart/internal/sfc"
)

func TestSoARoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	keys := RandomKeys(rng, 1000, 3, Normal, 0, 18)
	var s SoA
	s.AppendKeys(keys[:400])
	s.AppendKeys(keys[400:])
	if s.Len() != len(keys) {
		t.Fatalf("Len = %d, want %d", s.Len(), len(keys))
	}
	if !s.EqualKeys(keys) {
		t.Fatal("two appends did not store the sequence in order")
	}
}

func TestSoAEqualKeys(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	keys := RandomKeys(rng, 512, 3, Uniform, 0, 12)
	var s SoA
	s.AppendKeys(keys)
	if !s.EqualKeys(keys) {
		t.Fatal("EqualKeys false on identical sequence")
	}
	if s.EqualKeys(keys[:len(keys)-1]) {
		t.Fatal("EqualKeys true on shorter sequence")
	}
	for _, mutate := range []func(*sfc.Key){
		func(k *sfc.Key) { k.X ^= 1 << 20 },
		func(k *sfc.Key) { k.Y ^= 1 << 20 },
		func(k *sfc.Key) { k.Z ^= 1 << 20 },
		func(k *sfc.Key) { k.Level ^= 1 },
	} {
		mut := append([]sfc.Key(nil), keys...)
		mutate(&mut[137])
		if s.EqualKeys(mut) {
			t.Fatal("EqualKeys true after field mutation")
		}
	}
}

func TestLinearizeSortedMatchesLinearize(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	for _, kind := range []sfc.Kind{sfc.Morton, sfc.Hilbert} {
		curve := sfc.NewCurve(kind, 3)
		base := RandomKeys(rng, 2000, 3, LogNormal, 0, 10)
		// Inject duplicates and ancestors so the sweep has real work.
		noisy := append([]sfc.Key(nil), base...)
		for i := 0; i < 200; i++ {
			k := base[rng.Intn(len(base))]
			noisy = append(noisy, k)
			if k.Level > 0 {
				noisy = append(noisy, k.Ancestor(k.Level-uint8(1+rng.Intn(int(k.Level)))))
			}
		}
		want := Linearize(curve, append([]sfc.Key(nil), noisy...))

		sorted := append([]sfc.Key(nil), noisy...)
		slices.SortFunc(sorted, curve.Compare)
		got := LinearizeSorted(sorted)
		if len(got) != len(want) {
			t.Fatalf("%v: LinearizeSorted len %d, Linearize len %d", kind, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("%v: differs at %d: %v vs %v", kind, i, got[i], want[i])
			}
		}
		if !IsLinear(curve, got) {
			t.Fatalf("%v: LinearizeSorted output not linear", kind)
		}
	}
}
